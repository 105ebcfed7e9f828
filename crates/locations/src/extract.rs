//! Online location parsing: map each raw syslog message to verified
//! dictionary locations (the "Location Parsing" box of Figure 1).
//!
//! Pattern matching alone is insufficient — a message can contain several
//! IPs and interface-like tokens (local, neighbor, remote, or even scanner
//! junk). Every candidate is therefore *verified against the dictionary*:
//! only locations the configuration actually knows are returned, split
//! into the message's own router's locations (finest first) and remote
//! references (the neighbor's interface behind an IP, a shared LSP name).

use crate::dict::LocationDictionary;
use crate::names::parse_ip_token;
use sd_model::{LocationId, RawMessage, RouterId, TokenScratch};

/// Locations extracted from one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extracted {
    /// The originating router.
    pub router: RouterId,
    /// Verified locations: local ones first (deepest first), then remote
    /// references. Never empty — falls back to the router's own location.
    pub locations: Vec<LocationId>,
}

/// Extract and verify the locations of `m`. Returns `None` when the
/// originating router is not in the dictionary at all.
pub fn extract(dict: &LocationDictionary, m: &RawMessage) -> Option<Extracted> {
    let mut toks = TokenScratch::new();
    toks.tokenize(m.detail());
    extract_with(dict, m, &toks)
}

/// [`extract`] reading the tokens of `m.detail()` from `toks`, which the
/// caller has filled with `toks.tokenize(m.detail())` — the online path
/// tokenizes each message once for both template matching and location
/// extraction, and borrows every token instead of copying it.
pub fn extract_with(
    dict: &LocationDictionary,
    m: &RawMessage,
    toks: &TokenScratch,
) -> Option<Extracted> {
    let rid = dict.router_id(m.router())?;
    let mut locals: Vec<LocationId> = Vec::new();
    let mut remotes: Vec<LocationId> = Vec::new();

    let push = |loc: LocationId, locals: &mut Vec<LocationId>, remotes: &mut Vec<LocationId>| {
        if dict.router_of(loc) == rid {
            if !locals.contains(&loc) {
                locals.push(loc);
            }
        } else if !remotes.contains(&loc) {
            remotes.push(loc);
        }
    };

    let detail = m.detail();
    for (i, raw) in toks.tokens(detail).enumerate() {
        let tok = strip(raw);
        if tok.is_empty() {
            continue;
        }
        // Two-token forms: `T3 1/0/0` controllers and `slot 3`.
        if tok == "T3" {
            if let Some(next) = toks.get(detail, i + 1) {
                let name = format!("T3 {}", strip(next));
                if let Some(loc) = dict.by_name(rid, &name) {
                    push(loc, &mut locals, &mut remotes);
                }
            }
            continue;
        }
        if tok == "slot" {
            if let Some(next) = toks.get(detail, i + 1) {
                if let Ok(s) = strip(next).parse::<u8>() {
                    if let Some(loc) = dict.slot(rid, s) {
                        push(loc, &mut locals, &mut remotes);
                    }
                }
            }
            continue;
        }
        // Interface / port names (verified against this router's config).
        if let Some(loc) = dict.by_name(rid, tok) {
            push(loc, &mut locals, &mut remotes);
            continue;
        }
        // LSP names are globally unique.
        if tok.starts_with("LSP-") {
            if let Some(loc) = dict.path(tok) {
                push(loc, &mut locals, &mut remotes);
            }
            continue;
        }
        // IPs, optionally with a `:port` tail. Unverifiable IPs (scanners,
        // remote hosts) are dropped — the dictionary is the arbiter.
        let ip_part = match tok.split_once(':') {
            Some((l, r)) if r.chars().all(|c| c.is_ascii_digit()) => l,
            _ => tok,
        };
        if let Some(ip) = parse_ip_token(ip_part) {
            if let Some(loc) = dict.by_ip(ip) {
                push(loc, &mut locals, &mut remotes);
            }
        }
    }

    // Deepest local location first; fall back to the router node.
    locals.sort_by_key(|l| std::cmp::Reverse(dict.info(*l).level.depth()));
    if locals.is_empty() {
        locals.push(dict.router_location(rid));
    }
    locals.extend(remotes);
    Some(Extracted {
        router: rid,
        locations: locals,
    })
}

/// Trim message punctuation that glues to location tokens.
fn strip(tok: &str) -> &str {
    tok.trim_start_matches(['(', '"', '['])
        .trim_end_matches([',', '.', ')', '"', ';', ']'])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::{ErrorCode, LocationLevel, Timestamp};

    fn dict() -> LocationDictionary {
        let cfg_a = "\
hostname r1
site nyc state NY
!
controller T3 1/0/0
!
interface Loopback0
 ip address 10.255.0.1 255.255.255.255
!
interface Serial1/0
 no ip address
!
interface Serial1/0.10/10:0
 ip address 10.0.0.1 255.255.255.252
 description link to r2 Serial1/0.20/20:0
!
mpls lsp LSP-r1-r2-sec to r2 path r1 r2
";
        let cfg_b = "\
hostname r2
site chi state IL
!
interface Loopback0
 ip address 10.255.0.2 255.255.255.255
!
interface Serial1/0.20/20:0
 ip address 10.0.0.2 255.255.255.252
 description link to r1 Serial1/0.10/10:0
!
";
        LocationDictionary::build(&[cfg_a.to_owned(), cfg_b.to_owned()])
    }

    fn msg(router: &str, detail: &str) -> RawMessage {
        RawMessage::new(Timestamp(0), router, ErrorCode::from("X-1-Y"), detail)
    }

    /// `extract` as it was before it read borrowed spans: a
    /// `split_whitespace` token vector and an owned IP string per probe.
    fn extract_reference(dict: &LocationDictionary, m: &RawMessage) -> Option<Extracted> {
        let rid = dict.router_id(m.router())?;
        let mut locals: Vec<LocationId> = Vec::new();
        let mut remotes: Vec<LocationId> = Vec::new();
        let push =
            |loc: LocationId, locals: &mut Vec<LocationId>, remotes: &mut Vec<LocationId>| {
                if dict.router_of(loc) == rid {
                    if !locals.contains(&loc) {
                        locals.push(loc);
                    }
                } else if !remotes.contains(&loc) {
                    remotes.push(loc);
                }
            };
        let toks: Vec<&str> = m.detail().split_whitespace().collect();
        for (i, raw) in toks.iter().enumerate() {
            let tok = strip(raw);
            if tok.is_empty() {
                continue;
            }
            if tok == "T3" {
                if let Some(next) = toks.get(i + 1) {
                    if let Some(loc) = dict.by_name(rid, &format!("T3 {}", strip(next))) {
                        push(loc, &mut locals, &mut remotes);
                    }
                }
                continue;
            }
            if tok == "slot" {
                if let Some(next) = toks.get(i + 1) {
                    if let Ok(s) = strip(next).parse::<u8>() {
                        if let Some(loc) = dict.slot(rid, s) {
                            push(loc, &mut locals, &mut remotes);
                        }
                    }
                }
                continue;
            }
            if let Some(loc) = dict.by_name(rid, tok) {
                push(loc, &mut locals, &mut remotes);
                continue;
            }
            if tok.starts_with("LSP-") {
                if let Some(loc) = dict.path(tok) {
                    push(loc, &mut locals, &mut remotes);
                }
                continue;
            }
            let ip_part = match tok.split_once(':') {
                Some((l, r)) if r.chars().all(|c| c.is_ascii_digit()) => l,
                _ => tok,
            };
            if let Some(ip) = parse_ip_token(ip_part).map(str::to_owned) {
                if let Some(loc) = dict.by_ip(&ip) {
                    push(loc, &mut locals, &mut remotes);
                }
            }
        }
        locals.sort_by_key(|l| std::cmp::Reverse(dict.info(*l).level.depth()));
        if locals.is_empty() {
            locals.push(dict.router_location(rid));
        }
        locals.extend(remotes);
        Some(Extracted {
            router: rid,
            locations: locals,
        })
    }

    #[test]
    fn unicode_whitespace_splits_like_split_whitespace() {
        let d = dict();
        let r1 = d.router_id("r1").unwrap();
        let sub = d.by_name(r1, "Serial1/0.10/10:0").unwrap();
        let lo2 = d.by_name(d.router_id("r2").unwrap(), "Loopback0").unwrap();
        let mut toks = TokenScratch::new();
        for (detail, expect) in [
            (
                "Interface\u{a0}Serial1/0.10/10:0,\u{3000}changed",
                vec![sub],
            ),
            (
                "Nbr\u{3000}10.255.0.2\u{a0}on\u{a0}Serial1/0.10/10:0",
                vec![sub, lo2],
            ),
            (
                "Controller\u{3000}T3\u{a0}1/0/0,\u{2028}down",
                vec![d.by_name(r1, "T3 1/0/0").unwrap()],
            ),
            (
                "Linecard\u{a0}in slot\u{3000}1\u{a0}failed",
                vec![d.slot(r1, 1).unwrap()],
            ),
            // U+00A0 is White_Space: glued to a name it still splits off.
            ("on Serial1/0.10/10:0\u{a0}x", vec![sub]),
        ] {
            let m = msg("r1", detail);
            toks.tokenize(detail);
            let got = extract_with(&d, &m, &toks).unwrap();
            assert_eq!(Some(got.clone()), extract_reference(&d, &m), "{detail:?}");
            assert_eq!(got.locations, expect, "{detail:?}");
        }
    }

    const PIECES: &[&str] = &[
        "Serial1/0.10/10:0",
        "Serial1/0",
        "Loopback0",
        "T3",
        "1/0/0",
        "slot",
        "1",
        "255",
        "10.255.0.2",
        "10.0.0.1:179",
        "10.255.0.1",
        "172.16.9.9",
        "LSP-r1-r2-sec",
        "(",
        ",",
        ")",
        " ",
        "  ",
        "\t",
        "\u{a0}",
        "\u{3000}",
        "\u{85}",
        "\u{b}",
        "\u{1c}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]
        #[test]
        fn extract_with_matches_reference(
            ix in proptest::collection::vec(0..PIECES.len(), 0..14),
            router in 0usize..3,
        ) {
            let d = dict();
            let detail: String = ix.iter().map(|&i| PIECES[i]).collect();
            let m = msg(["r1", "r2", "ghost"][router], &detail);
            let mut toks = TokenScratch::new();
            toks.tokenize(&detail);
            proptest::prop_assert_eq!(extract_with(&d, &m, &toks), extract_reference(&d, &m));
            proptest::prop_assert_eq!(extract(&d, &m), extract_reference(&d, &m));
        }
    }

    #[test]
    fn interface_with_punctuation_is_found() {
        let d = dict();
        let e = extract(
            &d,
            &msg("r1", "Interface Serial1/0.10/10:0, changed state to down"),
        )
        .unwrap();
        let r1 = d.router_id("r1").unwrap();
        assert_eq!(e.locations[0], d.by_name(r1, "Serial1/0.10/10:0").unwrap());
    }

    #[test]
    fn controller_two_token_form() {
        let d = dict();
        let e = extract(&d, &msg("r1", "Controller T3 1/0/0, changed state to down")).unwrap();
        let r1 = d.router_id("r1").unwrap();
        assert_eq!(e.locations[0], d.by_name(r1, "T3 1/0/0").unwrap());
        assert_eq!(d.info(e.locations[0]).level, LocationLevel::Port);
    }

    #[test]
    fn slot_two_token_form() {
        let d = dict();
        let e = extract(&d, &msg("r1", "Linecard in slot 1 failed, resetting")).unwrap();
        let r1 = d.router_id("r1").unwrap();
        assert_eq!(e.locations[0], d.slot(r1, 1).unwrap());
    }

    #[test]
    fn neighbor_ip_resolves_to_remote_location_after_local() {
        let d = dict();
        let e = extract(
            &d,
            &msg(
                "r1",
                "Nbr 10.255.0.2 on Serial1/0.10/10:0 from FULL to DOWN",
            ),
        )
        .unwrap();
        let r1 = d.router_id("r1").unwrap();
        let r2 = d.router_id("r2").unwrap();
        assert_eq!(e.locations[0], d.by_name(r1, "Serial1/0.10/10:0").unwrap());
        assert!(e.locations.contains(&d.by_name(r2, "Loopback0").unwrap()));
    }

    #[test]
    fn unverifiable_ips_are_dropped() {
        let d = dict();
        let e = extract(
            &d,
            &msg(
                "r1",
                "Invalid MD5 digest from 172.16.9.9:1234 to 10.255.0.1:179",
            ),
        )
        .unwrap();
        let r1 = d.router_id("r1").unwrap();
        // Scanner address ignored; local loopback verified.
        assert_eq!(e.locations, vec![d.by_name(r1, "Loopback0").unwrap()]);
    }

    #[test]
    fn router_fallback_when_nothing_matches() {
        let d = dict();
        let e = extract(
            &d,
            &msg(
                "r1",
                "Configured from console by jsmith on vty0 (192.168.1.1)",
            ),
        )
        .unwrap();
        let r1 = d.router_id("r1").unwrap();
        assert_eq!(e.locations, vec![d.router_location(r1)]);
    }

    #[test]
    fn unknown_router_returns_none() {
        let d = dict();
        assert!(extract(
            &d,
            &msg("ghost", "Interface Serial1/0, changed state to down")
        )
        .is_none());
    }

    #[test]
    fn lsp_names_resolve_globally() {
        let d = dict();
        let e = extract(
            &d,
            &msg(
                "r2",
                "FRR protection switch for LSP LSP-r1-r2-sec to secondary path",
            ),
        )
        .unwrap();
        let p = d.path("LSP-r1-r2-sec").unwrap();
        assert!(e.locations.contains(&p));
    }

    #[test]
    fn local_locations_ordered_deepest_first() {
        let d = dict();
        let e = extract(&d, &msg("r1", "slot 1 alarm on Serial1/0.10/10:0 raised")).unwrap();
        let r1 = d.router_id("r1").unwrap();
        assert_eq!(e.locations[0], d.by_name(r1, "Serial1/0.10/10:0").unwrap());
        assert_eq!(e.locations[1], d.slot(r1, 1).unwrap());
    }
}
