//! Router-config parsing (the "Location Extraction" box of Figure 1).
//!
//! The paper's insight: "a router almost always writes to syslog only the
//! location information it knows, i.e. those configured in the router" —
//! so the location dictionary is built from configs, never from vendor
//! manuals. This module turns one config text into a [`ParsedConfig`];
//! `dict` assembles the cross-router dictionary from all of them.

/// One `interface`/`port` stanza.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParsedIface {
    /// Interface name.
    pub(crate) name: String,
    /// Configured address (dotted quad, mask/prefix dropped).
    pub(crate) ip: Option<String>,
    /// `link to <router> <iface>` description target, if present.
    pub(crate) link_to: Option<(String, String)>,
}

/// Everything location-relevant in one router config.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedConfig {
    /// `hostname` / `system name`.
    pub(crate) hostname: String,
    /// Site code, if present.
    pub(crate) site: Option<String>,
    /// State code, if present (ticket-matching granularity).
    pub(crate) state: Option<String>,
    /// All interface stanzas.
    pub(crate) interfaces: Vec<ParsedIface>,
    /// Controller names (e.g. `T3 1/0/0`).
    pub(crate) controllers: Vec<String>,
    /// Multilink bundles: `(bundle name, member interface names)`.
    pub(crate) bundles: Vec<(String, Vec<String>)>,
    /// BGP neighbor addresses with optional VRF.
    pub(crate) bgp_neighbors: Vec<(String, Option<String>)>,
    /// LSP stanzas: `(lsp name, router names along the path)`.
    pub(crate) lsps: Vec<(String, Vec<String>)>,
    /// PIM stanzas: `(peer router, local iface, secondary lsp name)`.
    pub(crate) pim: Vec<(String, String, String)>,
}

/// Parse one config text (either vendor's format).
pub fn parse_config(text: &str) -> ParsedConfig {
    let mut cfg = ParsedConfig::default();
    let mut cur_iface: Option<usize> = None;
    let mut cur_bundle: Option<usize> = None;
    let mut cur_vrf: Option<String> = None;

    for raw in text.lines() {
        let line = raw.trim_end();
        let indented = line.starts_with(' ');
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.is_empty() || toks[0] == "!" || toks[0] == "#" {
            continue;
        }
        if !indented {
            cur_iface = None;
            cur_bundle = None;
            cur_vrf = None;
        }
        match (indented, toks.as_slice()) {
            (false, ["hostname", name]) => cfg.hostname = (*name).to_owned(),
            (false, ["system", "name", name]) => cfg.hostname = (*name).to_owned(),
            (false, ["site", site, "state", state]) => {
                cfg.site = Some((*site).to_owned());
                cfg.state = Some((*state).to_owned());
            }
            (false, ["system", "location", site, state]) => {
                cfg.site = Some((*site).to_owned());
                cfg.state = Some((*state).to_owned());
            }
            (false, ["controller", rest @ ..]) => {
                cfg.controllers.push(rest.join(" "));
            }
            (false, ["interface", "system"]) => {
                cfg.interfaces.push(ParsedIface {
                    name: "system".to_owned(),
                    ip: None,
                    link_to: None,
                });
                cur_iface = Some(cfg.interfaces.len() - 1);
            }
            (false, ["interface", name]) => {
                if name.starts_with("Multilink") {
                    cfg.bundles.push(((*name).to_owned(), Vec::new()));
                    cur_bundle = Some(cfg.bundles.len() - 1);
                } else {
                    cfg.interfaces.push(ParsedIface {
                        name: (*name).to_owned(),
                        ip: None,
                        link_to: None,
                    });
                    cur_iface = Some(cfg.interfaces.len() - 1);
                }
            }
            (false, ["port", name]) => {
                cfg.interfaces.push(ParsedIface {
                    name: (*name).to_owned(),
                    ip: None,
                    link_to: None,
                });
                cur_iface = Some(cfg.interfaces.len() - 1);
            }
            (false, ["router", ..]) => { /* bgp block follows, neighbors indented */ }
            (false, ["mpls", "lsp", name, "to", _to, "path", routers @ ..]) => {
                cfg.lsps.push((
                    (*name).to_owned(),
                    routers.iter().map(|r| (*r).to_owned()).collect(),
                ));
            }
            (false, ["pim", "neighbor", peer, "primary", iface, "secondary-lsp", lsp]) => {
                cfg.pim
                    .push(((*peer).to_owned(), (*iface).to_owned(), (*lsp).to_owned()));
            }
            (true, ["ip", "address", addr, _mask]) => {
                if let Some(i) = cur_iface {
                    cfg.interfaces[i].ip = Some((*addr).to_owned());
                } else if let Some(b) = cur_bundle {
                    let _ = b; // bundle addresses are not locations of their own
                }
            }
            (true, ["address", addr]) => {
                if let Some(i) = cur_iface {
                    let bare = addr.split('/').next().unwrap_or(addr);
                    cfg.interfaces[i].ip = Some(bare.to_owned());
                }
            }
            (true, ["no", "ip", "address"]) => {}
            (true, ["description", rest @ ..]) => {
                if let Some(i) = cur_iface {
                    let joined = rest.join(" ");
                    let cleaned = joined.trim_matches('"');
                    if let Some(tail) = cleaned.strip_prefix("link to ") {
                        if let Some((r, ifn)) = tail.split_once(' ') {
                            cfg.interfaces[i].link_to = Some((r.to_owned(), ifn.to_owned()));
                        }
                    }
                }
            }
            (true, ["multilink-group", "member", name]) => {
                if let Some(b) = cur_bundle {
                    cfg.bundles[b].1.push((*name).to_owned());
                }
            }
            (true, ["neighbor", addr, ..]) => {
                cfg.bgp_neighbors
                    .push(((*addr).to_owned(), cur_vrf.clone()));
            }
            (true, ["address-family", "ipv4", "vrf", vrf]) => {
                cur_vrf = Some((*vrf).to_owned());
            }
            (true, ["vrf", vrf, "neighbor", addr]) => {
                cfg.bgp_neighbors
                    .push(((*addr).to_owned(), Some((*vrf).to_owned())));
            }
            _ => {}
        }
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    const V1_SAMPLE: &str = "\
hostname cr1.nyc
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
 description link to cr2.chi Serial1/0.20/20:0
!
interface Multilink1
 ip address 10.9.0.1 255.255.255.252
 multilink-group member Serial1/0
 multilink-group member Serial1/1
!
router bgp 65000
 neighbor 10.255.0.2 remote-as 65000
 address-family ipv4 vrf 1000:1001
  neighbor 10.0.0.2 remote-as 65001
!
mpls lsp LSP-a-b-sec to cr2.chi path cr1.nyc cr3.dal cr2.chi
pim neighbor cr2.chi primary Serial1/0.10/10:0 secondary-lsp LSP-a-b-sec
";

    #[test]
    fn v1_config_parses_fully() {
        let c = parse_config(V1_SAMPLE);
        assert_eq!(c.hostname, "cr1.nyc");
        assert_eq!(c.state.as_deref(), Some("NY"));
        assert_eq!(c.controllers, vec!["T3 1/0/0"]);
        assert_eq!(c.interfaces.len(), 3);
        assert_eq!(c.interfaces[0].name, "Loopback0");
        assert_eq!(c.interfaces[0].ip.as_deref(), Some("10.255.0.1"));
        assert_eq!(c.interfaces[1].ip, None);
        assert_eq!(
            c.interfaces[2].link_to,
            Some(("cr2.chi".to_owned(), "Serial1/0.20/20:0".to_owned()))
        );
        assert_eq!(c.bundles.len(), 1);
        assert_eq!(c.bundles[0].1, vec!["Serial1/0", "Serial1/1"]);
        assert_eq!(c.bgp_neighbors.len(), 2);
        assert_eq!(c.bgp_neighbors[0], ("10.255.0.2".to_owned(), None));
        assert_eq!(
            c.bgp_neighbors[1],
            ("10.0.0.2".to_owned(), Some("1000:1001".to_owned()))
        );
        assert_eq!(c.lsps.len(), 1);
        assert_eq!(c.lsps[0].1, vec!["cr1.nyc", "cr3.dal", "cr2.chi"]);
        assert_eq!(c.pim.len(), 1);
    }

    const V2_SAMPLE: &str = "\
system name ra.nyc
system location nyc NY
#
interface system
 address 10.255.0.9/32
#
port 1/1/1
 address 10.0.0.5/30
 description \"link to rb.chi 0/1/2\"
#
router bgp
 neighbor 10.255.0.10
 vrf 1000:1002 neighbor 10.0.0.6
#
";

    #[test]
    fn v2_config_parses_fully() {
        let c = parse_config(V2_SAMPLE);
        assert_eq!(c.hostname, "ra.nyc");
        assert_eq!(c.interfaces.len(), 2);
        assert_eq!(c.interfaces[0].name, "system");
        assert_eq!(c.interfaces[0].ip.as_deref(), Some("10.255.0.9"));
        assert_eq!(c.interfaces[1].name, "1/1/1");
        assert_eq!(c.interfaces[1].ip.as_deref(), Some("10.0.0.5"));
        assert_eq!(
            c.interfaces[1].link_to,
            Some(("rb.chi".to_owned(), "0/1/2".to_owned()))
        );
        assert_eq!(c.bgp_neighbors.len(), 2);
        assert_eq!(
            c.bgp_neighbors[1],
            ("10.0.0.6".to_owned(), Some("1000:1002".to_owned()))
        );
    }

    #[test]
    fn empty_and_garbage_configs_do_not_panic() {
        assert_eq!(parse_config("").hostname, "");
        let c = parse_config("random junk\n  more junk\n!!!\n");
        assert_eq!(c.interfaces.len(), 0);
    }
}
