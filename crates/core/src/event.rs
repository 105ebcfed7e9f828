//! Network events and their presentation (§4.2.4): one well-formatted
//! line per event — start/end timestamps, the most common highest-level
//! location per router, an informative event-type label, and the raw
//! message indices for drill-down.

use crate::knowledge::DomainKnowledge;
use sd_model::{LocationId, RouterId, SyslogPlus, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One digested network event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkEvent {
    /// Stable event id: the 1-based presentation rank in a batch digest,
    /// or the emission sequence number in a stream (checkpointed, so ids
    /// never repeat across resume). 0 only on events built directly via
    /// [`build_event`]. `sdigest explain <id>` keys provenance on this.
    #[serde(default)]
    pub id: u64,
    /// Earliest member timestamp.
    pub start: Timestamp,
    /// Latest member timestamp.
    pub end: Timestamp,
    /// §4.2.4 priority score.
    pub score: f64,
    /// Involved routers (sorted by id).
    pub routers: Vec<RouterId>,
    /// Per-router presented location text, e.g. `r1 Interface Serial1/0…`.
    pub location_summary: String,
    /// Event-type label (auto-derived; a domain expert may rename).
    pub label: String,
    /// Distinct template signatures present.
    pub signatures: Vec<String>,
    /// Indices of the member messages in the *raw* input batch, for
    /// retrieval (the paper's "index field").
    pub message_idxs: Vec<usize>,
}

impl NetworkEvent {
    /// The paper's one-line presentation:
    /// `start|end|locations|label`.
    pub fn format_line(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.start, self.end, self.location_summary, self.label
        )
    }

    /// Number of raw messages folded into this event.
    pub fn size(&self) -> usize {
        self.message_idxs.len()
    }
}

/// Build an event from one group of batch indices.
pub fn build_event(
    k: &DomainKnowledge,
    batch: &[SyslogPlus],
    members: &[usize],
    score: f64,
) -> NetworkEvent {
    let mut start = Timestamp(i64::MAX);
    let mut end = Timestamp(i64::MIN);
    let mut routers: Vec<RouterId> = Vec::new();
    // Per router: location counts at the *highest* level present (lowest
    // depth) — "if the event contains one message on the router level and
    // another on the interface level, we only show the router".
    let mut best: HashMap<u32, (u8, HashMap<LocationId, usize>)> = HashMap::new();
    let mut signatures: Vec<String> = Vec::new();
    let mut message_idxs = Vec::with_capacity(members.len());

    for &i in members {
        let sp = &batch[i];
        start = start.min(sp.ts);
        end = end.max(sp.ts);
        message_idxs.push(sp.idx);
        if !routers.contains(&sp.router) {
            routers.push(sp.router);
        }
        if let Some(t) = sp.template {
            let sig = k.template_signature(t);
            if !signatures.contains(&sig) {
                signatures.push(sig);
            }
        }
        if let Some(loc) = sp.primary_location() {
            let depth = k.dict.info(loc).level.depth();
            let entry = best.entry(sp.router.0).or_insert((u8::MAX, HashMap::new()));
            if depth < entry.0 {
                entry.0 = depth;
                entry.1.clear();
            }
            if depth == entry.0 {
                *entry.1.entry(loc).or_insert(0) += 1;
            }
        }
    }
    routers.sort_unstable();
    message_idxs.sort_unstable();
    signatures.sort();

    let mut parts: Vec<String> = Vec::new();
    for r in &routers {
        let rname = k.dict.routers.resolve(r.0);
        match best.get(&r.0) {
            None => parts.push(rname.to_owned()),
            Some((_, counts)) => {
                let loc = counts
                    .iter()
                    .max_by_key(|(l, c)| (**c, std::cmp::Reverse(l.0)))
                    .map(|(l, _)| *l)
                    .expect("nonempty");
                parts.push(render_location(k, rname, loc));
            }
        }
    }

    NetworkEvent {
        id: 0,
        start,
        end,
        score,
        routers,
        location_summary: parts.join(" "),
        label: label_for(&signatures),
        signatures,
        message_idxs,
    }
}

/// Render one location with its router prefix, mirroring the paper's
/// `r1 Interface Serial1/0.10/10:0` style.
fn render_location(k: &DomainKnowledge, rname: &str, loc: LocationId) -> String {
    use sd_model::LocationLevel as L;
    let info = k.dict.info(loc);
    match info.level {
        L::Router => rname.to_owned(),
        L::Slot | L::Port => format!("{rname} {}", info.name),
        L::PhysInterface | L::LogInterface => format!("{rname} Interface {}", info.name),
        L::Bundle => format!("{rname} Bundle {}", info.name),
        L::Path => format!("{rname} Path {}", info.name),
    }
}

/// Derive an operator-facing event label from the member signatures.
/// Heuristic but vendor-neutral: driven by error-code facilities and the
/// state words surviving in the masked signatures.
pub fn label_for(signatures: &[String]) -> String {
    let mut labels: Vec<&str> = Vec::new();
    let has = |needle: &str| signatures.iter().any(|s| s.contains(needle));
    fn add<'a>(l: &'a str, labels: &mut Vec<&'a str>) {
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    if has("LINK-3-UPDOWN") && has("state to down") && has("state to up") {
        add("link flap", &mut labels);
    } else if has("LINK-3-UPDOWN") {
        add("link state change", &mut labels);
    }
    if has("LINEPROTO") && has("state to down") && has("state to up") {
        add("line protocol flap", &mut labels);
    }
    if has("CONTROLLER") {
        add("controller flap", &mut labels);
    }
    if has("SNMP-WARNING-linkDown") && has("SNMP-WARNING-linkup") {
        add("port flap", &mut labels);
    } else if has("SNMP-WARNING-linkDown") {
        add("port down", &mut labels);
    }
    if has("sapPortStateChange") {
        add("sap state change", &mut labels);
    }
    if has("BGP") {
        add("bgp adjacency change", &mut labels);
    }
    if has("OSPF") {
        add("ospf adjacency change", &mut labels);
    }
    if has("pimNeighbor") || has("PIM") {
        add("pim neighbor change", &mut labels);
    }
    if has("CPU") {
        add("cpu threshold", &mut labels);
    }
    if has("lsp") || has("frr") || has("LSP") {
        add("mpls path change", &mut labels);
    }
    if has("LCDOWN") || has("LCUP") || has("cardFailure") {
        add("linecard failure", &mut labels);
    }
    if has("LoginFailed") || has("loginFailed") || has("Login failed") || has("login failed") {
        add("login failures", &mut labels);
    }
    if has("ENVMON") || has("tempThreshold") || has("Temperature") {
        add("environmental alarm", &mut labels);
    }
    if has("CONFIG_I") || has("configModify") {
        add("configuration change", &mut labels);
    }
    if has("BADAUTH") || has("AUTHFAIL") || has("authenticationFailure") {
        add("authentication failures", &mut labels);
    }
    if has("svcStatusChanged") {
        add("service state change", &mut labels);
    }
    if labels.is_empty() {
        // Fall back to the facility of the first signature.
        let fac = signatures
            .first()
            .and_then(|s| s.split(['-', ' ']).next())
            .unwrap_or("unknown");
        return format!("{} events", fac.to_lowercase());
    }
    labels.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::augment_batch_isolated;
    use crate::grouping::{group, GroupingConfig};
    use crate::offline::{learn, OfflineConfig};
    use crate::priority::score_group;
    use sd_model::{ErrorCode, Parallelism, RawMessage};
    use sd_netsim::config::render_all;
    use sd_netsim::scenario::{toy_table2_messages, toy_topology};

    fn toy_event() -> NetworkEvent {
        let topo = toy_topology();
        let configs = render_all(&topo);
        let mut train = Vec::new();
        for i in 0..25 {
            for state in ["down", "up"] {
                train.push(RawMessage::new(
                    Timestamp(i * 40),
                    if i % 2 == 0 { "r1" } else { "r2" },
                    ErrorCode::from("LINK-3-UPDOWN"),
                    format!("Interface Serial9/{i}.10/1:0, changed state to {state}"),
                ));
                train.push(RawMessage::new(
                    Timestamp(i * 40 + 1),
                    if i % 2 == 0 { "r1" } else { "r2" },
                    ErrorCode::from("LINEPROTO-5-UPDOWN"),
                    format!(
                        "Line protocol on Interface Serial9/{i}.10/1:0, changed state to {state}"
                    ),
                ));
            }
        }
        sd_model::sort_batch(&mut train);
        let mut cfg = OfflineConfig::dataset_a();
        cfg.mine.sp_min = 0.0001;
        let k = learn(&configs, &train, &cfg);
        let raw = toy_table2_messages();
        let (batch, _) = augment_batch_isolated(&k, &raw, Parallelism::sequential()).split();
        let res = group(&k, &batch, &GroupingConfig::default());
        assert_eq!(res.n_groups, 1);
        let members: Vec<usize> = (0..batch.len()).collect();
        let score = score_group(&k, &batch, &members);
        build_event(&k, &batch, &members, score)
    }

    /// The presentation of Table 2 per §3.2: both interfaces named, window
    /// 00:00:00 – 00:00:31, flap labels.
    #[test]
    fn toy_event_presents_like_the_paper() {
        let ev = toy_event();
        assert_eq!(ev.start.to_string(), "2010-01-10 00:00:00");
        assert_eq!(ev.end.to_string(), "2010-01-10 00:00:31");
        assert_eq!(ev.size(), 16);
        assert_eq!(ev.routers.len(), 2);
        assert!(
            ev.location_summary
                .contains("r1 Interface Serial1/0.10/10:0"),
            "summary: {}",
            ev.location_summary
        );
        assert!(
            ev.location_summary
                .contains("r2 Interface Serial1/0.20/20:0"),
            "summary: {}",
            ev.location_summary
        );
        assert!(ev.label.contains("link flap"), "label: {}", ev.label);
        assert!(
            ev.label.contains("line protocol flap"),
            "label: {}",
            ev.label
        );
        let line = ev.format_line();
        assert!(
            line.starts_with("2010-01-10 00:00:00|2010-01-10 00:00:31|"),
            "{line}"
        );
    }

    #[test]
    fn labels_cover_common_signatures() {
        assert_eq!(
            label_for(&[
                "SNMP-WARNING-linkDown Interface * is not operational".into(),
                "SNMP-WARNING-linkup Interface * is operational".into(),
            ]),
            "port flap"
        );
        assert!(
            label_for(&["BGP-5-ADJCHANGE neighbor * vpn vrf * Up".into()])
                .contains("bgp adjacency change")
        );
        assert_eq!(
            label_for(&["WEIRD-1-THING something".into()]),
            "weird events"
        );
        assert_eq!(label_for(&[]), "unknown events");
    }

    #[test]
    fn extended_labels() {
        assert_eq!(
            label_for(&[
                "ENVMON-2-TEMPHIGH Temperature sensor on slot * reading * C exceeds threshold"
                    .into()
            ]),
            "environmental alarm"
        );
        assert_eq!(
            label_for(&["SYS-5-CONFIG_I Configured from console by * on vty0 *".into()]),
            "configuration change"
        );
        assert_eq!(
            label_for(&["TCP-6-BADAUTH Invalid MD5 digest from * to *".into()]),
            "authentication failures"
        );
        assert_eq!(
            label_for(&[
                "SVCMGR-MAJOR-svcStatusChanged Status of service * changed to operState down"
                    .into()
            ]),
            "service state change"
        );
        assert!(label_for(&[
            "SECURITY-WARNING-ftpLoginFailed FTP login failed for user * from host *".into()
        ])
        .contains("login failures"));
    }
}
