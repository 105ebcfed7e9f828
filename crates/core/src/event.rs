//! Network events and their presentation (§4.2.4): one well-formatted
//! line per event — start/end timestamps, the most common highest-level
//! location per router, an informative event-type label, and the raw
//! message indices for drill-down.

use crate::knowledge::DomainKnowledge;
use crate::priority::FREQ_FLOOR;
use crate::provenance::{CloseReason, EventProvenance, GroupProv};
use sd_model::{LocationId, LocationLevel, RouterId, SyslogPlus, TemplateId, Timestamp};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

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
    GroupSummary::of(k, batch, members).event(k, score)
}

/// A router's lowest location depth seen and the member count per
/// location at that depth (empty before any location).
type RouterLocations = (u8, Vec<(LocationId, u64)>);
/// A §4.2.4 score term: `(router, template, location level)`.
type ScoreTerm = (RouterId, Option<TemplateId>, Option<LocationLevel>);

/// The one fold over a group's members: all that its event line, score
/// and provenance record read. Counts are small `Vec`s sorted by key, so
/// the summary, its score bits and its checkpoint bytes do not depend on
/// the order members were folded in, except for `members` itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct GroupSummary {
    /// Member indices (`SyslogPlus::idx`) in fold order.
    pub(crate) members: Vec<usize>,
    /// Earliest member timestamp.
    start: Timestamp,
    /// Latest member timestamp (drives stream closure).
    pub(crate) end: Timestamp,
    /// Location counts per router, sorted by router.
    routers: Vec<(RouterId, RouterLocations)>,
    /// Member count per template, sorted by template.
    templates: Vec<(TemplateId, u64)>,
    /// Member count per score term, sorted by term.
    terms: Vec<(ScoreTerm, u64)>,
    /// Link counts per grouping stage (provenance only).
    pub(crate) links: GroupProv,
}

impl Default for GroupSummary {
    /// The empty fold: its span is inverted, so the first member sets it.
    fn default() -> Self {
        GroupSummary {
            members: Vec::new(),
            start: Timestamp(i64::MAX),
            end: Timestamp(i64::MIN),
            routers: Vec::new(),
            templates: Vec::new(),
            terms: Vec::new(),
            links: GroupProv::default(),
        }
    }
}

/// The value under `key` in a `Vec` of pairs sorted by key, inserted as
/// the default when absent.
pub(crate) fn sorted_entry<K: Ord, V: Default>(v: &mut Vec<(K, V)>, key: K) -> &mut V {
    let i = v
        .binary_search_by(|(k, _)| k.cmp(&key))
        .unwrap_or_else(|i| {
            v.insert(i, (key, V::default()));
            i
        });
    &mut v[i].1
}

/// Add the counts of `from` into `into`, both sorted by key.
pub(crate) fn add_counts<K: Ord>(
    into: &mut Vec<(K, u64)>,
    from: impl IntoIterator<Item = (K, u64)>,
) {
    for (key, n) in from {
        *sorted_entry(into, key) += n;
    }
}

/// Count `n` members at `loc` (of `depth`) into a router's locations,
/// keeping only the highest level: "if the event contains one message on
/// the router level and another on the interface level, we only show the
/// router".
fn count_location(best: &mut RouterLocations, depth: u8, loc: LocationId, n: u64) {
    if best.1.is_empty() || depth < best.0 {
        *best = (depth, Vec::new());
    }
    if depth == best.0 {
        *sorted_entry(&mut best.1, loc) += n;
    }
}

impl GroupSummary {
    /// Fold the batch messages at `members`, in order.
    pub(crate) fn of(k: &DomainKnowledge, batch: &[SyslogPlus], members: &[usize]) -> Self {
        let mut s = GroupSummary::default();
        for &i in members {
            s.add(k, &batch[i]);
        }
        s
    }

    /// Fold one member in.
    pub(crate) fn add(&mut self, k: &DomainKnowledge, sp: &SyslogPlus) {
        self.members.push(sp.idx);
        self.start = self.start.min(sp.ts);
        self.end = self.end.max(sp.ts);
        let loc = sp.primary_location().map(|l| (l, k.dict.info(l).level));
        let best = sorted_entry(&mut self.routers, sp.router);
        if let Some((loc, level)) = loc {
            count_location(best, level.depth(), loc, 1);
        }
        if let Some(t) = sp.template {
            *sorted_entry(&mut self.templates, t) += 1;
        }
        let term = (sp.router, sp.template, loc.map(|(_, level)| level));
        *sorted_entry(&mut self.terms, term) += 1;
    }

    /// Fold another group in (two groups union).
    pub(crate) fn absorb(&mut self, other: GroupSummary) {
        self.members.extend(other.members);
        self.start = self.start.min(other.start);
        self.end = self.end.max(other.end);
        for (router, (depth, counts)) in other.routers {
            let best = sorted_entry(&mut self.routers, router);
            for (loc, n) in counts {
                count_location(best, depth, loc, n);
            }
        }
        add_counts(&mut self.templates, other.templates);
        add_counts(&mut self.terms, other.terms);
        self.links.absorb(&other.links);
    }

    /// `Σ n × l / log(max(f, floor))` over the group's score terms, each
    /// counted `n` times, summed in term order: the score does not depend
    /// on the order members were folded in, so batch and stream agree to
    /// the bit.
    pub(crate) fn score(&self, k: &DomainKnowledge) -> f64 {
        self.terms
            .iter()
            .map(|&((router, template, level), n)| {
                let l = level.map_or(1.0, LocationLevel::weight);
                let f = template.map_or(1.0, |t| k.frequency(router, t) as f64);
                n as f64 * l / f.max(FREQ_FLOOR.max(2.0)).ln()
            })
            .sum()
    }

    /// The group's event with `score` and id 0: one signature per
    /// template, one name per router.
    pub(crate) fn event(&self, k: &DomainKnowledge, score: f64) -> NetworkEvent {
        let mut message_idxs = self.members.clone();
        message_idxs.sort_unstable();
        let signature = |&(t, _): &(TemplateId, u64)| k.template_signature(t);
        let mut signatures: Vec<String> = self.templates.iter().map(signature).collect();
        signatures.sort();
        signatures.dedup();
        let parts: Vec<String> = self
            .routers
            .iter()
            .map(|(r, (_, counts))| {
                let rname = k.dict.routers.resolve(r.0);
                // The most common location; ties go to the smallest id.
                match counts.iter().max_by_key(|&&(l, n)| (n, Reverse(l))) {
                    None => rname.to_owned(),
                    Some(&(loc, _)) => render_location(k, rname, loc),
                }
            })
            .collect();
        NetworkEvent {
            id: 0,
            start: self.start,
            end: self.end,
            score,
            routers: self.routers.iter().map(|&(r, _)| r).collect(),
            location_summary: parts.join(" "),
            label: label_for(&signatures),
            signatures,
            message_idxs,
        }
    }

    /// The provenance record of the group's event, closed by `closed_by`;
    /// its `event_id` is left 0 for the caller to set.
    pub(crate) fn provenance(
        &self,
        k: &DomainKnowledge,
        closed_by: CloseReason,
        idle_gap_secs: Option<i64>,
        idle_close_secs: Option<i64>,
    ) -> EventProvenance {
        let mut routers: Vec<String> = self
            .routers
            .iter()
            .map(|(r, _)| k.dict.routers.resolve(r.0).to_owned())
            .collect();
        routers.sort();
        let templates = self
            .templates
            .iter()
            .map(|&(t, n)| (t.0, k.template_signature(t), n))
            .collect();
        let signature = |t: u32| k.template_signature(TemplateId(t));
        let rule_signatures = self
            .links
            .rules
            .iter()
            .map(|&((a, b), _)| (signature(a), signature(b)))
            .collect();
        EventProvenance {
            event_id: 0,
            n_messages: self.members.len(),
            routers,
            templates,
            links: self.links.clone(),
            rule_signatures,
            closed_by,
            idle_gap_secs,
            idle_close_secs,
        }
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
pub(crate) fn label_for(signatures: &[String]) -> String {
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use sd_model::{ErrorCode, Parallelism, RawMessage};
    use sd_netsim::config::render_all;
    use sd_netsim::{toy_table2_messages, toy_topology};
    use sd_netsim::{Dataset, DatasetSpec};
    use sd_telemetry::Telemetry;
    use std::sync::OnceLock;

    /// Knowledge and the augmented online batch of a small dataset A.
    fn fixture() -> &'static (DomainKnowledge, Vec<SyslogPlus>) {
        static FIXTURE: OnceLock<(DomainKnowledge, Vec<SyslogPlus>)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08), &Telemetry::disabled());
            let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
            let online = d.online();
            let (batch, _) = augment_batch_isolated(&k, online, Parallelism::sequential()).split();
            (k, batch)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A summary is a function of its member set: folding the members
        /// in shuffled runs and absorbing the runs through a random merge
        /// tree gives the event, and the score bits, of the in-order fold.
        #[test]
        fn summary_does_not_depend_on_fold_order_or_merge_tree(
            seed in 0u64..u64::MAX,
            size in 1usize..400,
            one_router in 0u8..2,
        ) {
            let (k, batch) = fixture();
            let mut rng = StdRng::seed_from_u64(seed);
            // Half the subsets come from one router, whose members then
            // mix location levels.
            let router = batch[rng.gen_range(0..batch.len())].router;
            let pool: Vec<usize> = (0..batch.len())
                .filter(|&i| one_router == 0 || batch[i].router == router)
                .collect();
            let mut members: Vec<usize> = (0..size)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            members.sort_unstable();
            members.dedup();
            let whole = GroupSummary::of(k, batch, &members);

            members.shuffle(&mut rng);
            let mut parts = Vec::new();
            let mut rest = &members[..];
            while !rest.is_empty() {
                let n = rng.gen_range(1..rest.len().min(16) + 1);
                parts.push(GroupSummary::of(k, batch, &rest[..n]));
                rest = &rest[n..];
            }
            while parts.len() > 1 {
                let child = parts.swap_remove(rng.gen_range(0..parts.len()));
                let root = rng.gen_range(0..parts.len());
                parts[root].absorb(child);
            }
            let tree = parts.pop().expect("one group remains");

            prop_assert_eq!(whole.score(k).to_bits(), tree.score(k).to_bits());
            let event = |s: &GroupSummary| serde_json::to_string(&s.event(k, s.score(k))).unwrap();
            prop_assert_eq!(event(&whole), event(&tree));
        }
    }

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
