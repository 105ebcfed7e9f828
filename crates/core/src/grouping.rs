//! The three grouping stages (§4.2.1–§4.2.3), implemented once in
//! `Stages` and driven by the stream digester, the engine behind `digest`.
//! The batch pass here fuses their links through a union-find, so the
//! stage order cannot change the result.

use crate::knowledge::DomainKnowledge;
use crate::provenance::MergeCause;
use crate::union_find::UnionFind;
use sd_model::{LocationId, Parallelism, SyslogPlus, Timestamp};
use sd_temporal::EwmaTracker;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// Which stages to run (Table 7 compares T, T+R, T+R+C).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GroupingConfig {
    /// Temporal grouping (same template + location + router).
    pub temporal: bool,
    /// Rule-based grouping (different templates, same router, spatial
    /// match, within W).
    pub rules: bool,
    /// Cross-router grouping (same template, connected locations, ~1 s).
    pub cross: bool,
    /// Ignored: augmentation and grouping are one sequential pass.
    /// Checkpoints leave it out.
    #[serde(skip)]
    pub par: Parallelism,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        GroupingConfig {
            temporal: true,
            rules: true,
            cross: true,
            par: Parallelism::sequential(),
        }
    }
}

impl GroupingConfig {
    /// Temporal stage only.
    pub fn t_only() -> Self {
        GroupingConfig {
            rules: false,
            cross: false,
            ..Self::default()
        }
    }

    /// Temporal + rule-based.
    pub fn t_r() -> Self {
        GroupingConfig {
            cross: false,
            ..Self::default()
        }
    }
}

/// Result of grouping one batch.
#[derive(Debug, Clone)]
pub struct GroupingResult {
    /// Group index per batch element (dense, by first appearance).
    pub group_of: Vec<usize>,
    /// Number of groups.
    pub n_groups: usize,
}

impl GroupingResult {
    /// Member batch-indices per group.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_groups];
        for (i, &g) in self.group_of.iter().enumerate() {
            out[g].push(i);
        }
        out
    }
}

/// Cross-router simultaneity window in seconds (§4.2.3: 1 s).
pub const CROSS_WINDOW_SECS: i64 = 1;

/// Most messages the cross-router stage keeps per template; beyond it the
/// oldest falls out of the lookback even inside the window. Bounds the
/// per-message scan under a simultaneity storm. Every pass shares it;
/// only the reference oracle in `sd-conformance` is uncapped.
const CROSS_QUEUE_CAP: usize = 1024;

/// The rule stage's lookback for one `(router, partner slot)`: the latest
/// `(location, id, ts)` per location, within W once the stage has passed.
type RuleLookback = Vec<(u32, u64, Timestamp)>;

/// State and per-message step of the three grouping stages, driven by the
/// [`StreamDigester`](crate::StreamDigester) and by the batch pass behind
/// [`group`] and [`stage_edges`] (the composed and conformance seams).
///
/// Messages must arrive in time order. Ids are the caller's: batch indices
/// in batch, sequence numbers in the stream. Each step appends the links
/// `(earlier id, cause)` from the current message to a caller-owned list.
/// The stream digester checkpoints it as it is.
///
/// Every lookback is reached by dense ids the knowledge minted (location,
/// router, partner slot, template), never by hashing a key.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub(crate) struct Stages {
    /// §4.2.1: EWMA tracker and last id per (router, template, location).
    trackers: Trackers,
    /// §4.2.2: rule lookback per router and partner slot, at
    /// `router * RuleSet::n_slots() + slot`.
    recent_rules: Vec<RuleLookback>,
    /// §4.2.3: recent `(id, ts)` per template, oldest first, at the
    /// template id plus one (wrapping, so the unknown template is 0).
    recent_cross: Vec<VecDeque<(u64, Timestamp)>>,
}

impl Stages {
    /// The per-message step: run the stages `cfg` enables on message `sp`
    /// and append its links `(earlier id, cause)` to `links`. `lookup`
    /// resolves an earlier id to its message for the cross-router stage.
    pub(crate) fn step<'a>(
        &mut self,
        k: &DomainKnowledge,
        cfg: &GroupingConfig,
        sp: &SyslogPlus,
        id: u64,
        lookup: impl Fn(u64) -> Option<&'a SyslogPlus>,
        links: &mut Vec<(u64, MergeCause)>,
    ) {
        if cfg.temporal {
            self.temporal(k, sp, id, links);
        }
        if cfg.rules {
            self.rule(k, sp, id, links);
        }
        if cfg.cross {
            self.cross(k, sp, id, lookup, links);
        }
    }

    /// Temporal stage: link to the previous message of the same (router,
    /// template, location) series unless its tracker starts a new group.
    fn temporal(
        &mut self,
        k: &DomainKnowledge,
        sp: &SyslogPlus,
        id: u64,
        links: &mut Vec<(u64, MergeCause)>,
    ) {
        let (router, template, location) = tkey(sp);
        let series = self.trackers.at(router, location);
        match series.binary_search_by_key(&(router, template), |s| s.0) {
            Err(i) => {
                let mut tr = EwmaTracker::new();
                tr.observe(sp.ts, &k.temporal);
                series.insert(i, ((router, template), (tr, id)));
            }
            Ok(i) => {
                let (tr, last) = &mut series[i].1;
                if !tr.observe(sp.ts, &k.temporal) {
                    links.push((*last, MergeCause::Temporal));
                }
                *last = id;
            }
        }
    }

    /// Place the series a checkpoint named in the tables, once each id
    /// they name is one `k` minted: a router below the router count and a
    /// location below the location count. An id out of range fails before
    /// it sizes a table.
    pub(crate) fn place_series(&mut self, k: &DomainKnowledge) -> Result<(), String> {
        let (n_routers, n_locations) = (k.dict.routers.len(), k.dict.len());
        for ((router, template, location), value) in std::mem::take(&mut self.trackers.unplaced) {
            if router as usize >= n_routers
                || (location != u32::MAX && location as usize >= n_locations)
            {
                return Err(format!(
                    "temporal series ({router}, {template}, {location}) names an id \
                     the knowledge does not have ({n_routers} routers, {n_locations} locations)"
                ));
            }
            let series = self.trackers.at(router, location);
            match series.binary_search_by_key(&(router, template), |s| s.0) {
                Ok(i) => series[i].1 = value,
                Err(i) => series.insert(i, ((router, template), value)),
            }
        }
        Ok(())
    }

    /// Rule-based stage: link to each recent message of the same router
    /// within W whose template is related to this one by a mined rule and
    /// whose location spatially matches. Only templates with a rule
    /// partner are kept, and only the partners' lookbacks are scanned;
    /// entries older than W are dropped as the scan passes them.
    fn rule(
        &mut self,
        k: &DomainKnowledge,
        sp: &SyslogPlus,
        id: u64,
        links: &mut Vec<(u64, MergeCause)>,
    ) {
        let (Some(tj), Some(loc_j)) = (sp.template, sp.primary_location()) else {
            return;
        };
        let rules = &k.rules;
        let Some(slot) = rules.slot(tj) else { return };
        let (w, now) = (k.window_secs, sp.ts);
        let n = rules.n_slots();
        let row = sp.router.0 as usize * n;
        if self.recent_rules.len() < row + n {
            self.recent_rules.resize_with(row + n, Vec::new);
        }
        let lookback = &mut self.recent_rules[row..row + n];
        for &(partner, t2) in rules.partners(slot) {
            let cause = MergeCause::Rule(tj.0.min(t2.0), tj.0.max(t2.0));
            lookback[partner as usize].retain(|&(loc2, i2, ts2)| {
                let fresh = now.seconds_since(ts2) <= w;
                if fresh && k.dict.spatially_match(loc_j, LocationId(loc2)) {
                    links.push((i2, cause));
                }
                fresh
            });
        }
        let own = &mut lookback[slot];
        own.retain(|&(_, _, ts)| now.seconds_since(ts) <= w);
        match own.iter_mut().find(|e| e.0 == loc_j.0) {
            Some(e) => (e.1, e.2) = (id, now),
            None => own.push((loc_j.0, id, now)),
        }
    }

    /// Cross-router stage: link to each message of the same template on
    /// another router within [`CROSS_WINDOW_SECS`] whose locations are
    /// related. `lookup` resolves an earlier id to its message; ids it
    /// cannot resolve are skipped.
    fn cross<'a>(
        &mut self,
        k: &DomainKnowledge,
        sp: &SyslogPlus,
        id: u64,
        lookup: impl Fn(u64) -> Option<&'a SyslogPlus>,
        links: &mut Vec<(u64, MergeCause)>,
    ) {
        let Some(tj) = sp.template else { return };
        // Knowledge-minted ids are dense below UNKNOWN_TEMPLATE (u32::MAX),
        // which this shift moves to index 0.
        let t = tj.0.wrapping_add(1) as usize;
        if self.recent_cross.len() <= t {
            self.recent_cross.resize_with(t + 1, VecDeque::new);
        }
        let q = &mut self.recent_cross[t];
        while q
            .front()
            .is_some_and(|&(_, ts)| sp.ts.seconds_since(ts) > CROSS_WINDOW_SECS)
        {
            q.pop_front();
        }
        for &(i2, _) in q.iter() {
            let Some(other) = lookup(i2) else { continue };
            if other.router != sp.router && cross_related(k, sp, other) {
                links.push((i2, MergeCause::Cross));
            }
        }
        q.push_back((id, sp.ts));
        if q.len() > CROSS_QUEUE_CAP {
            q.pop_front();
        }
    }
}

/// A temporal series' EWMA tracker and the id of its latest message.
type Tracked = (EwmaTracker, u64);

/// A temporal series' `(router, template)` and what is tracked of it.
type Series = ((u32, u32), Tracked);

/// The §4.2.1 series, one per `(router, template, location)`, reached by
/// the dense ids the knowledge minted: a series with a primary location
/// sits at that location's id, one without at its router's id. Each entry
/// is a short list sorted by `(router, template)`, searched by bisection;
/// the router stays in the key because a primary location may belong to
/// another router.
///
/// A checkpoint holds the series as one `[key, value]` list in ascending
/// key order. The ids it names are checked against the knowledge before
/// any of them indexes a table ([`Stages::place_series`]).
#[derive(Debug, Default, Clone)]
struct Trackers {
    /// Located series, at the location id.
    located: Vec<Vec<Series>>,
    /// Locationless series, at the router id.
    unlocated: Vec<Vec<Series>>,
    /// Series read from a checkpoint and not yet placed in the tables.
    unplaced: Vec<((u32, u32, u32), Tracked)>,
}

impl Trackers {
    /// The list of series at `location`, or at `router` for none
    /// (`u32::MAX`), grown to hold it.
    fn at(&mut self, router: u32, location: u32) -> &mut Vec<Series> {
        let (table, at) = match location {
            u32::MAX => (&mut self.unlocated, router as usize),
            _ => (&mut self.located, location as usize),
        };
        if table.len() <= at {
            table.resize_with(at + 1, Vec::new);
        }
        &mut table[at]
    }
}

/// Every series as `[[router, template, location], [tracker, last id]]`
/// in ascending key order: the bytes checkpoints held while the series
/// lived in a hash map that serialized sorted by key.
impl Serialize for Trackers {
    fn to_value(&self) -> Value {
        let tables = [(&self.located, None), (&self.unlocated, Some(u32::MAX))];
        let mut all: Vec<((u32, u32, u32), &Tracked)> = tables
            .into_iter()
            .flat_map(|(table, location)| {
                table.iter().zip(0u32..).flat_map(move |(series, at)| {
                    let location = location.unwrap_or(at);
                    series
                        .iter()
                        .map(move |((r, t), v)| ((*r, *t, location), v))
                })
            })
            .chain(self.unplaced.iter().map(|(key, v)| (*key, v)))
            .collect();
        all.sort_unstable_by_key(|e| e.0);
        all.to_value()
    }
}

impl Deserialize for Trackers {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Trackers {
            unplaced: Vec::from_value(v)?,
            ..Trackers::default()
        })
    }
}

/// The batch driver: one pass over the time-sorted `batch` in index order,
/// handing each link `(earlier index, later index, cause)` to `sink` as
/// the step finds it.
fn for_each_link(
    k: &DomainKnowledge,
    batch: &[SyslogPlus],
    cfg: &GroupingConfig,
    mut sink: impl FnMut(usize, usize, MergeCause),
) {
    let mut stages = Stages::default();
    let mut links = Vec::new();
    let lookup = |i: u64| batch.get(i as usize);
    for (j, sp) in batch.iter().enumerate() {
        stages.step(k, cfg, sp, j as u64, lookup, &mut links);
        for (i, cause) in links.drain(..) {
            sink(i as usize, j, cause);
        }
    }
}

/// All union edges the configured stages produce over `batch`, in the
/// order the batch pass finds them, with the stage (and, for rules, the
/// undirected template pair) that caused each.
///
/// This is the conformance seam: [`group`] unions exactly these links,
/// found by the same pass, so a differential oracle that compares it against an
/// independently derived reference edge set can pinpoint the first
/// *decision* that differed (which two messages were linked, by which
/// stage) rather than only observing that two partitions disagree.
pub fn stage_edges(
    k: &DomainKnowledge,
    batch: &[SyslogPlus],
    cfg: &GroupingConfig,
) -> Vec<(usize, usize, MergeCause)> {
    let mut edges = Vec::new();
    for_each_link(k, batch, cfg, |a, b, cause| edges.push((a, b, cause)));
    edges
}

/// Group a time-sorted augmented batch: one sequential pass of the stages,
/// each link unioned as it is found, so no edge list is built. The
/// composed form of what [`digest`](crate::digest) groups.
pub fn group(k: &DomainKnowledge, batch: &[SyslogPlus], cfg: &GroupingConfig) -> GroupingResult {
    let mut uf = UnionFind::new(batch.len());
    for_each_link(k, batch, cfg, |a, b, _| {
        uf.union(a, b);
    });
    let (group_of, n_groups) = uf.groups();
    GroupingResult { group_of, n_groups }
}

/// The §4.2.1 series key `(router, template, location)`, `u32::MAX` for a
/// missing part.
pub(crate) fn tkey(sp: &SyslogPlus) -> (u32, u32, u32) {
    (
        sp.router.0,
        sp.template.map(|t| t.0).unwrap_or(u32::MAX),
        sp.primary_location().map(|l| l.0).unwrap_or(u32::MAX),
    )
}

/// §4.2.3 relatedness: the two messages reference the same location (a
/// shared LSP path or each other's elements) or locations that are the two
/// ends of one link.
fn cross_related(k: &DomainKnowledge, a: &SyslogPlus, b: &SyslogPlus) -> bool {
    for &x in a.locations.iter() {
        for &y in b.locations.iter() {
            if x == y || k.dict.cross_router_related(x, y) {
                return true;
            }
            // A remote reference (e.g. the neighbor's loopback behind an
            // IP) spatially matching the other side's own location.
            if k.dict.router_of(x) == k.dict.router_of(y) && k.dict.spatially_match(x, y) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::augment_batch_isolated;
    use crate::offline::{learn, OfflineConfig};
    use sd_model::{ErrorCode, RawMessage, Timestamp};
    use sd_netsim::config::render_all;
    use sd_netsim::{toy_table2_messages, toy_topology};

    /// Training data that teaches the four Table 2 templates with masked
    /// interfaces: the toy flaps replayed over many synthetic interfaces.
    fn toy_training() -> Vec<RawMessage> {
        let mut train = Vec::new();
        for i in 0..25 {
            for (code, detail, state) in [
                ("LINK-3-UPDOWN", "Interface", "down"),
                ("LINK-3-UPDOWN", "Interface", "up"),
            ] {
                train.push(RawMessage::new(
                    Timestamp(i * 40),
                    if i % 2 == 0 { "r1" } else { "r2" },
                    ErrorCode::from(code),
                    format!("{detail} Serial9/{i}.10/1:0, changed state to {state}"),
                ));
            }
            for state in ["down", "up"] {
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
        train
    }

    fn toy_knowledge() -> DomainKnowledge {
        let topo = toy_topology();
        let configs = render_all(&topo);
        // Rule mining over the training flaps (LINK and LINEPROTO co-occur
        // within seconds).
        let mut cfg = OfflineConfig::dataset_a();
        cfg.mine.sp_min = 0.0001;
        learn(&configs, &toy_training(), &cfg)
    }

    /// The paper's running example: 16 messages; temporal grouping alone
    /// gives the four per-(template, location) groups, adding rules merges
    /// per router, adding cross-router yields the single network event.
    #[test]
    fn table2_toy_groups_exactly_as_paper_describes() {
        let k = toy_knowledge();
        let raw = toy_table2_messages();
        let (batch, dropped) = augment_batch_isolated(&k, &raw, Parallelism::sequential()).split();
        assert_eq!(dropped, 0);
        assert_eq!(batch.len(), 16);

        let t = group(&k, &batch, &GroupingConfig::t_only());
        assert_eq!(t.n_groups, 8, "T: per (router, template, location)");

        let tr = group(&k, &batch, &GroupingConfig::t_r());
        assert_eq!(tr.n_groups, 2, "T+R: one group per router");
        let edges = stage_edges(&k, &batch, &GroupingConfig::t_r());
        assert!(edges.iter().any(|e| matches!(e.2, MergeCause::Rule(..))));

        let trc = group(&k, &batch, &GroupingConfig::default());
        assert_eq!(trc.n_groups, 1, "T+R+C: the single network event");
    }

    #[test]
    fn compression_improves_monotonically_with_stages() {
        let k = toy_knowledge();
        let raw = toy_table2_messages();
        let (batch, _) = augment_batch_isolated(&k, &raw, Parallelism::sequential()).split();
        // One batch for every stage set, so fewer groups is more compression.
        let rt = group(&k, &batch, &GroupingConfig::t_only()).n_groups;
        let rtr = group(&k, &batch, &GroupingConfig::t_r()).n_groups;
        let rtrc = group(&k, &batch, &GroupingConfig::default()).n_groups;
        assert!(rt >= rtr && rtr >= rtrc, "{rt} {rtr} {rtrc}");
    }

    #[test]
    fn unrelated_routers_stay_separate() {
        let k = toy_knowledge();
        // Two independent flaps on r1 and r2 hours apart: no cross-router
        // merge is possible.
        let g = Grammar::for_vendor(sd_model::Vendor::V1);
        let mk = |ts, r: &str, iface: &str, key: &str| {
            let t = g.get(key);
            RawMessage::new(Timestamp(ts), r, t.code.clone(), t.render(|_| iface))
        };
        let raw = vec![
            mk(0, "r1", "Serial1/0.10/10:0", "LINK_DOWN"),
            mk(10_000, "r2", "Serial1/0.20/20:0", "LINK_DOWN"),
        ];
        let (batch, _) = augment_batch_isolated(&k, &raw, Parallelism::sequential()).split();
        let r = group(&k, &batch, &GroupingConfig::default());
        assert_eq!(r.n_groups, 2);
    }

    use sd_netsim::Grammar;

    /// The temporal stage's series table serializes as a `[key, value]`
    /// list in ascending `(router, template, location)` order, whatever
    /// order the series were first seen in, so checkpoints keep their
    /// bytes. The feed has a locationless series on two routers, a
    /// location shared by series of two routers, several templates at one
    /// location and the unknown template.
    #[test]
    fn tracker_table_serializes_as_a_sorted_key_value_list() {
        let k = toy_knowledge();
        let unknown = crate::knowledge::UNKNOWN_TEMPLATE.0;
        let feed: [(i64, u32, u32, &[u32]); 9] = [
            (0, 2, 1, &[5]),
            (1, 0, 0, &[]),
            (2, 1, unknown, &[3, 4]),
            (3, 0, 0, &[5]),
            (5, 2, 1, &[5]),
            (6, 0, 0, &[]),
            (7, 1, 2, &[3]),
            (9, 1, 0, &[]),
            (9, 1, unknown, &[3]),
        ];
        let mut stages = Stages::default();
        let mut links = Vec::new();
        for (id, &(ts, router, template, locs)) in feed.iter().enumerate() {
            let sp = SyslogPlus {
                idx: id,
                ts: Timestamp(ts),
                router: sd_model::RouterId(router),
                template: Some(sd_model::TemplateId(template)),
                locations: locs.iter().map(|&l| LocationId(l)).collect(),
            };
            stages.step(
                &k,
                &GroupingConfig::t_only(),
                &sp,
                id as u64,
                |_| None,
                &mut links,
            );
        }
        let tracker =
            |last: i64, pred: &str, id: u32| format!(r#"[{{"last":{last},"pred":{pred}}},{id}]"#);
        let want = [
            format!("[[0,0,5],{}]", tracker(3, "null", 3)),
            format!("[[0,0,4294967295],{}]", tracker(6, "5.0", 5)),
            format!("[[1,0,4294967295],{}]", tracker(9, "null", 7)),
            format!("[[1,2,3],{}]", tracker(7, "null", 6)),
            format!("[[1,4294967295,3],{}]", tracker(9, "7.0", 8)),
            format!("[[2,1,5],{}]", tracker(5, "5.0", 4)),
        ]
        .join(",");
        let json = serde_json::to_string(&stages).unwrap();
        assert_eq!(
            json,
            format!(r#"{{"trackers":[{want}],"recent_rules":[],"recent_cross":[]}}"#)
        );
        let back: Stages = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn empty_batch() {
        let k = toy_knowledge();
        let r = group(&k, &[], &GroupingConfig::default());
        assert_eq!(r.n_groups, 0);
        assert!(r.group_of.is_empty());
    }
}
