//! The three grouping stages (§4.2.1–§4.2.3), implemented once in
//! `Stages` and driven by the stream digester, the engine behind `digest`.
//! The batch pass here fuses their links through a union-find, so the
//! stage order cannot change the result.

use crate::knowledge::DomainKnowledge;
use crate::provenance::MergeCause;
use crate::union_find::UnionFind;
use sd_model::{LocationId, Parallelism, SortedMap, SyslogPlus, Timestamp};
use sd_temporal::EwmaTracker;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
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
/// The rule and cross lookbacks are reached by dense ids the knowledge
/// minted (router, partner slot, template), never by hashing a key.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub(crate) struct Stages {
    /// §4.2.1: EWMA tracker and last id per (router, template, location).
    trackers: SortedMap<(u32, u32, u32), (EwmaTracker, u64)>,
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
        match self.trackers.entry(tkey(sp)) {
            Entry::Vacant(e) => {
                let mut tr = EwmaTracker::new();
                tr.observe(sp.ts, &k.temporal);
                e.insert((tr, id));
            }
            Entry::Occupied(mut e) => {
                let (tr, last) = e.get_mut();
                if !tr.observe(sp.ts, &k.temporal) {
                    links.push((*last, MergeCause::Temporal));
                }
                *last = id;
            }
        }
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
    for &x in &a.locations {
        for &y in &b.locations {
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

    #[test]
    fn empty_batch() {
        let k = toy_knowledge();
        let r = group(&k, &[], &GroupingConfig::default());
        assert_eq!(r.n_groups, 0);
        assert!(r.group_of.is_empty());
    }
}
