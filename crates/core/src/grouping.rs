//! The three grouping stages (§4.2.1–§4.2.3), implemented once in
//! `Stages`: driven over a Syslog+ batch here and message by message by
//! the stream digester, and fused through a union-find so the stage order
//! cannot change the result.

use crate::knowledge::DomainKnowledge;
use crate::provenance::MergeCause;
use crate::union_find::UnionFind;
use sd_model::{par_map, LocationId, Parallelism, SyslogPlus, TemplateId, Timestamp};
use sd_temporal::EwmaTracker;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

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
    /// Cross-router simultaneity window in seconds (paper: 1 s).
    pub cross_window_secs: i64,
    /// Thread count for the router-sharded stages (the temporal and
    /// rule-based stages are per-router and shard perfectly; the
    /// cross-router stage is always sequential). Output is identical for
    /// every thread count.
    pub par: Parallelism,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        GroupingConfig {
            temporal: true,
            rules: true,
            cross: true,
            cross_window_secs: 1,
            par: Parallelism::default(),
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
    /// Undirected rule pairs that actually merged messages ("active
    /// rules", the third series of Figure 12).
    pub active_rules: HashSet<(u32, u32)>,
}

impl GroupingResult {
    /// Compression ratio: groups / messages (0 on an empty batch).
    pub fn compression_ratio(&self) -> f64 {
        if self.group_of.is_empty() {
            return 0.0;
        }
        self.n_groups as f64 / self.group_of.len() as f64
    }

    /// Member batch-indices per group.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_groups];
        for (i, &g) in self.group_of.iter().enumerate() {
            out[g].push(i);
        }
        out
    }
}

/// Most messages the cross-router stage keeps per template; beyond it the
/// oldest falls out of the lookback even inside the window. Bounds the
/// per-message scan under a simultaneity storm. Batch and stream share
/// it; only the reference oracle in `sd-conformance` is uncapped.
const CROSS_QUEUE_CAP: usize = 1024;

/// The latest `(id, ts)` per `(template, location)` of one router.
type RuleLookback = HashMap<(u32, u32), (u64, Timestamp)>;

/// State and per-message step of the three grouping stages, the one
/// implementation behind both the batch edge fold ([`stage_edges`]) and
/// the streaming closure ([`StreamDigester`](crate::StreamDigester)).
///
/// Messages must arrive in time order. Ids are the caller's: batch indices
/// in batch, sequence numbers in the stream. Each step appends the links
/// `(earlier id, cause)` from the current message to a caller-owned list.
#[derive(Default)]
pub(crate) struct Stages {
    /// §4.2.1: EWMA tracker and last id per (router, template, location).
    pub(crate) trackers: HashMap<(u32, u32, u32), (EwmaTracker, u64)>,
    /// §4.2.2: rule lookback per router.
    pub(crate) recent_rules: HashMap<u32, RuleLookback>,
    /// §4.2.3: recent `(id, ts)` per template, oldest first.
    pub(crate) recent_cross: HashMap<u32, VecDeque<(u64, Timestamp)>>,
}

impl Stages {
    /// Temporal stage: link to the previous message of the same (router,
    /// template, location) series unless its tracker starts a new group.
    pub(crate) fn temporal(
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
    /// whose location spatially matches.
    pub(crate) fn rule(
        &mut self,
        k: &DomainKnowledge,
        sp: &SyslogPlus,
        id: u64,
        links: &mut Vec<(u64, MergeCause)>,
    ) {
        let Some(tj) = sp.template else { return };
        let w = k.window_secs;
        let rmap = self.recent_rules.entry(sp.router.0).or_default();
        if let Some(loc_j) = sp.primary_location() {
            for (&(t2, loc2), &(i2, ts2)) in rmap.iter() {
                if sp.ts.seconds_since(ts2) > w
                    || t2 == tj.0
                    || !k.rules.related(tj, TemplateId(t2))
                {
                    continue;
                }
                if k.dict.spatially_match(loc_j, LocationId(loc2)) {
                    links.push((i2, MergeCause::Rule(tj.0.min(t2), tj.0.max(t2))));
                }
            }
            rmap.insert((tj.0, loc_j.0), (id, sp.ts));
        }
        // Prune stale representatives occasionally.
        if rmap.len() > 256 {
            let now = sp.ts;
            rmap.retain(|_, &mut (_, ts)| now.seconds_since(ts) <= w);
        }
    }

    /// Cross-router stage: link to each message of the same template on
    /// another router within `window_secs` whose locations are related.
    /// `lookup` resolves an earlier id to its message; ids it cannot
    /// resolve are skipped.
    pub(crate) fn cross<'a>(
        &mut self,
        k: &DomainKnowledge,
        window_secs: i64,
        sp: &SyslogPlus,
        id: u64,
        lookup: impl Fn(u64) -> Option<&'a SyslogPlus>,
        links: &mut Vec<(u64, MergeCause)>,
    ) {
        let Some(tj) = sp.template else { return };
        let q = self.recent_cross.entry(tj.0).or_default();
        while q
            .front()
            .is_some_and(|&(_, ts)| sp.ts.seconds_since(ts) > window_secs)
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

/// Move the links of batch message `j` into `edges` as undirected edges.
fn drain_links(
    j: usize,
    links: &mut Vec<(u64, MergeCause)>,
    edges: &mut Vec<(usize, usize, MergeCause)>,
) {
    edges.extend(links.drain(..).map(|(i, cause)| (i as usize, j, cause)));
}

/// Edges of the temporal and rule-based stages over the messages selected
/// by `idxs` (ascending batch indices). Both stages key all state by
/// router, so running them over one router's messages is *exactly* the
/// sequential traversal restricted to that router — sharding by router
/// changes nothing about the produced edge set.
fn router_local_stages(
    k: &DomainKnowledge,
    batch: &[SyslogPlus],
    cfg: &GroupingConfig,
    idxs: impl Iterator<Item = usize>,
) -> Vec<(usize, usize, MergeCause)> {
    let mut stages = Stages::default();
    let mut links = Vec::new();
    let mut edges = Vec::new();
    for j in idxs {
        let sp = &batch[j];
        if cfg.temporal {
            stages.temporal(k, sp, j as u64, &mut links);
        }
        if cfg.rules {
            stages.rule(k, sp, j as u64, &mut links);
        }
        drain_links(j, &mut links, &mut edges);
    }
    edges
}

/// All union edges the configured stages produce over `batch`, with the
/// stage (and, for rules, the undirected template pair) that caused each.
/// The router-local stages shard by router when parallel; the
/// cross-router stage is sequential (its state spans routers).
///
/// This is the conformance seam: [`group`] is exactly a union-find fold of
/// this edge set, so a differential oracle that compares it against an
/// independently derived reference edge set can pinpoint the first
/// *decision* that differed (which two messages were linked, by which
/// stage) rather than only observing that two partitions disagree.
pub fn stage_edges(
    k: &DomainKnowledge,
    batch: &[SyslogPlus],
    cfg: &GroupingConfig,
) -> Vec<(usize, usize, MergeCause)> {
    let mut edges = if cfg.par.is_sequential() {
        router_local_stages(k, batch, cfg, 0..batch.len())
    } else {
        // Shard batch indices by router, routers in ascending id order.
        let mut shards: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, sp) in batch.iter().enumerate() {
            shards.entry(sp.router.0).or_default().push(i);
        }
        let shards: Vec<Vec<usize>> = shards.into_values().collect();
        par_map(cfg.par, &shards, |_, shard| {
            router_local_stages(k, batch, cfg, shard.iter().copied())
        })
        .concat()
    };

    if cfg.cross {
        let mut stages = Stages::default();
        let mut links = Vec::new();
        for (j, sp) in batch.iter().enumerate() {
            let lookup = |i: u64| batch.get(i as usize);
            stages.cross(k, cfg.cross_window_secs, sp, j as u64, lookup, &mut links);
            drain_links(j, &mut links, &mut edges);
        }
    }
    edges
}

impl GroupingResult {
    /// The union-find fold of `edges` over `n` messages. Partitions do
    /// not depend on the order edges are applied, so the edge set fully
    /// determines the grouping.
    pub(crate) fn from_edges(n: usize, edges: &[(usize, usize, MergeCause)]) -> Self {
        let mut uf = UnionFind::new(n);
        let mut active_rules: HashSet<(u32, u32)> = HashSet::new();
        for &(a, b, cause) in edges {
            uf.union(a, b);
            if let MergeCause::Rule(x, y) = cause {
                active_rules.insert((x, y));
            }
        }
        let (group_of, n_groups) = uf.groups();
        GroupingResult {
            group_of,
            n_groups,
            active_rules,
        }
    }
}

/// Group a time-sorted augmented batch. The result is identical for every
/// `cfg.par.threads` value: the parallel path shards the router-local
/// stages by router, and union-find partitions do not depend on the order
/// edges are applied.
pub fn group(k: &DomainKnowledge, batch: &[SyslogPlus], cfg: &GroupingConfig) -> GroupingResult {
    GroupingResult::from_edges(batch.len(), &stage_edges(k, batch, cfg))
}

fn tkey(sp: &SyslogPlus) -> (u32, u32, u32) {
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
    use crate::augment::augment_batch;
    use crate::offline::{learn, OfflineConfig};
    use sd_model::{ErrorCode, RawMessage, Timestamp};
    use sd_netsim::config::render_all;
    use sd_netsim::scenario::{toy_table2_messages, toy_topology};

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
        let (batch, dropped) = augment_batch(&k, &raw);
        assert_eq!(dropped, 0);
        assert_eq!(batch.len(), 16);

        let t = group(&k, &batch, &GroupingConfig::t_only());
        assert_eq!(t.n_groups, 8, "T: per (router, template, location)");

        let tr = group(&k, &batch, &GroupingConfig::t_r());
        assert_eq!(tr.n_groups, 2, "T+R: one group per router");
        assert!(!tr.active_rules.is_empty());

        let trc = group(&k, &batch, &GroupingConfig::default());
        assert_eq!(trc.n_groups, 1, "T+R+C: the single network event");
    }

    #[test]
    fn compression_improves_monotonically_with_stages() {
        let k = toy_knowledge();
        let raw = toy_table2_messages();
        let (batch, _) = augment_batch(&k, &raw);
        let rt = group(&k, &batch, &GroupingConfig::t_only()).compression_ratio();
        let rtr = group(&k, &batch, &GroupingConfig::t_r()).compression_ratio();
        let rtrc = group(&k, &batch, &GroupingConfig::default()).compression_ratio();
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
            RawMessage::new(
                Timestamp(ts),
                r,
                t.code.clone(),
                t.render(|_| iface.to_owned()),
            )
        };
        let raw = vec![
            mk(0, "r1", "Serial1/0.10/10:0", "LINK_DOWN"),
            mk(10_000, "r2", "Serial1/0.20/20:0", "LINK_DOWN"),
        ];
        let (batch, _) = augment_batch(&k, &raw);
        let r = group(&k, &batch, &GroupingConfig::default());
        assert_eq!(r.n_groups, 2);
    }

    use sd_netsim::Grammar;

    #[test]
    fn empty_batch() {
        let k = toy_knowledge();
        let r = group(&k, &[], &GroupingConfig::default());
        assert_eq!(r.n_groups, 0);
        assert_eq!(r.compression_ratio(), 0.0);
    }
}
