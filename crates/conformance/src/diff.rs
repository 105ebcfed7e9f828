//! The differential driver: run every reference oracle against the
//! optimized pipeline on one netsim-generated corpus and report the
//! **first divergence with full provenance** — which message (by batch
//! seq), which template ids, and which decision differed.
//!
//! Stage order is chosen so the earliest-failing oracle points closest to
//! the root cause: learned template sets first (everything downstream
//! keys off template ids), then per-message matching, temporal clustering,
//! co-occurrence counts and mined rules, the grouping edge sets, and
//! finally the partitions themselves.

use crate::ref_grouping::{ref_components, ref_edges};
use crate::ref_rules::{ref_count, ref_mine};
use crate::ref_templates::{ref_learn, ref_resolve};
use crate::ref_temporal::ref_group_series;
use sd_model::{Parallelism, Timestamp};
use sd_netsim::Dataset;
use sd_rules::CoOccurrence;
use sd_temporal::group_series;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use syslogdigest::offline::{history, learn, OfflineConfig};
use syslogdigest::MergeCause;
use syslogdigest::{augment_batch_isolated, group, stage_edges, DomainKnowledge, GroupingConfig};

/// Which oracle observed the divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Learned template sets differ (reference learner vs optimized).
    Templates,
    /// A message resolved to different templates.
    Matching,
    /// An EWMA series clustered differently.
    Temporal,
    /// Co-occurrence counts or the mined rule sets differ.
    Rules,
    /// The grouping edge sets or partitions differ.
    Grouping,
}

impl Stage {
    /// Short stage name for reports.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Stage::Templates => "templates",
            Stage::Matching => "matching",
            Stage::Temporal => "temporal",
            Stage::Rules => "rules",
            Stage::Grouping => "grouping",
        }
    }
}

/// The first observed difference between reference and optimized.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The oracle that caught it.
    pub(crate) stage: Stage,
    /// Full provenance of the differing decision.
    pub(crate) detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage.as_str(), self.detail)
    }
}

/// What a fully conformant run looked like (sizes for the report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConformanceSummary {
    /// Training messages.
    pub n_train: usize,
    /// Online messages.
    pub n_online: usize,
    /// Learned templates (identical in both implementations).
    pub n_templates: usize,
    /// Mined rules (identical in both implementations).
    pub n_rules: usize,
    /// Grouping edges (identical edge sets).
    pub n_edges: usize,
    /// Final event groups (identical partitions).
    pub n_groups: usize,
}

fn diverge(stage: Stage, detail: String) -> Divergence {
    Divergence { stage, detail }
}

/// Run the full differential suite over one dataset.
pub fn verify_dataset(
    d: &Dataset,
    ocfg: &OfflineConfig,
    gcfg: &GroupingConfig,
) -> Result<ConformanceSummary, Divergence> {
    let k = learn(&d.configs, d.train(), ocfg);

    // ---- template learning oracle ---------------------------------------
    let reference = ref_learn(d.train(), &ocfg.learner);
    let mut optimized: Vec<String> = k.templates.iter().map(|(_, t)| t.masked()).collect();
    optimized.sort();
    if reference != optimized {
        return Err(first_list_diff(Stage::Templates, &reference, &optimized));
    }

    // ---- template matching oracle ----------------------------------------
    for (i, m) in d.online().iter().enumerate() {
        let opt = k.resolve_template(m.code(), m.detail());
        let refv = ref_resolve(&k, m.code(), m.detail());
        if opt != refv {
            return Err(diverge(
                Stage::Matching,
                format!(
                    "message seq {i} ts {} router {} code {} detail {:?}: \
                     optimized -> t{} ({}), reference -> t{} ({})",
                    m.ts.0,
                    m.router(),
                    m.code(),
                    m.detail(),
                    opt.0,
                    k.template_signature(opt),
                    refv.0,
                    k.template_signature(refv)
                ),
            ));
        }
    }

    // ---- grouping stage oracles over the augmented online batch ----------
    let (batch, _) = augment_batch_isolated(&k, d.online(), Parallelism::sequential()).split();

    // Temporal clustering, series by series.
    let mut series: BTreeMap<(u32, u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, sp) in batch.iter().enumerate() {
        let key = (
            sp.router.0,
            sp.template.map(|t| t.0).unwrap_or(u32::MAX),
            sp.primary_location().map(|l| l.0).unwrap_or(u32::MAX),
        );
        series.entry(key).or_default().push(i);
    }
    for (key, idxs) in &series {
        let ts: Vec<Timestamp> = idxs.iter().map(|&i| batch[i].ts).collect();
        let opt = group_series(&ts, &k.temporal);
        let refv = ref_group_series(&ts, &k.temporal);
        if opt != refv {
            let at = opt.iter().zip(&refv).position(|(a, b)| a != b).unwrap_or(0);
            return Err(diverge(
                Stage::Temporal,
                format!(
                    "series (router {}, template {}, location {}): element {} \
                     (message seq {}, ts {}): optimized group {}, reference group {}",
                    key.0, key.1, key.2, at, idxs[at], ts[at].0, opt[at], refv[at]
                ),
            ));
        }
    }

    // Co-occurrence counts and mined rules over the training stream.
    let stream = history(&k, d.train()).stream;
    let ref_co = ref_count(&stream, ocfg.window_secs);
    let opt_co = CoOccurrence::count(&stream, ocfg.window_secs);
    if let Some(msg) = count_diff(&ref_co, &opt_co) {
        return Err(diverge(Stage::Rules, msg));
    }
    let ref_rules = ref_mine(&ref_co, &ocfg.mine);
    let opt_rules = k.rules.rules();
    if ref_rules.len() != opt_rules.len()
        || ref_rules.iter().zip(opt_rules).any(|(r, o)| {
            (r.x, r.y) != (o.x.0, o.y.0)
                || r.support.to_bits() != o.support.to_bits()
                || r.confidence.to_bits() != o.confidence.to_bits()
        })
    {
        return Err(diverge(
            Stage::Rules,
            format!(
                "mined rule sets differ: reference {:?}, optimized {:?}",
                ref_rules.iter().map(|r| (r.x, r.y)).collect::<Vec<_>>(),
                opt_rules.iter().map(|r| (r.x.0, r.y.0)).collect::<Vec<_>>()
            ),
        ));
    }

    // Edge sets: the per-decision comparison.
    let opt_edges = stage_edges(&k, &batch, gcfg);
    let reference_edges = ref_edges(&k, &batch, gcfg);
    let opt_set: BTreeSet<EdgeKey> = opt_edges.iter().map(edge_key).collect();
    let ref_set: BTreeSet<EdgeKey> = reference_edges.iter().map(edge_key).collect();
    if let Some(&e) = opt_set.difference(&ref_set).next() {
        return Err(diverge(
            Stage::Grouping,
            edge_report(&k, &batch, e, "optimized linked, reference did not"),
        ));
    }
    if let Some(&e) = ref_set.difference(&opt_set).next() {
        return Err(diverge(
            Stage::Grouping,
            edge_report(&k, &batch, e, "reference linked, optimized did not"),
        ));
    }

    // Partitions (follows from the edges, asserted end to end anyway).
    let opt_grouping = group(&k, &batch, gcfg);
    let (ref_labels, ref_n) = ref_components(batch.len(), &reference_edges);
    if opt_grouping.group_of != ref_labels {
        let at = opt_grouping
            .group_of
            .iter()
            .zip(&ref_labels)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(diverge(
            Stage::Grouping,
            format!(
                "partitions differ first at message seq {at}: optimized group {}, \
                 reference group {} ({} vs {} groups)",
                opt_grouping.group_of[at], ref_labels[at], opt_grouping.n_groups, ref_n
            ),
        ));
    }

    Ok(ConformanceSummary {
        n_train: d.train().len(),
        n_online: d.online().len(),
        n_templates: k.templates.len(),
        n_rules: k.rules.len(),
        n_edges: opt_edges.len(),
        n_groups: opt_grouping.n_groups,
    })
}

/// Sortable edge identity: `(a, b, stage tag, rule pair)`.
type EdgeKey = (usize, usize, u8, u32, u32);

fn edge_key(e: &(usize, usize, MergeCause)) -> EdgeKey {
    match e.2 {
        MergeCause::Temporal => (e.0, e.1, 0, 0, 0),
        MergeCause::Rule(x, y) => (e.0, e.1, 1, x, y),
        MergeCause::Cross => (e.0, e.1, 2, 0, 0),
    }
}

fn edge_report(
    k: &DomainKnowledge,
    batch: &[sd_model::SyslogPlus],
    e: EdgeKey,
    verdict: &str,
) -> String {
    let (a, b, tag, x, y) = e;
    let stage = match tag {
        0 => "temporal".to_owned(),
        1 => format!("rule ({x},{y})"),
        _ => "cross-router".to_owned(),
    };
    let describe = |i: usize| {
        let sp = &batch[i];
        format!(
            "seq {i} ts {} router {} template {}",
            sp.ts.0,
            k.dict.routers.resolve(sp.router.0),
            sp.template
                .map(|t| format!("t{} ({})", t.0, k.template_signature(t)))
                .unwrap_or_else(|| "-".to_owned()),
        )
    };
    format!(
        "{stage} edge between [{}] and [{}]: {verdict}",
        describe(a),
        describe(b)
    )
}

fn first_list_diff(stage: Stage, reference: &[String], optimized: &[String]) -> Divergence {
    let n = reference.len().max(optimized.len());
    for i in 0..n {
        let r = reference.get(i).map(String::as_str);
        let o = optimized.get(i).map(String::as_str);
        if r != o {
            return diverge(
                stage,
                format!(
                    "entry {i}: reference {:?}, optimized {:?} \
                     ({} reference vs {} optimized entries)",
                    r,
                    o,
                    reference.len(),
                    optimized.len()
                ),
            );
        }
    }
    diverge(
        stage,
        "lists differ but no differing entry found".to_owned(),
    )
}

fn count_diff(r: &crate::ref_rules::RefCoOccurrence, o: &CoOccurrence) -> Option<String> {
    if r.n_transactions != o.n_transactions {
        return Some(format!(
            "transaction counts differ: reference {}, optimized {}",
            r.n_transactions, o.n_transactions
        ));
    }
    let o_items: BTreeMap<u32, u64> = o.item_counts.iter().map(|(&k, &v)| (k, v)).collect();
    if r.item_counts != o_items {
        let keys: BTreeSet<u32> = r
            .item_counts
            .keys()
            .chain(o_items.keys())
            .copied()
            .collect();
        let key = keys
            .into_iter()
            .find(|k| r.item_counts.get(k) != o_items.get(k));
        return Some(format!(
            "item counts differ first at template {key:?}: reference {:?}, optimized {:?}",
            key.and_then(|k| r.item_counts.get(&k)),
            key.and_then(|k| o_items.get(&k))
        ));
    }
    let o_pairs: BTreeMap<(u32, u32), u64> = o.pair_counts.iter().map(|(&k, &v)| (k, v)).collect();
    if r.pair_counts != o_pairs {
        let keys: BTreeSet<(u32, u32)> = r
            .pair_counts
            .keys()
            .chain(o_pairs.keys())
            .copied()
            .collect();
        let key = keys
            .into_iter()
            .find(|k| r.pair_counts.get(k) != o_pairs.get(k));
        return Some(format!(
            "pair counts differ first at {key:?}: reference {:?}, optimized {:?}",
            key.and_then(|k| r.pair_counts.get(&k)),
            key.and_then(|k| o_pairs.get(&k))
        ));
    }
    None
}
