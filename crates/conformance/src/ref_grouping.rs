//! Reference grouping (§4.2.1–§4.2.3): the three stages' union edges
//! derived by naive backward scans over the batch, plus naive connected
//! components by label propagation — no per-key trackers, no
//! representative maps, no queues, no union-find.
//!
//! The production grouper and this reference must produce the **same edge
//! set** (up to ordering), and therefore the same partition. Documented
//! deliberate difference: the production cross-router stage caps its
//! per-template recency queue at 1024 entries as a memory guard; the
//! reference has no cap, so a burst of > 1024 same-template messages
//! inside the 1-second simultaneity window could legitimately diverge.
//! No netsim corpus comes near that density; the differential driver
//! would report it as a cross-stage divergence if one ever did.

use sd_model::{LocationId, SyslogPlus};
use std::collections::{BTreeMap, BTreeSet};
use syslogdigest::MergeCause;
use syslogdigest::CROSS_WINDOW_SECS;
use syslogdigest::{DomainKnowledge, GroupingConfig};

/// All union edges the configured stages produce over a time-sorted batch,
/// each with the stage (and rule pair) that caused it.
pub fn ref_edges(
    k: &DomainKnowledge,
    batch: &[SyslogPlus],
    cfg: &GroupingConfig,
) -> Vec<(usize, usize, MergeCause)> {
    let mut edges = Vec::new();

    // ---- §4.2.1 temporal: per (router, template, location) series, link
    // consecutive arrivals the EWMA keeps in one cluster.
    if cfg.temporal {
        let mut series: BTreeMap<(u32, u32, u32), Vec<usize>> = BTreeMap::new();
        for (i, sp) in batch.iter().enumerate() {
            let key = (
                sp.router.0,
                sp.template.map(|t| t.0).unwrap_or(u32::MAX),
                sp.primary_location().map(|l| l.0).unwrap_or(u32::MAX),
            );
            series.entry(key).or_default().push(i);
        }
        for idxs in series.values() {
            let ts: Vec<_> = idxs.iter().map(|&i| batch[i].ts).collect();
            let labels = crate::ref_temporal::ref_group_series(&ts, &k.temporal);
            for m in 1..idxs.len() {
                if labels[m] == labels[m - 1] {
                    edges.push((idxs[m - 1], idxs[m], MergeCause::Temporal));
                }
            }
        }
    }

    // ---- §4.2.2 rules: link each message to the *latest* prior
    // same-router occurrence of every other template/location within W,
    // when a mined rule relates the templates and the locations spatially
    // match. Scanning backward, the first occurrence of each
    // (template, location) key is that key's representative; older
    // occurrences are shadowed even when the representative itself fails
    // the window or spatial test.
    if cfg.rules {
        let w = k.window_secs;
        for (j, sp) in batch.iter().enumerate() {
            let Some(tj) = sp.template else { continue };
            let loc_j = sp.primary_location();
            let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
            for i in (0..j).rev() {
                let other = &batch[i];
                if sp.ts.seconds_since(other.ts) > w {
                    break; // time-sorted: everything earlier is older still
                }
                if other.router != sp.router {
                    continue;
                }
                let (Some(ti), Some(loc_i)) = (other.template, other.primary_location()) else {
                    continue; // never a representative
                };
                if !seen.insert((ti.0, loc_i.0)) {
                    continue; // shadowed by a later occurrence of the key
                }
                if ti == tj || !k.rules.related(tj, ti) {
                    continue;
                }
                let spatial = match loc_j {
                    Some(a) => k.dict.spatially_match(a, loc_i),
                    None => false,
                };
                if spatial {
                    edges.push((i, j, MergeCause::Rule(tj.0.min(ti.0), tj.0.max(ti.0))));
                }
            }
        }
    }

    // ---- §4.2.3 cross-router: same template on two routers within the
    // simultaneity window, at related locations.
    if cfg.cross {
        for (j, sp) in batch.iter().enumerate() {
            let Some(tj) = sp.template else { continue };
            for i in (0..j).rev() {
                let other = &batch[i];
                if sp.ts.seconds_since(other.ts) > CROSS_WINDOW_SECS {
                    break;
                }
                if other.template != Some(tj) || other.router == sp.router {
                    continue;
                }
                if ref_cross_related(k, sp, other) {
                    edges.push((i, j, MergeCause::Cross));
                }
            }
        }
    }

    edges
}

/// §4.2.3 relatedness, re-derived: two messages are related when they
/// reference the same location, locations that are the two ends of one
/// link (or one LSP path), or when one side's remote reference (say, the
/// neighbor's loopback behind an IP) spatially matches the other side's
/// own location.
fn ref_cross_related(k: &DomainKnowledge, a: &SyslogPlus, b: &SyslogPlus) -> bool {
    let related = |x: LocationId, y: LocationId| {
        x == y
            || k.dict.cross_router_related(x, y)
            || (k.dict.router_of(x) == k.dict.router_of(y) && k.dict.spatially_match(x, y))
    };
    a.locations
        .iter()
        .any(|&x| b.locations.iter().any(|&y| related(x, y)))
}

/// Naive connected components over `n` nodes: propagate the minimum label
/// along edges until a fixpoint, then relabel densely by first appearance
/// — the same canonical form `UnionFind::groups()` returns.
pub(crate) fn ref_components(
    n: usize,
    edges: &[(usize, usize, MergeCause)],
) -> (Vec<usize>, usize) {
    let mut label: Vec<usize> = (0..n).collect();
    loop {
        let mut changed = false;
        for &(a, b, _) in edges {
            let m = label[a].min(label[b]);
            if label[a] != m {
                label[a] = m;
                changed = true;
            }
            if label[b] != m {
                label[b] = m;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Dense relabel by first appearance.
    let mut dense: BTreeMap<usize, usize> = BTreeMap::new();
    let mut next = 0usize;
    let mut out = Vec::with_capacity(n);
    for &l in &label {
        let id = *dense.entry(l).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        out.push(id);
    }
    (out, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_of_a_chain_and_an_isolate() {
        let edges = vec![(0, 1, MergeCause::Temporal), (1, 2, MergeCause::Cross)];
        let (labels, n) = ref_components(4, &edges);
        assert_eq!(labels, vec![0, 0, 0, 1]);
        assert_eq!(n, 2);
    }

    #[test]
    fn components_match_union_find() {
        use syslogdigest::UnionFind;
        let edges = vec![
            (3, 1, MergeCause::Temporal),
            (4, 5, MergeCause::Cross),
            (1, 4, MergeCause::Temporal),
            (0, 6, MergeCause::Cross),
        ];
        let (labels, n) = ref_components(7, &edges);
        let mut uf = UnionFind::new(7);
        for &(a, b, _) in &edges {
            uf.union(a, b);
        }
        let (ulabels, un) = uf.groups();
        assert_eq!(labels, ulabels);
        assert_eq!(n, un);
    }
}
