//! Reference windowed pairwise rule mining (§4.1.4), enumerated one
//! transaction at a time — no run compression, no incremental multiset
//! maintenance.
//!
//! "We use a sliding window W. It starts with the first message and slides
//! message by message. Each time there is one transaction" whose items are
//! the **distinct templates** of the messages inside `[t, t + W]` on the
//! same router (association is only meaningful between messages close in
//! time at related locations, so windows never span routers). A rule
//! `x ⇒ y` (`|X| = |Y| = 1`) survives iff both items clear `SPmin` and the
//! rule clears `Confmin` — both thresholds **inclusive** (`≥`).

use sd_model::Timestamp;
use sd_rules::{MineConfig, StreamItem};
use std::collections::{BTreeMap, BTreeSet};

/// Co-occurrence counts from one naive pass (deterministically ordered).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefCoOccurrence {
    /// Number of transactions — one per message.
    pub n_transactions: u64,
    /// Transactions containing each template.
    pub item_counts: BTreeMap<u32, u64>,
    /// Transactions containing each unordered pair, keyed `(min, max)`.
    pub pair_counts: BTreeMap<(u32, u32), u64>,
}

/// Count transactions over a **time-sorted** stream: for every message
/// (the anchor), one transaction holding the distinct templates of the
/// same-router messages with `ts − ts_anchor ≤ W`, looking forward only.
pub fn ref_count(stream: &[StreamItem], w_secs: i64) -> RefCoOccurrence {
    // Split per router, preserving time order.
    let mut per_router: BTreeMap<u32, Vec<(Timestamp, u32)>> = BTreeMap::new();
    for &(ts, r, t) in stream {
        per_router.entry(r.0).or_default().push((ts, t.0));
    }
    let mut co = RefCoOccurrence::default();
    for msgs in per_router.values() {
        for (left, &(t_left, _)) in msgs.iter().enumerate() {
            let mut items: BTreeSet<u32> = BTreeSet::new();
            for &(ts, t) in &msgs[left..] {
                if ts.seconds_since(t_left) > w_secs {
                    break;
                }
                items.insert(t);
            }
            co.n_transactions += 1;
            let items: Vec<u32> = items.into_iter().collect();
            for (i, &a) in items.iter().enumerate() {
                *co.item_counts.entry(a).or_insert(0) += 1;
                for &b in &items[i + 1..] {
                    *co.pair_counts.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
    }
    co
}

/// A mined directed rule, with the statistics the production miner stores.
#[derive(Debug, Clone, PartialEq)]
pub struct RefRule {
    /// Antecedent template.
    pub x: u32,
    /// Consequent template.
    pub y: u32,
    /// `supp(x)` at mining time.
    pub support: f64,
    /// `conf(x ⇒ y)` at mining time.
    pub confidence: f64,
}

/// Extract every rule clearing the thresholds, sorted by `(x, y)`.
///
/// Eligibility and confidence are both inclusive (`≥`), and the fractions
/// are computed with the same integer operands and division order as the
/// production miner, so the stored statistics compare bit-for-bit.
pub fn ref_mine(co: &RefCoOccurrence, cfg: &MineConfig) -> Vec<RefRule> {
    let n = co.n_transactions;
    if n == 0 {
        return Vec::new();
    }
    let supp = |t: u32| *co.item_counts.get(&t).unwrap_or(&0) as f64 / n as f64;
    let eligible = |t: u32| supp(t) >= cfg.sp_min;
    let mut rules = Vec::new();
    for (&(a, b), &n_ab) in &co.pair_counts {
        if !eligible(a) || !eligible(b) {
            continue;
        }
        for (x, y) in [(a, b), (b, a)] {
            let n_x = *co.item_counts.get(&x).unwrap_or(&0);
            if n_x == 0 {
                continue;
            }
            let conf = n_ab as f64 / n_x as f64;
            if conf >= cfg.conf_min {
                rules.push(RefRule {
                    x,
                    y,
                    support: supp(x),
                    confidence: conf,
                });
            }
        }
    }
    rules.sort_by_key(|r| (r.x, r.y));
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::{RouterId, TemplateId};

    fn s(ts: i64, r: u32, t: u32) -> StreamItem {
        (Timestamp(ts), RouterId(r), TemplateId(t))
    }

    #[test]
    fn counts_one_transaction_per_message() {
        let stream = vec![s(0, 0, 1), s(5, 0, 2), s(1000, 0, 1)];
        let co = ref_count(&stream, 10);
        assert_eq!(co.n_transactions, 3);
        assert_eq!(co.pair_counts[&(1, 2)], 1);
        assert_eq!(co.item_counts[&1], 2);
    }

    #[test]
    fn windows_never_span_routers() {
        let stream = vec![s(0, 0, 1), s(1, 1, 2)];
        let co = ref_count(&stream, 100);
        assert!(co.pair_counts.is_empty());
    }

    #[test]
    fn mine_keeps_inclusive_boundaries() {
        let mut co = RefCoOccurrence {
            n_transactions: 10_000,
            ..Default::default()
        };
        co.item_counts.insert(1, 10);
        co.item_counts.insert(2, 5); // exactly SPmin = 0.0005
        co.pair_counts.insert((1, 2), 8); // conf(1 ⇒ 2) = 0.8 exactly
        let rules = ref_mine(&co, &MineConfig::default());
        assert_eq!(rules.len(), 2, "{rules:?}");
        assert_eq!((rules[0].x, rules[0].y), (1, 2));
        assert_eq!((rules[1].x, rules[1].y), (2, 1));
    }
}
