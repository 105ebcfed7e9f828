//! Property tests for co-occurrence counting and rule mining.

use proptest::prelude::*;
use sd_model::{Parallelism, RouterId, TemplateId, Timestamp};
use sd_rules::{mine, CoOccurrence, MineConfig, RuleBase, StreamItem};

fn stream() -> impl Strategy<Value = Vec<StreamItem>> {
    proptest::collection::vec((0i64..50_000, 0u32..4, 0u32..8), 1..400).prop_map(|items| {
        let mut s: Vec<StreamItem> = items
            .into_iter()
            .map(|(ts, r, t)| (Timestamp(ts), RouterId(r), TemplateId(t)))
            .collect();
        s.sort_by_key(|&(ts, r, _)| (ts, r.0));
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counting invariants: one transaction per message; every support and
    /// confidence lies in [0, 1]; an item's pair count never exceeds its
    /// item count.
    #[test]
    fn counting_invariants(s in stream(), w in 1i64..600) {
        let co = CoOccurrence::count(&s, w, Parallelism::sequential());
        prop_assert_eq!(co.n_transactions, s.len() as u64);
        for (&t, &c) in &co.item_counts {
            prop_assert!(c <= co.n_transactions);
            let supp = co.support(TemplateId(t));
            prop_assert!((0.0..=1.0).contains(&supp));
        }
        for (&(a, b), &c) in &co.pair_counts {
            prop_assert!(a < b, "pair keys normalized");
            prop_assert!(c <= *co.item_counts.get(&a).unwrap());
            prop_assert!(c <= *co.item_counts.get(&b).unwrap());
        }
    }

    /// Wider windows can only see more co-occurrence: per-pair counts are
    /// monotone in W.
    #[test]
    fn pair_counts_monotone_in_window(s in stream()) {
        let narrow = CoOccurrence::count(&s, 10, Parallelism::sequential());
        let wide = CoOccurrence::count(&s, 100, Parallelism::sequential());
        for (k, &c) in &narrow.pair_counts {
            let cw = wide.pair_counts.get(k).copied().unwrap_or(0);
            prop_assert!(cw >= c, "pair {k:?}: wide {cw} < narrow {c}");
        }
    }

    /// Every mined rule satisfies the thresholds it was mined with.
    #[test]
    fn mined_rules_respect_thresholds(
        s in stream(),
        sp in 0.0f64..0.3,
        conf in 0.3f64..0.95,
    ) {
        let co = CoOccurrence::count(&s, 60, Parallelism::sequential());
        let rs = mine(&co, &MineConfig { sp_min: sp, conf_min: conf });
        for r in rs.rules() {
            prop_assert!(r.support >= sp, "rule supp {} < {}", r.support, sp);
            prop_assert!(r.confidence >= conf);
            prop_assert!(rs.related(r.x, r.y));
            prop_assert!(rs.related(r.y, r.x), "relatedness is symmetric");
        }
    }

    /// Updating a base with the same week twice is idempotent: the second
    /// application adds and deletes nothing.
    #[test]
    fn weekly_update_idempotent(s in stream()) {
        let co = CoOccurrence::count(&s, 60, Parallelism::sequential());
        let cfg = MineConfig { sp_min: 0.01, conf_min: 0.6 };
        let mut base = RuleBase::new();
        base.update(&co, &cfg);
        let second = base.update(&co, &cfg);
        prop_assert_eq!(second.added, 0);
        prop_assert_eq!(second.deleted, 0);
    }
}
