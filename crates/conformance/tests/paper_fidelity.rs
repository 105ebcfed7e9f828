//! Paper-fidelity suite: pins the constants and edge-case semantics the
//! paper specifies (IMC 2010, Table 6 and §4), so a refactor that quietly
//! flips an inequality, a default, or a clamping rule fails here with a
//! named paper section instead of a moved golden digest.
//!
//! Everything in this file tests the **production** implementations; the
//! reference oracles in `sd-conformance` get their own differential suite.

use sd_model::{ErrorCode, RawMessage, Timestamp};
use sd_rules::{mine, CoOccurrence, MineConfig, RuleBase};
use sd_templates::{learn, LearnerConfig};
use sd_temporal::{group_series, EwmaTracker, TemporalConfig};
use syslogdigest::offline::OfflineConfig;
use syslogdigest::CROSS_WINDOW_SECS;

// ---------------------------------------------------------------- constants

/// Table 6 / §4 constants, exactly as published.
#[test]
fn defaults_pin_paper_constants() {
    // §4.1.1: prune a tree position when it has more than k = 10 children.
    assert_eq!(LearnerConfig::default().k, 10);

    // Table 6: α, β, Smin = 1 s, Smax = 3 h.
    let a = TemporalConfig::dataset_a();
    assert_eq!(a.alpha, 0.05);
    assert_eq!(a.beta, 5.0);
    assert_eq!(a.s_min, 1);
    assert_eq!(a.s_max, 3 * 3600);
    let b = TemporalConfig::dataset_b();
    assert_eq!(b.alpha, 0.075);
    assert_eq!((b.beta, b.s_min, b.s_max), (5.0, 1, 3 * 3600));

    // §4.1.4: SPmin = 0.05 %, Confmin = 0.8.
    let m = MineConfig::default();
    assert_eq!(m.sp_min, 0.0005);
    assert_eq!(m.conf_min, 0.8);

    // Table 6: W = 120 s (dataset A) / 40 s (dataset B).
    assert_eq!(OfflineConfig::dataset_a().window_secs, 120);
    assert_eq!(OfflineConfig::dataset_b().window_secs, 40);

    // §4.2.3: cross-router simultaneity window ~1 s.
    assert_eq!(CROSS_WINDOW_SECS, 1);
}

// ------------------------------------------------- §4.1.1 prune boundary

fn msgs_with_distinct_words(n: usize) -> Vec<RawMessage> {
    let mut msgs = Vec::new();
    for i in 0..n {
        // Repeat each sub-type so frequencies are unambiguous.
        for _ in 0..5 {
            msgs.push(RawMessage::new(
                Timestamp(0),
                "r1",
                ErrorCode::from("C-1-M"),
                format!("state is value{i}"),
            ));
        }
    }
    msgs
}

/// A position with exactly `k` distinct words splits into `k` sub-types;
/// with `k + 1` it is declared variable and masked. The boundary is
/// "more than k", not "at least k".
#[test]
fn prune_threshold_boundary_is_strictly_more_than_k() {
    let cfg = LearnerConfig {
        k: 3,
        ..LearnerConfig::default()
    };

    let set = learn(&msgs_with_distinct_words(3), &cfg);
    let mut masked: Vec<String> = set.iter().map(|(_, t)| t.masked()).collect();
    masked.sort();
    assert_eq!(
        masked,
        vec![
            "C-1-M state is value0".to_owned(),
            "C-1-M state is value1".to_owned(),
            "C-1-M state is value2".to_owned(),
        ],
        "exactly k distinct words must split, not mask"
    );

    let set = learn(&msgs_with_distinct_words(4), &cfg);
    let masked: Vec<String> = set.iter().map(|(_, t)| t.masked()).collect();
    assert_eq!(
        masked,
        vec!["C-1-M state is *".to_owned()],
        "k + 1 distinct words must mask the position"
    );
}

// ------------------------------------------------ §4.1.3 EWMA semantics

fn t(secs: i64) -> Timestamp {
    Timestamp(secs)
}

fn tcfg(alpha: f64, beta: f64, s_min: i64, s_max: i64) -> TemporalConfig {
    TemporalConfig {
        alpha,
        beta,
        s_min,
        s_max,
    }
}

/// `Ŝt = α·St + (1 − α)·Ŝ(t−1)`, first gap adopted verbatim.
#[test]
fn ewma_update_is_the_paper_equation() {
    let cfg = tcfg(0.25, 5.0, 1, 10_800);
    let mut tr = EwmaTracker::new();
    tr.observe(t(0), &cfg);
    assert_eq!(tr.prediction(), None, "no gap observed yet");
    tr.observe(t(10), &cfg);
    assert_eq!(tr.prediction(), Some(10.0), "first gap adopted as-is");
    tr.observe(t(30), &cfg);
    // 0.25 · 20 + 0.75 · 10 = 12.5 — exact in binary floats.
    assert_eq!(tr.prediction(), Some(12.5));
}

/// Gaps of exactly `Smax` stay grouped; one second more always splits,
/// whatever the EWMA predicts.
#[test]
fn smax_cap_is_exclusive() {
    let cfg = tcfg(0.05, 5.0, 1, 100);
    assert_eq!(group_series(&[t(0), t(100)], &cfg), vec![0, 0]);
    assert_eq!(group_series(&[t(0), t(101)], &cfg), vec![0, 1]);
}

/// Gaps of exactly `Smin` stay grouped even when they exceed `β·Ŝt`.
#[test]
fn smin_short_circuits_the_ewma_test() {
    let cfg = tcfg(0.5, 1.0, 5, 10_800);
    // Prediction settles at 1.0; a gap of 5 > β·Ŝ = 1 would split, but
    // gap ≤ Smin groups unconditionally.
    let labels = group_series(&[t(0), t(1), t(2), t(7)], &cfg);
    assert_eq!(labels, vec![0, 0, 0, 0]);
    // One past Smin, the EWMA test applies and splits.
    let labels = group_series(&[t(0), t(1), t(2), t(9)], &cfg);
    assert_eq!(labels, vec![0, 0, 0, 1]);
}

/// The split test is strict: `St = β·Ŝt` exactly stays in the group;
/// the split fires only on `St > β·Ŝt`.
#[test]
fn split_at_exact_beta_shat_equality_groups() {
    let cfg = tcfg(0.05, 2.0, 1, 10_800);
    // After [0, 10] the prediction is exactly 10, so the boundary gap is
    // exactly 20 — representable, no rounding.
    assert_eq!(group_series(&[t(0), t(10), t(30)], &cfg), vec![0, 0, 0]);
    assert_eq!(group_series(&[t(0), t(10), t(31)], &cfg), vec![0, 0, 1]);
}

/// A collapsed prediction (`Ŝ → 0`) is floored at `Smin` in the split
/// threshold: `St > β·max(Ŝ, Smin)`.
#[test]
fn floor_clamps_a_collapsed_prediction() {
    let cfg = tcfg(0.5, 2.0, 1, 10_800);
    // Identical timestamps drive the prediction to exactly 0.
    let mut tr = EwmaTracker::new();
    for _ in 0..3 {
        tr.observe(t(0), &cfg);
    }
    assert_eq!(tr.prediction(), Some(0.0));
    // Unfloored threshold would be β·0 = 0 and any gap would split;
    // floored it is β·Smin = 2, so a gap of 2 still groups and 3 splits.
    assert_eq!(group_series(&[t(0), t(0), t(0), t(2)], &cfg), vec![0; 4]);
    assert_eq!(
        group_series(&[t(0), t(0), t(0), t(3)], &cfg),
        vec![0, 0, 0, 1]
    );
}

// --------------------------------------- §4.1.4 rule threshold boundaries

fn co(n: u64, items: &[(u32, u64)], pairs: &[((u32, u32), u64)]) -> CoOccurrence {
    let mut co = CoOccurrence {
        n_transactions: n,
        ..CoOccurrence::default()
    };
    for &(t, c) in items {
        co.item_counts.insert(t, c);
    }
    for &(p, c) in pairs {
        co.pair_counts.insert(p, c);
    }
    co
}

/// Both mining thresholds are inclusive: support exactly `SPmin` and
/// confidence exactly `Confmin` keep a rule.
#[test]
fn mining_thresholds_are_inclusive_at_the_boundary() {
    let cfg = MineConfig::default();
    // supp(2) = 5 / 10000 = SPmin exactly; conf(1 ⇒ 2) = 8/10 = Confmin.
    let rules = mine(&co(10_000, &[(1, 10), (2, 5)], &[((1, 2), 8)]), &cfg);
    let ids: Vec<(u32, u32)> = rules.rules().iter().map(|r| (r.x.0, r.y.0)).collect();
    assert_eq!(ids, vec![(1, 2), (2, 1)], "both boundaries must be kept");

    // One transaction below SPmin disqualifies the item entirely …
    let rules = mine(&co(10_000, &[(1, 10), (2, 4)], &[((1, 2), 4)]), &cfg);
    assert!(rules.rules().is_empty(), "supp below SPmin must prune");

    // … and one co-occurrence below Confmin kills only that direction.
    let rules = mine(&co(10_000, &[(1, 10), (2, 5)], &[((1, 2), 7)]), &cfg);
    let ids: Vec<(u32, u32)> = rules.rules().iter().map(|r| (r.x.0, r.y.0)).collect();
    assert_eq!(ids, vec![(2, 1)], "conf 0.7 fails, reverse conf 1.4 holds");
}

/// §4.1.4 conservative maintenance: a rule is deleted only when its
/// re-measured confidence *falls below* the threshold; an antecedent that
/// simply did not occur this week is no evidence against the rule.
#[test]
fn rules_are_deleted_only_on_measured_confidence_fall() {
    let cfg = MineConfig::default();
    let mut base = RuleBase::new();
    let stats = base.update(&co(10_000, &[(1, 10), (2, 10)], &[((1, 2), 9)]), &cfg);
    assert_eq!((stats.added, stats.deleted, stats.total), (2, 0, 2));

    // Week with no sign of template 1 at all: both rules survive.
    let stats = base.update(&co(10_000, &[(3, 10)], &[]), &cfg);
    assert_eq!((stats.added, stats.deleted, stats.total), (0, 0, 2));

    // Week where 1 occurs but the implication no longer holds: confidence
    // is measured (2/10 and 2/10) and both directions fall below 0.8.
    let stats = base.update(&co(10_000, &[(1, 10), (2, 10)], &[((1, 2), 2)]), &cfg);
    assert_eq!((stats.added, stats.deleted, stats.total), (0, 2, 0));
}

/// The boundary of the deletion test is also strict "falls below": a rule
/// re-measured at exactly `Confmin` is kept.
#[test]
fn rule_at_exact_confmin_is_kept_on_update() {
    let cfg = MineConfig::default();
    let mut base = RuleBase::new();
    base.update(&co(10_000, &[(1, 10), (2, 10)], &[((1, 2), 9)]), &cfg);
    let stats = base.update(&co(10_000, &[(1, 10), (2, 10)], &[((1, 2), 8)]), &cfg);
    assert_eq!(stats.deleted, 0, "conf exactly 0.8 must not delete");
}
