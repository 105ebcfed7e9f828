//! Differential suite: the naive reference oracles vs. the optimized
//! pipeline, on netsim corpora (end-to-end, via `verify_dataset`) and on
//! randomized inputs (property tests per stage).
//!
//! Case counts scale with the `PROPTEST_CASES` environment variable
//! (default below per test) — CI's scheduled long-fuzz job sets it high;
//! PR runs keep the defaults.

use proptest::{prop_assert_eq, proptest, ProptestConfig};
use sd_conformance::ref_edges;
use sd_conformance::ref_group_series;
use sd_conformance::verify_dataset;
use sd_conformance::{ref_count, ref_mine, RefRule};
use sd_conformance::{ref_learn, ref_match};
use sd_locations::LocationDictionary;
use sd_model::{
    ErrorCode, Interner, LocationId, RawMessage, RouterId, SyslogPlus, TemplateId, Timestamp,
};
use sd_netsim::config::render_all;
use sd_netsim::toy_topology;
use sd_netsim::Corpus;
use sd_rules::{mine, CoOccurrence, MineConfig, Rule, RuleSet, StreamItem};
use sd_templates::{learn, LearnerConfig, TemplateSet};
use sd_temporal::{group_series, TemporalConfig};
use std::collections::BTreeSet;
use syslogdigest::offline::OfflineConfig;
use syslogdigest::{stage_edges, DomainKnowledge, GroupingConfig, UNKNOWN_TEMPLATE};

/// Proptest config honoring `PROPTEST_CASES` (the vendored proptest does
/// not read the environment itself).
fn cases(default: u32) -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(n)
}

// ------------------------------------------------------ end-to-end corpora

/// Every oracle agrees with the optimized pipeline on a full netsim
/// corpus.
#[test]
fn full_corpus_is_conformant() {
    let ocfg = OfflineConfig::dataset_a();
    let gcfg = GroupingConfig::default();
    for (seed, scale) in [(1u64, 0.05), (2, 0.03)] {
        let corpus = Corpus::generate(seed, scale);
        let summary = verify_dataset(&corpus.dataset, &ocfg, &gcfg)
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        assert!(summary.n_templates > 0 && summary.n_groups > 0);
    }
}

// ----------------------------------------------------- per-stage proptests

proptest! {
    #![proptest_config(cases(300))]
    #[test]
    fn temporal_clustering_matches_reference(
        deltas in proptest::collection::vec(0i64..400, 1..60),
        alpha in 0.01f64..0.95,
        beta in 1.0f64..6.0,
        s_min in 0i64..10,
    ) {
        let cfg = TemporalConfig { alpha, beta, s_min, s_max: 300 };
        let mut acc = 0i64;
        let ts: Vec<Timestamp> = deltas
            .iter()
            .map(|d| {
                acc += d;
                Timestamp(acc)
            })
            .collect();
        prop_assert_eq!(group_series(&ts, &cfg), ref_group_series(&ts, &cfg));
    }
}

/// Sort a generated `(delta, router, template)` spec into a valid
/// time-ordered mining stream.
fn stream_of(spec: &[(i64, u32, u32)]) -> Vec<StreamItem> {
    let mut acc = 0i64;
    spec.iter()
        .map(|&(d, r, t)| {
            acc += d;
            (Timestamp(acc), RouterId(r), TemplateId(t))
        })
        .collect()
}

proptest! {
    #![proptest_config(cases(300))]
    #[test]
    fn cooccurrence_counting_matches_reference(
        spec in proptest::collection::vec((0i64..40, 0u32..3, 0u32..6), 0..80),
        w in 0i64..60,
    ) {
        let stream = stream_of(&spec);
        let opt = CoOccurrence::count(&stream, w);
        let reference = ref_count(&stream, w);
        prop_assert_eq!(reference.n_transactions, opt.n_transactions);
        let items: std::collections::BTreeMap<u32, u64> =
            opt.item_counts.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(&reference.item_counts, &items);
        let pairs: std::collections::BTreeMap<(u32, u32), u64> =
            opt.pair_counts.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(&reference.pair_counts, &pairs);
    }
}

proptest! {
    #![proptest_config(cases(300))]
    #[test]
    fn rule_extraction_matches_reference(
        spec in proptest::collection::vec((0i64..40, 0u32..3, 0u32..6), 0..80),
        w in 0i64..60,
        sp_min in 0.0f64..0.3,
        conf_min in 0.0f64..1.0,
    ) {
        let stream = stream_of(&spec);
        let cfg = MineConfig { sp_min, conf_min };
        let opt = mine(&CoOccurrence::count(&stream, w), &cfg);
        let opt: Vec<RefRule> = opt
            .rules()
            .iter()
            .map(|r| RefRule {
                x: r.x.0,
                y: r.y.0,
                support: r.support,
                confidence: r.confidence,
            })
            .collect();
        let reference = ref_mine(&ref_count(&stream, w), &cfg);
        // RefRule equality is derived (== on f64), which is exactly the
        // bitwise contract here: both sides divide identical integers.
        prop_assert_eq!(reference, opt);
    }
}

/// Build a message whose detail is drawn from a small vocabulary, so
/// generated corpora exercise splits, masks, and the k boundary.
fn vocab_msg(code: &str, words: (u8, u8, u8)) -> RawMessage {
    RawMessage::new(
        Timestamp(0),
        "r1",
        ErrorCode::from(code),
        format!("w{} w{} w{}", words.0, words.1, words.2),
    )
}

proptest! {
    #![proptest_config(cases(150))]
    #[test]
    fn template_learning_and_matching_match_reference(
        specs in proptest::collection::vec((0u8..2, (0u8..4, 0u8..12, 0u8..3)), 1..60),
        k in 2usize..12,
    ) {
        let msgs: Vec<RawMessage> = specs
            .iter()
            .map(|&(c, words)| vocab_msg(if c == 0 { "C-1-A" } else { "C-2-B" }, words))
            .collect();
        let cfg = LearnerConfig { k, ..LearnerConfig::default() };
        let set = learn(&msgs, &cfg);
        let mut opt: Vec<String> = set.iter().map(|(_, t)| t.masked()).collect();
        opt.sort();
        prop_assert_eq!(ref_learn(&msgs, &cfg), opt);
        // Matching: every training message and some unseen details resolve
        // to the same template in both matchers.
        for m in &msgs {
            let toks: Vec<&str> = m.detail().split_whitespace().collect();
            prop_assert_eq!(
                set.match_detail(m.code(), &toks),
                ref_match(&set, m.code(), m.detail())
            );
        }
        let code = "C-1-A";
        for unseen in ["w0 w99 w0", "w99 w99 w99", "w0 w0", "w0 w0 w0 w0"] {
            let toks: Vec<&str> = unseen.split_whitespace().collect();
            prop_assert_eq!(
                set.match_detail(code, &toks),
                ref_match(&set, code, unseen)
            );
        }
    }
}

// ------------------------------------------------------ rule-stage oracle

/// Window of the rule-dense toy knowledge, in seconds.
const TOY_W: i64 = 10;

/// The toy template numbered `t`: 6 stands for [`UNKNOWN_TEMPLATE`], which
/// a weekly refresh can mine into a rule.
fn toy_template(t: u32) -> TemplateId {
    if t == 6 {
        UNKNOWN_TEMPLATE
    } else {
        TemplateId(t)
    }
}

/// A knowledge base over the toy topology's locations whose rule set
/// relates the given toy template pairs, plus two fixed self-rules:
/// `2 ⇒ 2` (template 2 may have partners too) and `5 ⇒ 5` (template 5 has
/// none). Template 4 is in no rule.
fn rule_dense_knowledge(pairs: &[(u32, u32)]) -> DomainKnowledge {
    let dict = LocationDictionary::build(&render_all(&toy_topology()));
    let rules = pairs
        .iter()
        .chain(&[(2, 2), (5, 5)])
        .map(|&(x, y)| Rule {
            x: toy_template(x),
            y: toy_template(y),
            support: 0.5,
            confidence: 0.9,
        })
        .collect();
    DomainKnowledge::new(
        TemplateSet::default(),
        Interner::new(),
        dict,
        TemporalConfig::dataset_a(),
        RuleSet::new(rules),
        TOY_W,
        Default::default(),
    )
}

proptest! {
    #![proptest_config(cases(300))]
    /// The rule stage alone finds exactly the reference's rule edges on
    /// feeds with same-second arrivals, gaps of exactly W and W + 1,
    /// re-seen `(template, location)` keys, messages with no location and
    /// the unknown template as a rule partner.
    #[test]
    fn rule_stage_matches_reference(
        pairs in proptest::collection::vec((0u32..5, 0u32..5), 0..8),
        spec in proptest::collection::vec((0usize..6, 0u32..7, 0usize..6), 1..60),
    ) {
        // Pair ends 0..4 are templates 0..3 and the unknown template.
        let pairs: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(x, y)| (if x == 4 { 6 } else { x }, if y == 4 { 6 } else { y }))
            .collect();
        let k = rule_dense_knowledge(&pairs);
        let n_locs = k.dict.len() as u32;
        let gaps = [0, 0, 1, TOY_W - 1, TOY_W, TOY_W + 1];
        let mut ts = 0;
        let batch: Vec<SyslogPlus> = spec
            .iter()
            .enumerate()
            .map(|(idx, &(gap, template, loc))| {
                ts += gaps[gap];
                // Index 5 is no location; 0..5 pick among the first few,
                // so keys repeat.
                let locations: Vec<LocationId> = (loc < 5)
                    .then(|| LocationId(loc as u32 % n_locs))
                    .into_iter()
                    .collect();
                let router = locations
                    .first()
                    .map_or(RouterId(0), |&l| k.dict.router_of(l));
                SyslogPlus {
                    idx,
                    ts: Timestamp(ts),
                    router,
                    template: Some(toy_template(template)),
                    locations: locations.into(),
                }
            })
            .collect();
        let cfg = GroupingConfig {
            temporal: false,
            cross: false,
            ..GroupingConfig::default()
        };
        let opt: BTreeSet<_> = stage_edges(&k, &batch, &cfg).into_iter().collect();
        let reference: BTreeSet<_> = ref_edges(&k, &batch, &cfg).into_iter().collect();
        prop_assert_eq!(reference, opt);
    }
}

proptest! {
    #![proptest_config(cases(300))]
    /// The temporal stage alone finds exactly the reference's temporal
    /// edges on feeds with many templates at one location, locationless
    /// messages on several routers, primary locations owned by another
    /// router than the message's, and the unknown template, with gaps
    /// from the same second to past Smax.
    #[test]
    fn temporal_stage_matches_reference(
        spec in proptest::collection::vec((0usize..7, 0u32..4, 0u32..7, 0usize..5), 1..80),
    ) {
        let k = rule_dense_knowledge(&[]);
        let n_locs = k.dict.len() as u32;
        let gaps = [0, 1, 2, 5, 60, 3_000, 20_000];
        let mut ts = 0;
        let batch: Vec<SyslogPlus> = spec
            .iter()
            .enumerate()
            .map(|(idx, &(gap, router, template, loc))| {
                ts += gaps[gap];
                // Index 4 is no location; 0..4 pick among a few, whose
                // owner need not be the message's router.
                let locations: Vec<LocationId> = (loc < 4)
                    .then(|| LocationId((7 * loc as u32) % n_locs))
                    .into_iter()
                    .collect();
                SyslogPlus {
                    idx,
                    ts: Timestamp(ts),
                    router: RouterId(router),
                    template: Some(toy_template(template)),
                    locations: locations.into(),
                }
            })
            .collect();
        let cfg = GroupingConfig::t_only();
        let opt: BTreeSet<_> = stage_edges(&k, &batch, &cfg).into_iter().collect();
        let reference: BTreeSet<_> = ref_edges(&k, &batch, &cfg).into_iter().collect();
        prop_assert_eq!(reference, opt);
    }
}
