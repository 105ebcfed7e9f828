//! The offline domain-knowledge learning pipeline (left half of Figure 1):
//! signature identification → location extraction → signature matching /
//! location parsing of the historical data → temporal mining → rule
//! mining, producing a [`DomainKnowledge`] base.

use crate::augment::AugmentMemo;
use crate::grouping::tkey;
use crate::knowledge::DomainKnowledge;
use sd_locations::LocationDictionary;
use sd_model::{Interner, Parallelism, RawMessage, Timestamp};
use sd_rules::{mine, CoOccurrence, MineConfig, StreamItem};
use sd_telemetry::Telemetry;
use sd_templates::LearnerConfig;
use sd_temporal::{SeriesSet, TemporalConfig};
use std::collections::{BTreeMap, HashMap};

/// Offline learning configuration.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Template learner knobs.
    pub learner: LearnerConfig,
    /// Rule mining thresholds.
    pub mine: MineConfig,
    /// Transaction / rule-grouping window W in seconds.
    pub window_secs: i64,
    /// The calibrated EWMA α/β handed to the online half (Table 6). The
    /// Table 6 and Figure 10–11 experiments calibrate them on
    /// [`history`] with `sd_temporal::calibrate`.
    pub temporal: TemporalConfig,
    /// Ignored: every offline pass runs on the calling thread.
    pub par: Parallelism,
}

impl OfflineConfig {
    /// Table 6 defaults for dataset A (W = 120 s).
    pub fn dataset_a() -> Self {
        OfflineConfig {
            learner: LearnerConfig::default(),
            mine: MineConfig::default(),
            window_secs: 120,
            temporal: TemporalConfig::dataset_a(),
            par: Parallelism::sequential(),
        }
    }

    /// Table 6 defaults for dataset B (W = 40 s).
    pub fn dataset_b() -> Self {
        OfflineConfig {
            window_secs: 40,
            temporal: TemporalConfig::dataset_b(),
            ..Self::dataset_a()
        }
    }
}

/// Run offline learning over router configs and historical messages.
pub fn learn(configs: &[String], train: &[RawMessage], cfg: &OfflineConfig) -> DomainKnowledge {
    learn_instrumented(configs, train, cfg, &Telemetry::disabled())
}

/// [`learn`] with per-stage span timings and summary counters recorded
/// into `tel`. The learned knowledge is identical — telemetry is strictly
/// observational.
pub fn learn_instrumented(
    configs: &[String],
    train: &[RawMessage],
    cfg: &OfflineConfig,
    tel: &Telemetry,
) -> DomainKnowledge {
    // 1. Signature identification.
    let templates = {
        let _g = tel.time("learn.templates");
        sd_templates::learn(train, &cfg.learner)
    };

    // 2. Per-code fallbacks for online messages that match nothing.
    let mut fallback = Interner::new();
    for m in train {
        fallback.intern(m.code.as_str());
    }

    // 3. Location dictionary from configs.
    let dict = {
        let _g = tel.time("learn.locations");
        LocationDictionary::build(configs)
    };

    // Provisional knowledge for augmenting the historical data.
    let mut k = DomainKnowledge::new(
        templates,
        fallback,
        dict,
        cfg.temporal,
        sd_rules::RuleSet::default(),
        cfg.window_secs,
        HashMap::new(),
    );

    // 4. Augment history once; build the mining stream, the temporal
    //    series and the frequency table.
    let h = {
        let _g = tel.time("learn.history");
        history(&k, train)
    };

    // 5. Rule mining.
    let rules = {
        let _g = tel.time("learn.rules");
        let co = CoOccurrence::count(&h.stream, cfg.window_secs);
        mine(&co, &cfg.mine)
    };

    // Finish the provisional knowledge in place; its frequency table is
    // still empty, so merging sets it to exactly `h.freq`.
    k.rules = rules;
    k.merge_frequencies(h.freq);
    tel.counter("learn.n_train").add(train.len() as u64);
    tel.counter("learn.n_templates")
        .add(k.templates.len() as u64);
    tel.counter("learn.n_rules").add(k.rules.len() as u64);
    k
}

/// What one augmented pass over history yields: everything the offline
/// stages after augmentation read.
pub struct History {
    /// The `(ts, router, template)` rule-mining stream, in input order.
    pub stream: Vec<StreamItem>,
    /// Per-`(router, template, location)` timestamp series, key-ordered,
    /// for the α/β calibration sweeps (Figures 10–11).
    pub series: SeriesSet,
    /// `(router, template)` message counts for the priority score.
    pub(crate) freq: HashMap<(u32, u32), u64>,
}

/// Augment time-sorted history once, through one augmentation memo, and
/// build its [`History`]. The series are key-ordered so that the
/// [`SeriesSet`] handed to calibration is deterministic (its f64 ratio
/// sums are order-sensitive).
pub fn history(k: &DomainKnowledge, msgs: &[RawMessage]) -> History {
    let mut stream: Vec<StreamItem> = Vec::with_capacity(msgs.len());
    let mut series: BTreeMap<(u32, u32, u32), Vec<Timestamp>> = BTreeMap::new();
    let mut freq: HashMap<(u32, u32), u64> = HashMap::new();
    let mut memo = AugmentMemo::new();
    for (idx, m) in msgs.iter().enumerate() {
        let Some(sp) = memo.augment(k, idx, m) else {
            continue;
        };
        let t = sp.template.expect("offline augmentation always assigns");
        stream.push((sp.ts, sp.router, t));
        *freq.entry((sp.router.0, t.0)).or_insert(0) += 1;
        series.entry(tkey(&sp)).or_default().push(sp.ts);
    }
    History {
        stream,
        series: series.into_values().collect(),
        freq,
    }
}

/// Weekly knowledge refresh (§3.1: offline learning "will be periodically
/// run to incorporate the latest changes"): mine one new week of history
/// into the evolving rule base with the §4.1.4 conservative update, and
/// fold the week's signature frequencies into the scoring table, swapping
/// the refreshed rule set into the knowledge base.
pub fn refresh_weekly(
    k: &mut DomainKnowledge,
    base: &mut sd_rules::RuleBase,
    week: &[RawMessage],
    cfg: &OfflineConfig,
) -> sd_rules::UpdateStats {
    let h = history(k, week);
    k.merge_frequencies(h.freq);
    let co = CoOccurrence::count(&h.stream, k.window_secs);
    let stats = base.update(&co, &cfg.mine);
    k.rules = base.snapshot();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_netsim::{Dataset, DatasetSpec};

    #[test]
    fn learn_builds_complete_knowledge() {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.1), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        assert!(k.templates.len() > 10, "templates {}", k.templates.len());
        assert!(!k.dict.is_empty());
        assert!(!k.rules.is_empty(), "expected some rules");
        assert_eq!(k.window_secs, 120);
        // Link flaps guarantee the LINK <-> LINEPROTO rule.
        let mut link = None;
        let mut proto = None;
        for (id, t) in k.templates.iter() {
            let m = t.masked();
            if m.starts_with("LINK-3-UPDOWN") && m.ends_with("down") {
                link = Some(id);
            }
            if m.starts_with("LINEPROTO-5-UPDOWN") && m.ends_with("down") {
                proto = Some(id);
            }
        }
        let (link, proto) = (link.expect("link template"), proto.expect("proto template"));
        assert!(
            k.rules.related(link, proto),
            "LINK<->LINEPROTO rule missing"
        );
    }

    /// The three views of one history pass count the same messages.
    #[test]
    fn history_views_agree() {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.05), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        let h = history(&k, d.train());
        let n = h.stream.len();
        assert!(n > 0);
        assert_eq!(h.series.iter().map(Vec::len).sum::<usize>(), n);
        assert_eq!(h.freq.values().sum::<u64>(), n as u64);
    }

    #[test]
    fn weekly_refresh_updates_the_rule_base() {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.1), &Telemetry::disabled());
        let mut k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        let mut base = sd_rules::RuleBase::new();
        let weeks = d.spec.train_days.div_ceil(7);
        let mut last_total = 0usize;
        for w in 0..weeks {
            let stats = refresh_weekly(
                &mut k,
                &mut base,
                d.train_week(w),
                &OfflineConfig::dataset_a(),
            );
            assert_eq!(stats.total, base.len());
            last_total = stats.total;
        }
        assert!(last_total > 0, "no rules after weekly refresh");
        assert_eq!(k.rules.len(), last_total, "snapshot swapped in");
    }
}
