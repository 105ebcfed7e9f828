//! End-to-end template learning against the netsim ground-truth grammar —
//! the §5.2.1 validation (the paper reports 94 % of templates matching).
//!
//! Template learning needs each message type to appear enough times for
//! variable fields to show their cardinality, so these tests shorten the
//! *period* but keep per-day rates at preset levels (the `exp_templates`
//! bench binary runs the full 12-week version).

use sd_model::Parallelism;
use sd_netsim::{Dataset, DatasetSpec};
use sd_telemetry::Telemetry;
use sd_templates::{learn, LearnerConfig};

fn check(mut spec: DatasetSpec, floor: f64) {
    spec.train_days = 35;
    spec.online_days = 1;
    spec.intensity = 1.0; // cascade depth is irrelevant to template shapes
    spec.noise_per_day *= 3.0; // concentrate tail-type instances into fewer days
    let name = spec.name.clone();
    let d = Dataset::generate(spec, &Telemetry::disabled());
    let set = learn(
        d.train(),
        &LearnerConfig::default(),
        Parallelism::sequential(),
    );
    let gt = d.grammar.masked_set();
    let acc = set.accuracy_against(&gt);
    assert!(
        acc >= floor,
        "dataset {name}: template accuracy {acc:.3} below floor {floor}"
    );
    // Matching coverage: almost all training messages should match some
    // learned template.
    let sample = d.train().iter().step_by(37);
    let mut total = 0usize;
    let mut matched = 0usize;
    for m in sample {
        total += 1;
        if set.match_message(m).is_some() {
            matched += 1;
        }
    }
    let cov = matched as f64 / total as f64;
    assert!(cov > 0.98, "dataset {name}: match coverage {cov:.3}");
}

#[test]
fn dataset_a_templates_mostly_match_ground_truth() {
    check(DatasetSpec::preset_a(), 0.85);
}

#[test]
fn dataset_b_templates_mostly_match_ground_truth() {
    check(DatasetSpec::preset_b(), 0.85);
}
