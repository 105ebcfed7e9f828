//! Whole-system integration: generate a network, learn offline, persist
//! the knowledge base, digest online traffic — across crates, through the
//! workspace facade.

use syslogdigest_repro::digest::digest;
use syslogdigest_repro::digest::offline::{learn, OfflineConfig};
use syslogdigest_repro::digest::DomainKnowledge;
use syslogdigest_repro::digest::GroupingConfig;
use syslogdigest_repro::netsim::{Dataset, DatasetSpec};
use syslogdigest_repro::telemetry::Telemetry;

fn setup_a() -> (Dataset, DomainKnowledge) {
    let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.1), &Telemetry::disabled());
    let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
    (d, k)
}

#[test]
fn digest_is_deterministic() {
    let (d, k) = setup_a();
    let r1 = digest(&k, d.online(), &GroupingConfig::default());
    let r2 = digest(&k, d.online(), &GroupingConfig::default());
    assert_eq!(r1.events.len(), r2.events.len());
    for (a, b) in r1.events.iter().zip(&r2.events) {
        assert_eq!(a.format_line(), b.format_line());
        assert_eq!(a.message_idxs, b.message_idxs);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}

#[test]
fn knowledge_base_survives_serialization() {
    let (d, k) = setup_a();
    let json = k.to_json().expect("serialize");
    let k2 = DomainKnowledge::from_json(&json).expect("deserialize");
    let r1 = digest(&k, d.online(), &GroupingConfig::default());
    let r2 = digest(&k2, d.online(), &GroupingConfig::default());
    assert_eq!(r1.events.len(), r2.events.len());
    for (a, b) in r1.events.iter().zip(&r2.events) {
        assert_eq!(a.format_line(), b.format_line());
    }
}

#[test]
fn wire_format_roundtrip_preserves_the_digest() {
    // Messages serialized to syslog lines and parsed back must digest to
    // the same events (the gt tags are lost, which the pipeline never
    // uses anyway).
    let (d, k) = setup_a();
    let window = &d.online()[..d.online().len().min(20_000)];
    let reparsed: Vec<syslogdigest_repro::model::RawMessage> = window
        .iter()
        .map(|m| {
            syslogdigest_repro::model::RawMessage::parse_line(&m.to_line())
                .expect("every generated line parses")
        })
        .collect();
    let r1 = digest(&k, window, &GroupingConfig::default());
    let r2 = digest(&k, &reparsed, &GroupingConfig::default());
    assert_eq!(r1.events.len(), r2.events.len());
}

#[test]
fn both_vendors_compress_by_two_orders_of_magnitude() {
    for (spec, cfg) in [
        (
            DatasetSpec::preset_a().scaled(0.15),
            OfflineConfig::dataset_a(),
        ),
        (
            DatasetSpec::preset_b().scaled(0.15),
            OfflineConfig::dataset_b(),
        ),
    ] {
        let name = spec.name.clone();
        let d = Dataset::generate(spec, &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &cfg);
        let r = digest(&k, d.online(), &GroupingConfig::default());
        let ratio = r.compression_ratio();
        assert!(
            ratio < 2.5e-2,
            "dataset {name}: ratio {ratio:.2e} ({} events / {} msgs)",
            r.events.len(),
            r.n_input
        );
        assert_eq!(r.n_dropped, 0, "dataset {name}: dropped messages");
    }
}

#[test]
fn stage_stacking_is_monotone_on_real_data() {
    let (d, k) = setup_a();
    let t = digest(&k, d.online(), &GroupingConfig::t_only())
        .events
        .len();
    let tr = digest(&k, d.online(), &GroupingConfig::t_r()).events.len();
    let trc = digest(&k, d.online(), &GroupingConfig::default())
        .events
        .len();
    assert!(t >= tr, "T {t} < T+R {tr}");
    assert!(tr >= trc, "T+R {tr} < T+R+C {trc}");
}

#[test]
fn ticket_experiment_matches_all_top_tickets() {
    let d = Dataset::generate(DatasetSpec::preset_b().scaled(0.2), &Telemetry::disabled());
    let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_b());
    let report = syslogdigest_repro::tickets::run_ticket_experiment(&d, &k, 10, 0.10, 0xBEEF);
    assert!(report.n_tickets > 0);
    assert_eq!(
        report.n_matched, report.n_tickets,
        "ranks {:?}",
        report.best_ranks
    );
}
