//! Telemetry neutrality (ISSUE 3 satellite S3): observing the pipeline
//! must never change what it produces.
//!
//! * The digest report is **byte-identical** with telemetry on vs off,
//!   with provenance tracing on vs off, and at 1 vs N worker threads —
//!   including the event ids stamped on every event.
//! * Registry counters are not a second bookkeeping system: they must
//!   equal the legacy `IngestStats`/`StreamStats` views exactly, across
//!   the fault-injection matrix.
//! * The Prometheus snapshot of a real run parses under the strict
//!   exposition validator, and provenance records line up 1:1 with the
//!   emitted events.

use std::sync::OnceLock;
use syslogdigest_repro::digest::offline::{learn, learn_instrumented, OfflineConfig};
use syslogdigest_repro::digest::DomainKnowledge;
use syslogdigest_repro::digest::FaultTolerantIngest;
use syslogdigest_repro::digest::GroupingConfig;
use syslogdigest_repro::digest::StreamConfig;
use syslogdigest_repro::digest::{digest, digest_instrumented};
use syslogdigest_repro::model::Parallelism;
use syslogdigest_repro::netsim::{inject, Dataset, DatasetSpec, FaultSpec};
use syslogdigest_repro::telemetry::{validate_exposition, Telemetry};

fn setup() -> &'static (Dataset, DomainKnowledge) {
    static CELL: OnceLock<(Dataset, DomainKnowledge)> = OnceLock::new();
    CELL.get_or_init(|| {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        (d, k)
    })
}

/// Full presentation bytes incl. ids — the strictest comparison we have.
fn render(events: &[syslogdigest_repro::digest::NetworkEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!("{} {}\n", e.id, e.format_line()));
    }
    out
}

#[test]
fn batch_digest_is_byte_identical_with_telemetry_on_off_and_traced() {
    let (d, k) = setup();
    let online = d.online();
    let cfg = GroupingConfig::default();

    let plain = digest(k, online, &cfg);
    let (instrumented, no_prov) = digest_instrumented(k, online, &cfg, &Telemetry::new(), false);
    let (traced, prov) = digest_instrumented(k, online, &cfg, &Telemetry::new(), true);

    assert_eq!(render(&plain.events), render(&instrumented.events));
    assert_eq!(render(&plain.events), render(&traced.events));
    assert!(no_prov.is_none());

    // Provenance lines up 1:1 with the emitted events: same ids, same
    // sizes, same router sets.
    let prov = prov.expect("tracing was enabled");
    assert_eq!(prov.len(), traced.events.len());
    for (ev, p) in traced.events.iter().zip(&prov) {
        assert_eq!(ev.id, p.event_id);
        assert_eq!(ev.message_idxs.len(), p.n_messages);
        assert_eq!(ev.routers.len(), p.routers.len());
    }
    // Ids are the 1-based presentation ranks.
    for (i, ev) in traced.events.iter().enumerate() {
        assert_eq!(ev.id, i as u64 + 1);
    }
}

#[test]
fn batch_digest_is_byte_identical_across_thread_counts() {
    let (d, k) = setup();
    let online = d.online();
    let base = GroupingConfig {
        par: Parallelism::with_threads(1),
        ..GroupingConfig::default()
    };
    let tel = Telemetry::new();
    let (one, _) = digest_instrumented(k, online, &base, &tel, false);
    for t in [2, 4] {
        let cfg = GroupingConfig {
            par: Parallelism::with_threads(t),
            ..GroupingConfig::default()
        };
        let (many, _) = digest_instrumented(k, online, &cfg, &Telemetry::new(), false);
        assert_eq!(
            render(&one.events),
            render(&many.events),
            "digest differs at {t} threads"
        );
    }
}

#[test]
fn learned_knowledge_is_byte_identical_with_telemetry_on() {
    let (d, _) = setup();
    let cfg = OfflineConfig::dataset_a();
    let plain = learn(&d.configs, d.train(), &cfg)
        .to_json()
        .expect("knowledge serializes");
    let instrumented = learn_instrumented(&d.configs, d.train(), &cfg, &Telemetry::new())
        .to_json()
        .expect("knowledge serializes");
    assert_eq!(plain, instrumented);
}

#[test]
fn registry_counters_equal_the_legacy_stats_views_across_fault_seeds() {
    let (d, k) = setup();
    let online = d.online();
    let n = online.len().min(4000);
    for seed in [1u64, 2, 3] {
        let (lines, _) = inject(&online[..n], &FaultSpec::bounded(seed));
        let tel = Telemetry::new();
        let mut ing = FaultTolerantIngest::with_telemetry(
            k,
            GroupingConfig::default(),
            StreamConfig::default(),
            30,
            &tel,
        );
        let mut events = Vec::new();
        for line in &lines {
            events.extend(ing.push_line(line));
        }
        // Snapshot before finish(): the final flush moves the counters.
        let stats = ing.stats();
        let snap = tel.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0) as usize;
        assert_eq!(c("ingest.n_lines"), stats.n_lines, "seed {seed}");
        assert_eq!(c("ingest.n_malformed"), stats.n_malformed, "seed {seed}");
        assert_eq!(c("ingest.n_late"), stats.n_late, "seed {seed}");
        assert_eq!(c("ingest.n_duplicate"), stats.n_duplicate, "seed {seed}");
        assert_eq!(c("stream.n_input"), stats.digester.n_input, "seed {seed}");
        assert_eq!(
            c("stream.n_dropped"),
            stats.digester.n_dropped,
            "seed {seed}"
        );
        assert_eq!(
            c("stream.n_force_closed"),
            stats.digester.n_force_closed,
            "seed {seed}"
        );
        assert_eq!(
            c("stream.n_inconsistent"),
            stats.digester.n_inconsistent,
            "seed {seed}"
        );
        // After finish the live registry reflects the final stats view,
        // and every emitted event was counted.
        let (rest, final_stats) = ing.finish();
        events.extend(rest);
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter("stream.n_input").unwrap_or(0) as usize,
            final_stats.digester.n_input,
            "seed {seed}"
        );
        assert_eq!(
            snap.counter("stream.n_events").unwrap_or(0) as usize,
            events.len(),
            "seed {seed}"
        );
    }
}

#[test]
fn streaming_ingest_is_identical_with_telemetry_and_tracing_on() {
    let (d, k) = setup();
    let online = d.online();
    let n = online.len().min(4000);

    let run = |tel: &Telemetry, trace: bool| {
        let mut ing = FaultTolerantIngest::with_telemetry(
            k,
            GroupingConfig::default(),
            StreamConfig::default(),
            30,
            tel,
        );
        ing.set_trace(trace);
        let mut events = Vec::new();
        for m in &online[..n] {
            events.extend(ing.push_message(m.clone()));
        }
        let (rest, _) = ing.finish();
        events.extend(rest);
        let prov = ing.take_provenance();
        (render(&events), events.len(), prov)
    };

    let (off, n_off, _) = run(&Telemetry::disabled(), false);
    let (on, _, _) = run(&Telemetry::new(), false);
    let (traced, _, prov) = run(&Telemetry::new(), true);
    assert_eq!(off, on, "telemetry changed the stream digest");
    assert_eq!(off, traced, "tracing changed the stream digest");
    // Streaming ids are the emission sequence; tracing covers every event.
    assert_eq!(prov.len(), n_off);
    let mut ids: Vec<u64> = prov.iter().map(|p| p.event_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=n_off as u64).collect::<Vec<_>>());
}

#[test]
fn event_ids_continue_across_checkpoint_resume() {
    let (d, k) = setup();
    let online = d.online();
    let n = online.len().min(4000);
    let cut = n / 2;
    let (cfg, scfg) = (GroupingConfig::default(), StreamConfig::default());

    let run_whole = || {
        let mut ing = FaultTolerantIngest::with_telemetry(k, cfg, scfg, 30, &Telemetry::disabled());
        let mut events = Vec::new();
        for m in &online[..n] {
            events.extend(ing.push_message(m.clone()));
        }
        let (rest, _) = ing.finish();
        events.extend(rest);
        events
    };
    let whole = run_whole();

    let mut first = FaultTolerantIngest::with_telemetry(k, cfg, scfg, 30, &Telemetry::disabled());
    let mut split = Vec::new();
    for m in &online[..cut] {
        split.extend(first.push_message(m.clone()));
    }
    let snap = first.checkpoint();
    drop(first);
    let json = snap.to_json().expect("snapshot serializes");
    let snap =
        syslogdigest_repro::digest::StreamSnapshot::from_json(&json).expect("snapshot parses");
    let mut second =
        FaultTolerantIngest::resume_with_telemetry(k, &snap, &Telemetry::new()).expect("resume");
    for m in &online[cut..n] {
        split.extend(second.push_message(m.clone()));
    }
    let (rest, _) = second.finish();
    split.extend(rest);

    // The emission-sequence ids must continue through the snapshot: the
    // resumed run assigns exactly the ids the uninterrupted run would.
    assert_eq!(render(&whole), render(&split));
}

#[test]
fn prometheus_snapshot_of_a_real_run_validates() {
    let (d, k) = setup();
    let online = d.online();
    let tel = Telemetry::new();
    let _ = digest_instrumented(k, online, &GroupingConfig::default(), &tel, false);
    let text = tel.snapshot().to_prometheus();
    let samples = validate_exposition(&text).expect("exposition must parse");
    assert!(samples > 0, "snapshot has no samples");
    assert!(text.contains("sd_digest_n_input"), "{text}");
    assert!(text.contains("sd_span_seconds_total"), "{text}");
}
