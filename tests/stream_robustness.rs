//! Integration tests for the fault-tolerant streaming ingest layer.
//!
//! The keystone property (ISSUE 2): a feed perturbed by *bounded* faults —
//! reordering within `max_skew_secs`, duplicates, burst floods, corrupted
//! copies — digested through the reorder buffer yields **exactly** the
//! partition of the clean feed; beyond the bounds the layer counts the
//! damage and never panics. Plus: checkpoint/kill/resume equals an
//! uninterrupted run, through an actual snapshot file on disk.
//!
//! The fault seeds are configurable with `SD_FAULT_SEEDS` (comma-separated
//! u64s) so CI can sweep a matrix without recompiling.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use syslogdigest_repro::digest::digest_instrumented;
use syslogdigest_repro::digest::offline::{learn, OfflineConfig};
use syslogdigest_repro::digest::DomainKnowledge;
use syslogdigest_repro::digest::FaultTolerantIngest;
use syslogdigest_repro::digest::GroupingConfig;
use syslogdigest_repro::digest::{
    augment_batch_isolated, generation_path, set_poison_marker, stage_edges, GroupProv, MergeCause,
    NetworkEvent,
};
use syslogdigest_repro::digest::{CheckpointError, StreamSnapshot};
use syslogdigest_repro::digest::{StreamConfig, StreamDigester};
use syslogdigest_repro::model::{sort_batch, Parallelism, RawMessage};
use syslogdigest_repro::netsim::{
    inject, poison_message, Corpus, Dataset, DatasetSpec, FaultSpec, GOLDEN_SCALE, GOLDEN_SEEDS,
    POISON_MARKER,
};
use syslogdigest_repro::telemetry::Telemetry;

fn setup() -> &'static (Dataset, DomainKnowledge) {
    static CELL: OnceLock<(Dataset, DomainKnowledge)> = OnceLock::new();
    CELL.get_or_init(|| {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        (d, k)
    })
}

fn fault_seeds() -> Vec<u64> {
    match std::env::var("SD_FAULT_SEEDS") {
        Ok(s) => s.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

/// A fault-tolerant ingest layer with default limits and no telemetry.
fn new_ingest(k: &DomainKnowledge, max_skew: i64) -> FaultTolerantIngest<'_> {
    let (cfg, scfg) = (GroupingConfig::default(), StreamConfig::default());
    FaultTolerantIngest::with_telemetry(k, cfg, scfg, max_skew, &Telemetry::disabled())
}

fn ingest_lines<'a>(
    k: &'a DomainKnowledge,
    lines: impl Iterator<Item = &'a str>,
    max_skew: i64,
) -> (Vec<NetworkEvent>, syslogdigest_repro::digest::IngestStats) {
    let mut ing = new_ingest(k, max_skew);
    let mut events = Vec::new();
    for line in lines {
        events.extend(ing.push_line(line));
    }
    let (rest, stats) = ing.finish();
    events.extend(rest);
    (events, stats)
}

/// Events as a comparable partition + presentation fingerprint. Both runs
/// pass through the same ingest layer, so sequence numbers line up and the
/// comparison is exact, not just structural.
fn digest_fingerprint(events: &[NetworkEvent]) -> Vec<(Vec<usize>, String)> {
    let mut v: Vec<(Vec<usize>, String)> = events
        .iter()
        .map(|e| (e.message_idxs.clone(), e.format_line()))
        .collect();
    v.sort();
    v
}

/// KEYSTONE: bounded faults (reordering ≤ max_skew, duplicates, bursts,
/// ~1% corrupted copies) digest to the exact clean-feed result.
#[test]
fn bounded_faults_digest_to_the_exact_clean_partition() {
    let (d, k) = setup();
    let clean: Vec<String> = d.online().iter().map(|m| m.to_line()).collect();

    for seed in fault_seeds() {
        let spec = FaultSpec::bounded(seed);
        assert!(spec.reorder_secs <= 30, "preset must stay within the skew");
        let (faulted, report) = inject(d.online(), &spec);

        let (clean_events, clean_stats) = ingest_lines(k, clean.iter().map(String::as_str), 30);
        let (fault_events, fault_stats) = ingest_lines(k, faulted.iter().map(String::as_str), 30);

        assert_eq!(
            digest_fingerprint(&clean_events),
            digest_fingerprint(&fault_events),
            "seed {seed}: faulted partition diverged from clean partition"
        );
        // Every injected fault is visible in the counters.
        assert_eq!(fault_stats.n_malformed, report.n_corrupted, "seed {seed}");
        assert_eq!(
            fault_stats.n_late + fault_stats.n_duplicate,
            report.n_duplicated + clean_stats.n_duplicate,
            "seed {seed}: every duplicate delivery is absorbed or late-dropped"
        );
        assert_eq!(fault_stats.digester.n_inconsistent, 0, "seed {seed}");
    }
}

/// Beyond-bounds faults (reordering past the skew window, drops, clock
/// skew) must be survived and counted — equivalence is impossible, panics
/// are unacceptable.
#[test]
fn hostile_faults_are_counted_never_panicked_on() {
    let (d, k) = setup();
    let n = d.online().len().min(6000);
    for seed in fault_seeds() {
        let (faulted, report) = inject(&d.online()[..n], &FaultSpec::hostile(seed));
        let (events, stats) = ingest_lines(k, faulted.iter().map(String::as_str), 30);
        assert!(!events.is_empty(), "seed {seed}: nothing digested");
        assert!(report.n_dropped > 0);
        assert!(
            stats.n_late > 0,
            "seed {seed}: hour-scale reordering must produce late drops"
        );
        assert!(stats.n_malformed > 0, "seed {seed}");
        assert_eq!(stats.digester.n_inconsistent, 0, "seed {seed}");
    }
}

/// Checkpoint mid-feed, "kill" the process (drop the ingest), resume from
/// the snapshot *file*, and finish: same events as an uninterrupted run.
#[test]
fn kill_and_resume_from_snapshot_file_equals_uninterrupted_run() {
    let (d, k) = setup();
    let (faulted, _) = inject(d.online(), &FaultSpec::bounded(11));
    let cut = faulted.len() / 3;

    let (uninterrupted, _) = ingest_lines(k, faulted.iter().map(String::as_str), 30);

    let dir = std::env::temp_dir().join(format!("sd-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mid.ckpt");

    let mut first = new_ingest(k, 30);
    let mut events = Vec::new();
    for line in &faulted[..cut] {
        events.extend(first.push_line(line));
    }
    first.checkpoint().save(&path).expect("checkpoint saves");
    drop(first); // the kill

    let snap = StreamSnapshot::load(&path).expect("checkpoint loads");
    assert_eq!(snap.lines_consumed(), cut);
    let mut second = FaultTolerantIngest::resume_with_telemetry(k, &snap, &Telemetry::disabled())
        .expect("resume");
    for line in &faulted[cut..] {
        events.extend(second.push_line(line));
    }
    let (rest, _) = second.finish();
    events.extend(rest);

    assert_eq!(
        digest_fingerprint(&uninterrupted),
        digest_fingerprint(&events),
        "resumed run diverged from uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write a valid mid-stream checkpoint to disk and return its bytes,
/// the lines consumed, and the feed it came from.
fn saved_snapshot(dir: &std::path::Path) -> (std::path::PathBuf, Vec<u8>, usize) {
    let (d, k) = setup();
    let lines: Vec<String> = d.online().iter().map(|m| m.to_line()).collect();
    let cut = 200.min(lines.len() / 2);
    let mut ing = new_ingest(k, 30);
    for line in &lines[..cut] {
        ing.push_line(line);
    }
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("snap.ckpt");
    ing.checkpoint().save(&path).expect("snapshot saves");
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes, cut)
}

/// DURABILITY: a checkpoint truncated at *every* byte offset is rejected
/// with a typed error — never a panic, never a silently wrong resume —
/// and an intact older generation always recovers.
#[test]
fn every_truncation_offset_is_rejected_and_older_generation_recovers() {
    let dir = std::env::temp_dir().join(format!("sd-truncate-{}", std::process::id()));
    let (path, bytes, cut) = saved_snapshot(&dir);
    // The pristine snapshot also lives one generation back.
    std::fs::copy(&path, generation_path(&path, 1)).unwrap();

    for at in 0..bytes.len() {
        std::fs::write(&path, &bytes[..at]).unwrap();
        match StreamSnapshot::load(&path) {
            Err(CheckpointError::Artifact(_) | CheckpointError::Corrupt(_)) => {}
            Err(other) => panic!("truncation at {at}: unexpected error kind {other}"),
            Ok(_) => panic!("truncation at {at} loaded successfully"),
        }
        // Recovery re-parses the full older generation, so exercise it on
        // a stride plus the interesting boundaries rather than at all
        // ~10^4-10^5 offsets (the load above is the exhaustive part).
        if at % 509 == 0 || at < 32 || at + 32 > bytes.len() {
            let (snap, report) = StreamSnapshot::recover_last_good(&path, 1)
                .expect("older generation must recover")
                .expect("generation 1 exists");
            assert_eq!(report.generation, 1, "truncation at {at}");
            assert_eq!(report.n_corrupt, 1, "truncation at {at}");
            assert_eq!(snap.lines_consumed(), cut, "truncation at {at}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// DURABILITY: a mid-feed crash loses at most one checkpoint interval —
/// corrupting the generation being written falls back to the previous
/// one, and the recovered replay equals the uninterrupted run exactly.
#[test]
fn generation_fallback_resumes_within_one_interval() {
    let (d, k) = setup();
    let (faulted, _) = inject(d.online(), &FaultSpec::bounded(7));
    let every = faulted.len() / 6;
    let cut = (faulted.len() * 2 / 3) / every * every; // crash at a save boundary
    assert!(cut >= 2 * every, "feed too short for two generations");

    let (uninterrupted, _) = ingest_lines(k, faulted.iter().map(String::as_str), 30);

    let dir = std::env::temp_dir().join(format!("sd-fallback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let mut first = new_ingest(k, 30);
    let mut prefix_events = Vec::new();
    let mut events_at_save = Vec::new(); // events emitted by each save point
    for (i, line) in faulted[..cut].iter().enumerate() {
        prefix_events.extend(first.push_line(line));
        if (i + 1) % every == 0 {
            first
                .checkpoint()
                .save_rotated(&path, 2)
                .expect("rotated save");
            events_at_save.push((i + 1, prefix_events.len()));
        }
    }
    drop(first); // the kill, mid-write of generation 0:
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let (mut second, report) =
        FaultTolerantIngest::recover_with_telemetry(k, &path, 2, &Telemetry::disabled())
            .expect("recovery succeeds")
            .expect("a generation exists");
    assert_eq!(report.generation, 1);
    assert_eq!(report.n_corrupt, 1);
    let consumed = report.lines_consumed;
    assert!(
        cut - consumed <= every,
        "lost {} lines, more than one interval ({every})",
        cut - consumed
    );
    let &(_, n_events) = events_at_save
        .iter()
        .find(|&&(n, _)| n == consumed)
        .expect("recovered to a save point");

    let mut events: Vec<NetworkEvent> = prefix_events[..n_events].to_vec();
    for line in &faulted[consumed..] {
        events.extend(second.push_line(line));
    }
    let (rest, _) = second.finish();
    events.extend(rest);

    assert_eq!(
        digest_fingerprint(&uninterrupted),
        digest_fingerprint(&events),
        "recovered replay diverged from uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// QUARANTINE: a poison message whose augmentation panics is quarantined —
/// counted once, recorded once — and the digest is byte-identical to a
/// feed that never contained the message.
#[test]
fn quarantined_poison_message_leaves_digest_byte_identical() {
    let (d, k) = setup();
    let n = d.online().len().min(4000);
    let msgs = &d.online()[..n];
    let clean: Vec<String> = msgs.iter().map(|m| m.to_line()).collect();
    let mid = n / 2;
    let poison = poison_message(msgs[mid].ts, msgs[mid].router());
    let mut poisoned = clean.clone();
    poisoned.insert(mid, poison.to_line());

    set_poison_marker(Some(POISON_MARKER));
    let (clean_events, clean_stats) = ingest_lines(k, clean.iter().map(String::as_str), 0);
    let (pois_events, pois_stats) = ingest_lines(k, poisoned.iter().map(String::as_str), 0);
    set_poison_marker(None);

    assert_eq!(clean_stats.digester.n_quarantined, 0);
    assert_eq!(pois_stats.digester.n_quarantined, 1);
    assert_eq!(
        digest_fingerprint(&clean_events),
        digest_fingerprint(&pois_events),
        "digest with a quarantined message diverged from the poison-free feed"
    );
}

/// Count links per cause: `(temporal, rule, cross)`.
fn cause_counts(causes: impl Iterator<Item = MergeCause>) -> (u64, u64, u64) {
    let mut n = (0, 0, 0);
    for cause in causes {
        match cause {
            MergeCause::Temporal => n.0 += 1,
            MergeCause::Rule(..) => n.1 += 1,
            MergeCause::Cross => n.2 += 1,
        }
    }
    n
}

/// Batch and stream are one function of a clean feed, down to the links.
/// For every golden seed, the streaming digester emits the batch digest's
/// events, each event carries the same per-stage link counts, and the
/// stream's link counters equal the per-cause counts of the batch edge
/// set.
#[test]
fn batch_and_stream_agree_link_for_link_on_golden_seeds() {
    for seed in GOLDEN_SEEDS {
        let corpus = Corpus::generate(seed, GOLDEN_SCALE);
        let d = &corpus.dataset;
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        let online = d.online();
        let (augmented, dropped) =
            augment_batch_isolated(&k, online, Parallelism::sequential()).split();
        // Stream sequence numbers equal batch indices only without drops.
        assert_eq!(dropped, 0, "seed {seed}");

        let cfg = GroupingConfig::default();
        let (batch, batch_prov) =
            digest_instrumented(&k, online, &cfg, &Telemetry::disabled(), true);
        let batch_prov = batch_prov.expect("tracing was enabled");

        let tel = Telemetry::new();
        let mut sd = StreamDigester::with_telemetry(&k, cfg, StreamConfig::default(), &tel);
        sd.set_trace(true);
        let mut events = sd.push_batch(online);
        events.extend(sd.finish());
        let stream_prov = sd.take_provenance();

        let first = |e: &NetworkEvent| e.message_idxs.iter().copied().min();
        let batch_by_first: BTreeMap<_, _> = batch
            .events
            .iter()
            .zip(&batch_prov)
            .map(|(e, p)| (first(e), (e, &p.links)))
            .collect();
        let links_by_id: BTreeMap<u64, &GroupProv> =
            stream_prov.iter().map(|p| (p.event_id, &p.links)).collect();
        let stream_by_first: BTreeMap<_, _> = events
            .iter()
            .map(|e| (first(e), (e, links_by_id[&e.id])))
            .collect();
        assert_eq!(stream_by_first.len(), events.len(), "seed {seed}");
        assert_eq!(
            batch_by_first.keys().collect::<Vec<_>>(),
            stream_by_first.keys().collect::<Vec<_>>(),
            "seed {seed}: event sets differ"
        );
        for (key, (be, bl)) in &batch_by_first {
            let (se, sl) = stream_by_first[key];
            let ctx = format!("seed {seed} event at {key:?}");
            assert_eq!(be.message_idxs, se.message_idxs, "{ctx}");
            assert_eq!(be.format_line(), se.format_line(), "{ctx}");
            assert_eq!(be.score.to_bits(), se.score.to_bits(), "{ctx}");
            assert_eq!(*bl, sl, "{ctx}: links differ");
        }

        let edges = stage_edges(&k, &augmented, &cfg);
        let counters = tel.snapshot();
        let counter = |name| counters.counter(name).unwrap_or(0);
        assert_eq!(
            cause_counts(edges.iter().map(|&(_, _, cause)| cause)),
            (
                counter("stream.links_temporal"),
                counter("stream.links_rule"),
                counter("stream.links_cross"),
            ),
            "seed {seed}: per-stage link counts differ"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any feed shuffled within `max_skew_secs` of delivery jitter digests
    /// byte-identically to the sorted feed.
    #[test]
    fn shuffle_within_skew_is_byte_identical(
        seed in 0u64..1_000_000,
        skew in 1i64..120,
    ) {
        let (d, k) = setup();
        let n = d.online().len().min(3000);
        let msgs = &d.online()[..n];

        // Deterministic jitter in [0, skew] per message, sorted by
        // delivery time (stable, so equal deliveries keep feed order).
        let mut rng = seed;
        let mut delivery: Vec<(i64, usize)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                // xorshift64* — cheap deterministic jitter source.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let jitter = (rng % (skew as u64 + 1)) as i64;
                (m.ts.0 + jitter, i)
            })
            .collect();
        delivery.sort();
        let shuffled: Vec<String> = delivery.iter().map(|&(_, i)| msgs[i].to_line()).collect();
        let sorted: Vec<String> = msgs.iter().map(|m| m.to_line()).collect();

        let (ev_sorted, _) = ingest_lines(k, sorted.iter().map(String::as_str), skew);
        let (ev_shuffled, stats) = ingest_lines(k, shuffled.iter().map(String::as_str), skew);

        prop_assert_eq!(stats.n_late, 0, "jitter within skew must never be late");
        prop_assert_eq!(
            digest_fingerprint(&ev_sorted),
            digest_fingerprint(&ev_shuffled)
        );
    }

    /// No byte sequence fed as lines can panic the ingest stack.
    #[test]
    fn arbitrary_garbage_lines_never_panic(
        lines in proptest::collection::vec("[ -~]{0,60}", 0..40),
    ) {
        let (_, k) = setup();
        let (_events, stats) = ingest_lines(k, lines.iter().map(String::as_str), 10);
        prop_assert_eq!(stats.digester.n_inconsistent, 0);
        prop_assert_eq!(stats.n_lines, lines.len());
    }

    /// Any truncation point combined with any single flipped bit leaves a
    /// checkpoint that loads as a typed error (never a panic, never a
    /// wrong resume), while an intact older generation still recovers.
    #[test]
    fn truncated_and_bitflipped_checkpoints_fail_typed_and_recover(
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "sd-prop-damage-{}-{}",
            std::process::id(),
            (cut_frac * 1e6) as u64 ^ ((flip_frac * 1e6) as u64) << 20 ^ u64::from(bit),
        ));
        let (path, bytes, cut) = saved_snapshot(&dir);
        std::fs::copy(&path, generation_path(&path, 1)).unwrap();

        let keep = (cut_frac * bytes.len() as f64) as usize; // < len: always damages
        let mut damaged = bytes[..keep].to_vec();
        if !damaged.is_empty() {
            let off = ((flip_frac * damaged.len() as f64) as usize).min(damaged.len() - 1);
            damaged[off] ^= 1 << bit;
        }
        std::fs::write(&path, &damaged).unwrap();

        prop_assert!(
            StreamSnapshot::load(&path).is_err(),
            "damaged snapshot (cut {keep}, flip bit {bit}) loaded successfully"
        );
        let (snap, report) = StreamSnapshot::recover_last_good(&path, 1)
            .expect("older generation must recover")
            .expect("generation 1 exists");
        prop_assert_eq!(report.generation, 1);
        prop_assert_eq!(snap.lines_consumed(), cut);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------------------ checkpoint bytes --

/// The run `sdigest generate --dataset A --scale 0.05 --seed 7`, `learn
/// --profile A` on its configs and log, then `digest --stream --checkpoint
/// FILE --checkpoint-every 4000` makes: its knowledge, and the JSON of
/// every checkpoint generation (one every 4,000 lines, one at the end).
fn pinned_run() -> &'static (DomainKnowledge, Vec<String>) {
    static CELL: OnceLock<(DomainKnowledge, Vec<String>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let spec = DatasetSpec {
            seed: 7,
            ..DatasetSpec::preset_a()
        }
        .scaled(0.05);
        let d = Dataset::generate(spec, &Telemetry::disabled());
        // `learn` reads the configs in file-name order and the log parsed
        // and sorted.
        let mut configs: Vec<(String, &String)> = (d.topology.routers.iter())
            .map(|r| format!("{}.cfg", r.name))
            .zip(&d.configs)
            .collect();
        configs.sort();
        let configs: Vec<String> = configs.into_iter().map(|(_, c)| c.clone()).collect();
        let lines: Vec<String> = d.messages.iter().map(RawMessage::to_line).collect();
        let mut history: Vec<RawMessage> = lines
            .iter()
            .map(|l| RawMessage::parse_line(l).unwrap())
            .collect();
        sort_batch(&mut history);
        let k = learn(&configs, &history, &OfflineConfig::dataset_a());
        let scfg = StreamConfig {
            idle_close: 0,
            max_open_messages: 0,
        };
        let cfg = GroupingConfig::default();
        let mut ing = FaultTolerantIngest::with_telemetry(&k, cfg, scfg, 0, &Telemetry::disabled());
        let mut generations = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            ing.push_line(line);
            if (i + 1) % 4000 == 0 {
                generations.push(ing.checkpoint().to_json().unwrap());
            }
        }
        generations.push(ing.checkpoint().to_json().unwrap());
        (k, generations)
    })
}

/// Every checkpoint generation of a fixed run keeps its bytes: a change
/// to the digester's live state must serialize it as before.
#[test]
fn checkpoint_generations_are_pinned() {
    let (_, generations) = pinned_run();
    let hashes: Vec<u64> = generations
        .iter()
        .map(|json| syslogdigest_repro::model::Fnv::hash(json.as_bytes()))
        .collect();
    // FNV-1a of the JSON body of `run.ckpt.4`, `.3`, `.2`, `.1` and
    // `run.ckpt` that the CLI run writes with `--checkpoint-keep 4`.
    let pinned: &[u64] = &[
        0xa27a_bec9_070b_2579,
        0x9193_2cd6_f0ec_da31,
        0xb481_42bf_2ecd_5071,
        0x15fc_945c_090b_6da0,
        0x057a_0e7e_e2e4_e0d1,
    ];
    assert_eq!(
        hashes, pinned,
        "checkpoint bytes moved (hashes {hashes:#018x?}); re-pin only with a SNAPSHOT_VERSION bump"
    );
}

/// `json` with the key `[router, template, location]` of the first
/// temporal series `pick` accepts replaced by what `pick` returns.
fn retarget_series(json: &str, pick: impl Fn([u64; 3]) -> Option<[u64; 3]>) -> String {
    let start = json.find(r#""trackers":["#).expect("a tracker table") + 12;
    let end = start
        + json[start..]
            .find(r#""recent_rules""#)
            .expect("rule lookback");
    let mut at = start;
    while let Some(off) = json[at..end].find("[[") {
        let key_start = at + off + 2;
        let key_end = key_start + json[key_start..].find(']').unwrap();
        let key: Vec<u64> = json[key_start..key_end]
            .split(',')
            .map(|n| n.parse().unwrap())
            .collect();
        if let Some([r, t, l]) = pick([key[0], key[1], key[2]]) {
            return format!("{}{r},{t},{l}{}", &json[..key_start], &json[key_end..]);
        }
        at = key_end;
    }
    panic!("no temporal series to retarget");
}

/// A checkpoint whose temporal series name a router or a location the
/// knowledge does not have fails resume with a typed error; it never sizes
/// a table by the id it names.
#[test]
fn a_checkpoint_naming_an_id_the_knowledge_lacks_fails_resume() {
    let (k, generations) = pinned_run();
    let json = &generations[1];
    let tel = Telemetry::disabled();
    let resume = |json: &str| {
        let snap = StreamSnapshot::from_json(json).expect("the JSON decodes");
        FaultTolerantIngest::resume_with_telemetry(k, &snap, &tel).map(|_| ())
    };
    resume(json).expect("the checkpoint as written resumes");
    let (n_routers, n_locations) = (k.dict.routers.len() as u64, k.dict.len() as u64);
    let none = u64::from(u32::MAX);
    for (what, damaged) in [
        (
            "location",
            retarget_series(json, |[r, t, l]| (l != none).then_some([r, t, n_locations])),
        ),
        (
            "router of a located series",
            retarget_series(json, |[_, t, l]| (l != none).then_some([n_routers, t, l])),
        ),
        (
            "router of a locationless series",
            retarget_series(json, |[_, t, _]| Some([none - 1, t, none])),
        ),
    ] {
        assert_ne!(&damaged, json);
        match resume(&damaged) {
            Err(CheckpointError::Corrupt(why)) => assert!(why.contains("temporal series"), "{why}"),
            other => panic!("an out-of-range {what} resumed: {other:?}"),
        }
    }
}
