//! Traced run: per-layer metrics, each timed from outside by calling the
//! layer's public functions, reported next to the program's own span
//! values where it has them. The composed pipelines must reproduce the
//! untraced outputs byte for byte, so the timers measure the real path.

use crate::run::{self, Pass, StreamPlan};
use crate::stats::{median, timed_median, Metrics};
use crate::{check_pass, clean_sorted, resume_plan, setup, Outcome, Workload};
use sd_model::{sort_batch, Parallelism, RawMessage, SyslogPlus};
use sd_netsim::FaultSpec;
use sd_telemetry::{Snapshot, Telemetry};
use std::path::Path;
use std::time::Instant;
use syslogdigest::offline::{learn, OfflineConfig};
use syslogdigest::{
    augment_batch_isolated, build_event, digest, digest_instrumented, group, score_group,
    stage_edges, DomainKnowledge, GroupingConfig, NetworkEvent, ReorderBuffer, StreamConfig,
    StreamDigester,
};

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn span_secs(s: &Snapshot, path: &str) -> f64 {
    s.span(path).map_or(0.0, |st| st.secs())
}

fn span_calls(s: &Snapshot, path: &str) -> f64 {
    s.span(path).map_or(0.0, |st| st.calls as f64)
}

/// Whether two event lists are the same events in the same order.
fn same_events(a: &[NetworkEvent], b: &[NetworkEvent]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                && x.message_idxs == y.message_idxs
                && x.score.to_bits() == y.score.to_bits()
                && x.format_line() == y.format_line()
        })
}

/// Batch layers composed by hand: augment → `stage_edges` per stage →
/// `group` → score + build → rank → render. Returns whether the listing
/// equals the program's own `digest`.
fn batch_layers(
    k: &DomainKnowledge,
    msgs: &[RawMessage],
    par: Parallelism,
    m: &mut Metrics,
) -> bool {
    let cfg = GroupingConfig {
        par,
        ..GroupingConfig::default()
    };
    let t = Instant::now();
    let batch: Vec<SyslogPlus> = augment_batch_isolated(k, msgs, par)
        .augmented
        .into_iter()
        .flatten()
        .collect();
    m.put("augment.s", secs(t), "s");

    let only = |temporal, rules, cross| GroupingConfig {
        temporal,
        rules,
        cross,
        ..cfg
    };
    let stages = [
        ("temporal", only(true, false, false)),
        ("rule", only(false, true, false)),
        ("cross", only(false, false, true)),
    ];
    let mut stage_edge_total = 0;
    for (name, stage) in stages {
        let t = Instant::now();
        let edges = stage_edges(k, &batch, &stage);
        m.put(&format!("grouping.{name}_s"), secs(t), "s");
        m.put(
            &format!("grouping.{name}_edges"),
            edges.len() as f64,
            "count",
        );
        stage_edge_total += edges.len();
    }
    let t = Instant::now();
    let grouping = group(k, &batch, &cfg);
    m.put("grouping.total_s", secs(t), "s");

    let t = Instant::now();
    let mut events: Vec<NetworkEvent> = grouping
        .members()
        .iter()
        .map(|g| build_event(k, &batch, g, score_group(k, &batch, g)))
        .collect();
    m.put("event.close_score_s", secs(t), "s");

    let t = Instant::now();
    events.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.start.cmp(&b.start)));
    for (rank, ev) in events.iter_mut().enumerate() {
        ev.id = rank as u64 + 1;
    }
    m.put("rank.s", secs(t), "s");

    let t = Instant::now();
    let listing = run::render(&events);
    m.put("present.s", secs(t), "s");
    m.put("event.n", events.len() as f64, "count");
    m.put(
        "event.compression_ratio",
        events.len() as f64 / msgs.len() as f64,
        "ratio",
    );

    // The program's own spans over the same input.
    let tel = Telemetry::new();
    let (d, _) = digest_instrumented(k, msgs, &cfg, &tel, false);
    let spans = tel.snapshot();
    for stage in ["augment", "group", "events"] {
        let name = format!("digest.{stage}");
        m.put(&format!("span.{name}_s"), span_secs(&spans, &name), "s");
    }

    let sequential = GroupingConfig {
        par: Parallelism::sequential(),
        ..cfg
    };
    let (t_n, _) = timed_median(3, || digest(k, msgs, &cfg));
    let (t_1, _) = timed_median(3, || digest(k, msgs, &sequential));
    m.put("batch.speedup_vs_1t", t_1 / t_n, "x");

    let all_stages = stage_edges(k, &batch, &cfg).len();
    d.to_report() == listing && same_events(&d.events, &events) && all_stages == stage_edge_total
}

/// Stream layers composed by hand, as `FaultTolerantIngest` composes
/// them: parse → `ReorderBuffer::push` → `StreamDigester::push_batch`,
/// then flush + `finish`. No checkpoints. Returns the ranked events.
fn stream_layers(
    k: &DomainKnowledge,
    text: &str,
    plan: &StreamPlan,
    par: Parallelism,
    m: &mut Metrics,
) -> Vec<NetworkEvent> {
    let tel = Telemetry::new();
    let cfg = GroupingConfig {
        par,
        ..GroupingConfig::default()
    };
    let scfg = StreamConfig {
        idle_close: 0,
        max_open_messages: plan.max_open,
    };
    let mut rb = ReorderBuffer::with_telemetry(plan.max_skew, &tel);
    let mut sd = StreamDigester::with_telemetry(k, cfg, scfg, &tel);
    let (mut reorder_s, mut push_s) = (0.0, 0.0);
    let (mut depth_max, mut open_msgs_max, mut open_groups_max) = (0, 0, 0);
    let mut released = Vec::new();
    let mut events = Vec::new();
    for line in text.lines() {
        let Ok(msg) = RawMessage::parse_line(line) else {
            continue;
        };
        let t = Instant::now();
        released.clear();
        rb.push(msg, &mut released);
        depth_max = depth_max.max(rb.buffered());
        let t_push = Instant::now();
        events.extend(sd.push_batch(&released));
        push_s += secs(t_push);
        reorder_s += t_push.duration_since(t).as_secs_f64();
        open_msgs_max = open_msgs_max.max(sd.open_messages());
        open_groups_max = open_groups_max.max(sd.open_groups());
    }
    let t = Instant::now();
    released.clear();
    rb.flush(&mut released);
    events.extend(sd.push_batch(&released));
    let stats = sd.stats();
    events.extend(sd.finish());
    let finish_s = secs(t);
    run::rank_stream(&mut events);

    let spans = tel.snapshot();
    m.put("reorder.s", reorder_s, "s");
    m.put("reorder.depth_max", depth_max as f64, "count");
    m.put("reorder.late", rb.n_late.get() as f64, "count");
    m.put("reorder.duplicate", rb.n_duplicate.get() as f64, "count");
    m.put("stream.push_s", span_secs(&spans, "stream.push"), "s");
    m.put("stream.push_outside_s", push_s, "s");
    m.put("stream.augment_s", span_secs(&spans, "stream.augment"), "s");
    m.put(
        "stream.augment_calls",
        span_calls(&spans, "stream.augment"),
        "count",
    );
    m.put("stream.sweep_s", span_secs(&spans, "stream.sweep"), "s");
    m.put(
        "stream.sweep_calls",
        span_calls(&spans, "stream.sweep"),
        "count",
    );
    m.put("stream.open_msgs_max", open_msgs_max as f64, "count");
    m.put("stream.open_groups_max", open_groups_max as f64, "count");
    m.put("stream.force_closed", stats.n_force_closed as f64, "count");
    m.put("stream.finish_s", finish_s, "s");
    events
}

/// Median wall time of `reps` passes of `w` with telemetry `tel`,
/// and the last pass.
fn passes(
    w: Workload,
    inputs: &setup::Inputs,
    dir: &Path,
    reps: usize,
    tel: &Telemetry,
) -> Result<(f64, Pass), String> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let p = w.pass(inputs, dir, Parallelism::default(), tel)?;
        walls.push(p.wall_s);
        last = Some(p);
    }
    Ok((median(&walls), last.expect("at least one pass")))
}

/// Traced run of workload `w`: every per-layer metric, with the checks.
pub fn profile(w: Workload, seed: u64, dir: &Path) -> Result<Outcome, String> {
    let par = Parallelism::default();
    let off = Telemetry::disabled();
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // Set-up layers: netsim and offline learning.
    let tel = Telemetry::new();
    let (inputs, times) = setup::build(dir, seed, w.faulted(), &tel)?;
    let spans = tel.snapshot();
    notes.push(format!(
        "env: hw_threads={} seed={seed} feed_lines={} feed_bytes={} clean_msgs={} \
         knowledge_bytes={}",
        par.threads,
        inputs.feed_lines,
        inputs.feed_bytes,
        inputs.clean.len(),
        inputs.knowledge_bytes,
    ));
    m.put("netsim.generate_s", times.generate_s, "s");
    m.put("netsim.inject_s", times.inject_s, "s");
    for stage in ["templates", "locations", "history", "rules"] {
        let name = format!("learn.{stage}");
        m.put(&format!("{name}_s"), span_secs(&spans, &name), "s");
    }
    let cfg_n = OfflineConfig::dataset_a();
    let cfg_1 = OfflineConfig {
        par: Parallelism::sequential(),
        ..OfflineConfig::dataset_a()
    };
    let (learn_n, k_n) = timed_median(1, || learn(&inputs.configs, &inputs.history, &cfg_n));
    let (learn_1, k_1) = timed_median(1, || learn(&inputs.configs, &inputs.history, &cfg_1));
    m.put("learn.total_s", learn_n, "s");
    m.put("learn.speedup_vs_1t", learn_1 / learn_n, "x");
    let mut ok = k_n.to_json().ok() == k_1.to_json().ok();

    // Knowledge artifact.
    let (load_s, k) = timed_median(5, || DomainKnowledge::load(&inputs.knowledge));
    let k = k.map_err(|e| e.to_string())?;
    m.put("knowledge.load_s", load_s, "s");
    m.put("knowledge.bytes", inputs.knowledge_bytes as f64, "bytes");

    // Model: parse and sort the workload's feed.
    let text = std::fs::read_to_string(&inputs.feed).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let parsed = run::parse_feed(&text, &[]);
    m.put("parse.s", secs(t), "s");
    m.put("parse.lines", parsed.lines as f64, "count");
    m.put("parse.malformed", parsed.malformed as f64, "count");
    let mut msgs = parsed.msgs;
    let t = Instant::now();
    sort_batch(&mut msgs);
    m.put("sort.s", secs(t), "s");

    // Batch layers, always over the clean feed.
    let clean = if w.faulted() {
        clean_sorted(&inputs.clean)
    } else {
        msgs
    };
    if !batch_layers(&k, &clean, par, &mut m) {
        notes.push("composed batch pipeline differs from digest()".into());
        ok = false;
    }

    // The workload's own path, untraced and traced.
    let reps = if w.batch() { 3 } else { 1 };
    let (base_s, reference) = passes(w, &inputs, dir, reps, &off)?;
    let traced_tel = Telemetry::new();
    let (traced_s, traced) = passes(w, &inputs, dir, reps, &traced_tel)?;
    m.put(
        "telemetry.overhead_pct",
        (traced_s - base_s) / base_s * 100.0,
        "%",
    );
    if traced.listing != reference.listing {
        notes.push("telemetry changed the listing".into());
        ok = false;
    }

    // Stream layers on the workload's stream path (a batch workload's:
    // its stream twin's).
    let plan = w.plan(dir);
    let twin;
    let stream_ref = if w.batch() {
        twin = run::stream_pass(&inputs.knowledge, &inputs.feed, &plan, par, &off)?;
        &twin
    } else {
        &reference
    };
    let stream_1t = run::stream_pass(
        &inputs.knowledge,
        &inputs.feed,
        &plan,
        Parallelism::sequential(),
        &off,
    )?;
    m.put(
        "stream.speedup_vs_1t",
        stream_1t.wall_s / stream_ref.wall_s,
        "x",
    );
    let uninterrupted = StreamPlan { ckpt: None, ..plan };
    let composed = stream_layers(&k, &text, &uninterrupted, par, &mut m);
    if !(same_events(&composed, &stream_ref.events) && stream_1t.listing == stream_ref.listing) {
        notes.push("composed stream pipeline differs from FaultTolerantIngest".into());
        ok = false;
    }

    // Checkpoint layer: only the resume path checkpoints, so other
    // workloads run it over the seed's faulted feed.
    let ckpt_pass = if w == Workload::FaultedRecover {
        traced
    } else {
        let feed = dir.join("faulted.log");
        setup::write_feed(&feed, &inputs.clean, &FaultSpec::bounded(seed))?;
        run::stream_pass(
            &inputs.knowledge,
            &feed,
            &resume_plan(dir),
            par,
            &Telemetry::new(),
        )?
    };
    let ck = &ckpt_pass.ckpt;
    if ck.restart_s.is_empty() {
        return Err("the resume path ended before its first kill".into());
    }
    let bytes_max = ck.bytes.iter().max().copied().unwrap_or(0);
    let bytes_mean = ck.bytes.iter().sum::<u64>() as f64 / ck.bytes.len().max(1) as f64;
    m.put("ckpt.snapshot_s", ck.snapshot_s, "s");
    m.put("ckpt.save_s", ck.save_s, "s");
    m.put("ckpt.saves", ck.bytes.len() as f64, "count");
    m.put("ckpt.bytes_max", bytes_max as f64, "bytes");
    m.put("ckpt.bytes_mean", bytes_mean, "bytes");
    m.put("ckpt.load_s", ck.load_s, "s");
    m.put("ckpt.resume_s", ck.resume_s, "s");
    m.put("ckpt.restart_s", median(&ck.restart_s), "s");

    let (checked, failures) = check_pass(w, &k, &inputs.feed, &inputs.clean, dir, &reference)?;
    m.put("fail.lost", failures.lost as f64, "count");
    m.put("fail.split", failures.split as f64, "count");
    Ok(Outcome {
        correct: ok && checked,
        attempted: inputs.clean.len() as u64,
        failures,
        metrics: m,
        notes,
    })
}
