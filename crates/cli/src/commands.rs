//! Subcommand implementations for `sdigest`.

use crate::args::{Accepts, ArgError, Parsed};
use crate::output::{Jsonl, LogFormat};
use sd_model::{MalformedReport, ParseError, RawMessage};
use sd_netsim::{apply_fault, inject, Dataset, DatasetSpec, FaultSpec, StorageFault};
use sd_telemetry::Telemetry;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use syslogdigest::offline::{learn_instrumented, OfflineConfig};
use syslogdigest::{
    digest_instrumented, DomainKnowledge, EventProvenance, FaultTolerantIngest, GroupingConfig,
    QuarantineRecord, StreamConfig,
};
use Role::{Optional, Required, StreamOnly};

type CmdResult = Result<String, ArgError>;

fn io_err(context: &str, e: std::io::Error) -> ArgError {
    ArgError(format!("{context}: {e}"))
}

/// Read a log file as text. Bytes that are not UTF-8 decode lossily to
/// U+FFFD, so one bad byte changes its line, not the whole run.
fn read_log_text(path: &Path) -> Result<String, ArgError> {
    let bytes = fs::read(path).map_err(|e| io_err("reading log", e))?;
    Ok(String::from_utf8(bytes)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
}

/// Read and parse a syslog wire-format file, skipping blank lines and
/// reporting the malformed ones (count + first offenders with reasons).
pub(crate) fn read_log(path: &Path) -> Result<(Vec<RawMessage>, MalformedReport), ArgError> {
    let text = read_log_text(path)?;
    let mut msgs = Vec::new();
    let mut bad = MalformedReport::default();
    for (i, line) in text.lines().enumerate() {
        match RawMessage::parse_line(line) {
            Ok(m) => msgs.push(m),
            Err(ParseError::Blank) => {}
            Err(e) => bad.record(i + 1, &e),
        }
    }
    sd_model::sort_batch(&mut msgs);
    Ok((msgs, bad))
}

fn profile(name: &str) -> Result<OfflineConfig, ArgError> {
    match name {
        "A" | "a" | "isp" => Ok(OfflineConfig::dataset_a()),
        "B" | "b" | "iptv" => Ok(OfflineConfig::dataset_b()),
        other => Err(ArgError(format!("unknown profile {other:?} (use A or B)"))),
    }
}

/// `--log-format text|json` (default text): how diagnostics reach stderr.
fn log_format(p: &Parsed) -> Result<LogFormat, ArgError> {
    p.opt("log-format")
        .unwrap_or("text")
        .parse()
        .map_err(ArgError)
}

/// `--metrics-out FILE` enables the counter/span registry; without it
/// telemetry is a no-op.
fn telemetry_for(p: &Parsed) -> (Telemetry, Option<PathBuf>) {
    match p.opt("metrics-out") {
        Some(path) => (Telemetry::new(), Some(PathBuf::from(path))),
        None => (Telemetry::disabled(), None),
    }
}

/// Snapshot the registry as Prometheus text exposition.
fn write_metrics(tel: &Telemetry, path: &Path) -> Result<(), ArgError> {
    fs::write(path, tel.snapshot().to_prometheus()).map_err(|e| io_err("writing metrics", e))
}

/// The JSONL sidecar named by option `name` (`trace`, `quarantine-out`),
/// if given; `what` names it in errors.
fn jsonl_sink(p: &Parsed, name: &str, what: &str) -> Result<Option<Jsonl>, ArgError> {
    p.opt(name)
        .map(|path| Jsonl::create(Path::new(path)))
        .transpose()
        .map_err(|e| io_err(&format!("creating {what}"), e))
}

/// Append one provenance record per event to the `--trace` sidecar.
fn write_trace(sink: &Jsonl, prov: &[EventProvenance]) -> Result<(), ArgError> {
    sink.write(prov.iter().map(EventProvenance::to_json))
        .map_err(|e| io_err("writing trace", e))
}

/// Append the records of quarantined messages (augmentation panicked;
/// the run continues without them) to the `--quarantine-out` sidecar.
fn write_quarantine(sink: &Jsonl, records: &[QuarantineRecord]) -> Result<(), ArgError> {
    sink.write(records.iter().map(QuarantineRecord::to_json))
        .map_err(|e| io_err("writing quarantine file", e))
}

/// The observability outputs one command run threads through its stages:
/// the telemetry handle, where to snapshot metrics, where to stream
/// provenance traces, and where structured diagnostics go.
struct Obs<'a> {
    tel: &'a Telemetry,
    metrics: Option<&'a Path>,
    trace: Option<&'a Jsonl>,
    log: LogFormat,
}

/// Report sampled malformed lines as `warn` diagnostics.
fn log_malformed(log: LogFormat, samples: &[(usize, String)]) {
    for (n, why) in samples {
        let fields = [("line", n.to_value()), ("reason", why.to_value())];
        log.emit("warn", "malformed line", &fields);
    }
}

/// Load a knowledge base in the enveloped (checksummed) format written
/// by `sdigest learn`.
fn load_knowledge(p: &Parsed) -> Result<DomainKnowledge, ArgError> {
    DomainKnowledge::load(Path::new(p.req("knowledge")?))
        .map_err(|e| ArgError(format!("reading knowledge: {e}")))
}

fn stages(name: &str) -> Result<GroupingConfig, ArgError> {
    match name.to_ascii_uppercase().as_str() {
        "T" => Ok(GroupingConfig::t_only()),
        "TR" | "T+R" => Ok(GroupingConfig::t_r()),
        "TRC" | "T+R+C" => Ok(GroupingConfig::default()),
        other => Err(ArgError(format!(
            "unknown stages {other:?} (use T, TR, or TRC)"
        ))),
    }
}

/// `sdigest generate`: writes `syslog.log` (wire format), one config
/// per router under `configs/`, and `tickets.json` for the online period.
pub(crate) fn cmd_generate(p: &Parsed) -> CmdResult {
    let which = p.opt("dataset").unwrap_or("A");
    let scale: f64 = p.opt_parse("scale", 0.25)?;
    let seed: u64 = p.opt_parse("seed", 0)?;
    let out = Path::new(p.req("out")?);

    let mut spec = match which {
        "A" | "a" => DatasetSpec::preset_a(),
        "B" | "b" => DatasetSpec::preset_b(),
        other => return Err(ArgError(format!("unknown dataset {other:?} (use A or B)"))),
    };
    if seed != 0 {
        spec.seed = seed;
    }
    if (scale - 1.0).abs() > 1e-9 {
        spec = spec.scaled(scale);
    }
    let (tel, metrics) = telemetry_for(p);
    let d = Dataset::generate(spec, &tel);

    fs::create_dir_all(out.join("configs")).map_err(|e| io_err("creating output dir", e))?;
    let mut log =
        fs::File::create(out.join("syslog.log")).map_err(|e| io_err("creating syslog.log", e))?;
    for m in &d.messages {
        writeln!(log, "{}", m.to_line()).map_err(|e| io_err("writing syslog.log", e))?;
    }
    for (r, cfg) in d.topology.routers.iter().zip(&d.configs) {
        fs::write(out.join("configs").join(format!("{}.cfg", r.name)), cfg)
            .map_err(|e| io_err("writing config", e))?;
    }
    let tickets = sd_tickets::generate_tickets(&d, d.spec.seed);
    let tickets_json = serde_json::to_string_pretty(&tickets)
        .map_err(|e| ArgError(format!("serializing tickets: {e}")))?;
    fs::write(out.join("tickets.json"), tickets_json)
        .map_err(|e| io_err("writing tickets.json", e))?;
    if let Some(mp) = &metrics {
        write_metrics(&tel, mp)?;
    }

    Ok(format!(
        "dataset {} ({:?}): {} routers, {} messages ({} train / {} online), \
         {} ground-truth events, {} tickets -> {}",
        d.spec.name,
        d.spec.vendor.to_string(),
        d.topology.routers.len(),
        d.messages.len(),
        d.train().len(),
        d.online().len(),
        d.gt_events.len(),
        tickets.len(),
        out.display()
    ))
}

/// `sdigest learn`: offline learning from configs and a history log.
pub(crate) fn cmd_learn(p: &Parsed) -> CmdResult {
    let cfg_dir = Path::new(p.req("configs")?);
    let log = Path::new(p.req("log")?);
    let out = Path::new(p.req("out")?);
    let cfg = profile(p.opt("profile").unwrap_or("A"))?;
    let (tel, metrics) = telemetry_for(p);
    let log_fmt = log_format(p)?;

    let mut entries: Vec<_> = fs::read_dir(cfg_dir)
        .map_err(|e| io_err("reading configs dir", e))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cfg"))
        .collect();
    entries.sort();
    let read = |path| fs::read_to_string(path).map_err(|e| io_err("reading config", e));
    let configs = entries.iter().map(read).collect::<Result<Vec<_>, _>>()?;
    if configs.is_empty() {
        return Err(ArgError(format!("no .cfg files in {}", cfg_dir.display())));
    }
    let (msgs, bad) = read_log(log)?;
    log_malformed(log_fmt, &bad.samples);
    let k = learn_instrumented(&configs, &msgs, &cfg, &tel);
    k.save(out)
        .map_err(|e| ArgError(format!("writing knowledge: {e}")))?;
    if let Some(mp) = &metrics {
        write_metrics(&tel, mp)?;
    }
    Ok(format!(
        "learned from {} messages ({bad}): {} templates, {} locations, \
         {} rules, alpha={} beta={} W={}s -> {}",
        msgs.len(),
        k.templates.len(),
        k.dict.len(),
        k.rules.len(),
        k.temporal.alpha,
        k.temporal.beta,
        k.window_secs,
        out.display()
    ))
}

/// Streaming digestion of a feed file through the fault-tolerant ingest
/// layer (`digest --stream`), resuming from and writing rotated
/// checkpoints when `--checkpoint` is given.
fn stream_digest(
    p: &Parsed,
    k: &DomainKnowledge,
    gcfg: GroupingConfig,
    log: &Path,
    out: &mut String,
    obs: &Obs<'_>,
) -> Result<Vec<syslogdigest::NetworkEvent>, ArgError> {
    let max_skew: i64 = p.opt_parse("max-skew", 0)?;
    let max_open: usize = p.opt_parse("max-open", 0)?;
    let every: usize = p.opt_parse("checkpoint-every", 10_000)?;
    let keep: usize = p.opt_parse("checkpoint-keep", 2)?;
    let ckpt = p.opt("checkpoint").map(Path::new);
    let qsink = jsonl_sink(p, "quarantine-out", "quarantine file")?;
    let scfg = StreamConfig {
        idle_close: 0,
        max_open_messages: max_open,
    };

    let text = read_log_text(log)?;
    let recovered = match ckpt {
        Some(path) => FaultTolerantIngest::recover_with_telemetry(k, path, keep, obs.tel)
            .map_err(|e| ArgError(format!("resuming from checkpoint: {e}")))?,
        None => None,
    };
    let (mut ingest, mut skip) = match (recovered, ckpt) {
        (Some((ing, report)), Some(path)) => {
            out.push_str(&format!(
                "resumed from {} (generation {}, {} lines already consumed, \
                 {} corrupt generation(s) skipped)\n",
                path.display(),
                report.generation,
                report.lines_consumed,
                report.n_corrupt,
            ));
            (ing, report.lines_consumed)
        }
        _ => (
            FaultTolerantIngest::with_telemetry(k, gcfg, scfg, max_skew, obs.tel),
            0,
        ),
    };
    ingest.set_trace(obs.trace.is_some());
    // Drain provenance and quarantine records into their sidecars.
    let flush = |ingest: &mut FaultTolerantIngest| -> Result<(), ArgError> {
        if let Some(sink) = obs.trace {
            write_trace(sink, &ingest.take_provenance())?;
        }
        match &qsink {
            Some(sink) => write_quarantine(sink, &ingest.take_quarantined()),
            None => Ok(()),
        }
    };

    let mut events = Vec::new();
    let mut since_ckpt = 0usize;
    for line in text.lines() {
        if skip > 0 {
            skip -= 1;
            continue;
        }
        events.extend(ingest.push_line(line));
        since_ckpt += 1;
        if let Some(path) = ckpt {
            if every > 0 && since_ckpt >= every {
                since_ckpt = 0;
                ingest
                    .checkpoint()
                    .save_rotated(path, keep)
                    .map_err(|e| ArgError(format!("writing checkpoint: {e}")))?;
                if let Some(mp) = obs.metrics {
                    write_metrics(obs.tel, mp)?;
                }
                flush(&mut ingest)?;
            }
        }
    }
    if let Some(path) = ckpt {
        ingest
            .checkpoint()
            .save_rotated(path, keep)
            .map_err(|e| ArgError(format!("writing checkpoint: {e}")))?;
    }

    let (rest, stats) = ingest.finish();
    events.extend(rest);
    flush(&mut ingest)?;
    events.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.start.cmp(&b.start)));
    // Table 7's metric, as the batch line prints it, counted from the
    // start of the feed, so a resumed run reports the whole feed's ratio.
    let compression = stats.digester.compression_ratio();
    out.push_str(&format!(
        "streamed {} lines ({} malformed, {} late, {} duplicate, {} unknown-router, \
         {} force-closed, {} quarantined) -> {} events (compression {compression:.2e})\n",
        stats.n_lines,
        stats.n_malformed,
        stats.n_late,
        stats.n_duplicate,
        stats.digester.n_dropped,
        stats.digester.n_force_closed,
        stats.digester.n_quarantined,
        events.len()
    ));
    log_malformed(obs.log, ingest.malformed_samples());
    Ok(events)
}

/// `sdigest digest`: the ranked event listing, batch or `--stream`.
/// Batch rejects a stream-only option rather than run without, say, the
/// checkpoint it asks for.
pub(crate) fn cmd_digest(p: &Parsed) -> CmdResult {
    let stream = p.flag("stream");
    let mut stream_only = DIGEST.iter().filter(|o| o.2 == StreamOnly);
    if let Some((key, ..)) = stream_only.find(|o| !stream && p.opt(o.0).is_some()) {
        return Err(ArgError(format!("--{key} needs --stream (digest)")));
    }
    let k = load_knowledge(p)?;
    let log = Path::new(p.req("log")?);
    let top: usize = p.opt_parse("top", 20)?;
    let gcfg = stages(p.opt("stages").unwrap_or("TRC"))?;
    let (tel, metrics) = telemetry_for(p);
    let log_fmt = log_format(p)?;
    let trace = jsonl_sink(p, "trace", "trace file")?;

    let mut out = String::new();
    let events = if stream {
        stream_digest(
            p,
            &k,
            gcfg,
            log,
            &mut out,
            &Obs {
                tel: &tel,
                metrics: metrics.as_deref(),
                trace: trace.as_ref(),
                log: log_fmt,
            },
        )?
    } else {
        let (msgs, bad) = read_log(log)?;
        log_malformed(log_fmt, &bad.samples);
        let (d, prov) = digest_instrumented(&k, &msgs, &gcfg, &tel, trace.is_some());
        if let (Some(sink), Some(prov)) = (trace.as_ref(), prov.as_deref()) {
            write_trace(sink, prov)?;
        }
        if let Some(sink) = jsonl_sink(p, "quarantine-out", "quarantine file")? {
            write_quarantine(&sink, &d.quarantined)?;
        }
        out.push_str(&format!(
            "digested {} messages ({bad}, {} unknown-router, {} quarantined) -> {} events \
             (compression {:.2e})\n",
            msgs.len(),
            d.n_dropped,
            d.n_quarantined,
            d.events.len(),
            d.compression_ratio()
        ));
        d.events
    };
    if let Some(mp) = &metrics {
        write_metrics(&tel, mp)?;
    }
    for (i, e) in events.iter().take(top).enumerate() {
        out.push_str(&format!(
            "{:>4}. [{:>10.1}] {}  ({} msgs)\n",
            i + 1,
            e.score,
            e.format_line(),
            e.size()
        ));
    }
    Ok(out)
}

/// `sdigest explain`: re-runs the batch digest with provenance tracing
/// enabled and renders the full provenance of one event: which templates
/// its messages matched, how many links each grouping stage contributed,
/// which mined rules fired, and what closed it. Event ids are the 1-based ranks
/// printed by `sdigest digest` (same knowledge, log, and stages).
pub(crate) fn cmd_explain(p: &Parsed) -> CmdResult {
    let k = load_knowledge(p)?;
    let log = Path::new(p.req("log")?);
    let id: u64 = p
        .req("event")?
        .parse()
        .map_err(|_| ArgError("invalid value for --event: expected an event id".to_owned()))?;
    let gcfg = stages(p.opt("stages").unwrap_or("TRC"))?;
    let log_fmt = log_format(p)?;

    let (msgs, bad) = read_log(log)?;
    log_malformed(log_fmt, &bad.samples);
    let (d, prov) = digest_instrumented(&k, &msgs, &gcfg, &Telemetry::disabled(), true);
    let prov = prov.unwrap_or_default();
    match prov.iter().find(|e| e.event_id == id) {
        Some(e) => Ok(e.render_text()),
        None => Err(ArgError(format!(
            "no event with id {id}: this digest produced {} events (ids 1..={})",
            d.events.len(),
            d.events.len()
        ))),
    }
}

/// `sdigest stats`: raw per-code and per-router message counts (what
/// operators look at *before* they have a digest).
pub(crate) fn cmd_stats(p: &Parsed) -> CmdResult {
    let (msgs, bad) = read_log(Path::new(p.req("log")?))?;
    let top: usize = p.opt_parse("top", 15)?;
    let mut by_code: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_router: BTreeMap<&str, usize> = BTreeMap::new();
    for m in &msgs {
        *by_code.entry(m.code()).or_insert(0) += 1;
        *by_router.entry(m.router()).or_insert(0) += 1;
    }
    let mut out = format!(
        "{} messages ({bad}), {} codes, {} routers",
        msgs.len(),
        by_code.len(),
        by_router.len()
    );
    if let (Some(first), Some(last)) = (msgs.first(), msgs.last()) {
        out.push_str(&format!(", spanning {} .. {}", first.ts, last.ts));
    }
    out.push_str("\ntop codes:\n");
    let mut codes: Vec<(&str, usize)> = by_code.into_iter().collect();
    codes.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (code, c) in codes.into_iter().take(top) {
        out.push_str(&format!("  {c:>9}  {code}\n"));
    }
    Ok(out)
}

/// `sdigest inject`: feed mode (`--log`, `--out`) perturbs a clean
/// wire-format feed with deterministic faults (bounded reordering,
/// duplicates, corrupted copies, and — for `hostile` — drops and clock
/// skew), for exercising the fault-tolerant ingest path. Artifact mode
/// (`--artifact`) instead damages a persisted artifact (checkpoint or
/// knowledge file) with a storage fault — `truncate`, `bitflip`,
/// `short-write` or `disk-full` — at a seed-derived offset (or an
/// explicit `--at`), for exercising the recovery path.
pub(crate) fn cmd_inject(p: &Parsed) -> CmdResult {
    if let Some(artifact) = p.opt("artifact") {
        return inject_artifact(p, Path::new(artifact));
    }
    let log = Path::new(p.req("log")?);
    let out_path = Path::new(p.req("out")?);
    let seed: u64 = p.opt_parse("seed", 1)?;
    let preset = p.opt("preset").unwrap_or("bounded");
    let spec = FaultSpec::preset(preset, seed).ok_or_else(|| {
        ArgError(format!(
            "unknown preset {preset:?} (use clean, bounded, or hostile)"
        ))
    })?;
    let (msgs, bad) = read_log(log)?;
    let (lines, report) = inject(&msgs, &spec);
    let mut f = fs::File::create(out_path).map_err(|e| io_err("creating faulted log", e))?;
    for line in &lines {
        writeln!(f, "{line}").map_err(|e| io_err("writing faulted log", e))?;
    }
    Ok(format!(
        "injected faults into {} messages ({bad} in input): {} lines out \
         ({} reordered, {} duplicated, {} corrupted, {} dropped, {} skewed) -> {}",
        report.n_input,
        report.n_lines,
        report.n_reordered,
        report.n_duplicated,
        report.n_corrupted,
        report.n_dropped,
        report.n_skewed,
        out_path.display()
    ))
}

/// Artifact mode of `sdigest inject`: damage a persisted artifact the
/// way a torn write, bit flip, lying kernel or full disk would.
fn inject_artifact(p: &Parsed, artifact: &Path) -> CmdResult {
    let bytes = fs::read(artifact).map_err(|e| io_err("reading artifact", e))?;
    let kind = p.opt("storage").unwrap_or("truncate");
    let seed: u64 = p.opt_parse("seed", 1)?;
    let fault = match p.opt("at") {
        Some(s) => {
            let at: usize = s.parse().map_err(|_| {
                ArgError("invalid value for --at: expected a byte offset".to_owned())
            })?;
            StorageFault::new(kind, at, (seed % 8) as u8)
        }
        None => StorageFault::from_seed(kind, seed, bytes.len()),
    }
    .ok_or_else(|| {
        ArgError(format!(
            "unknown storage fault {kind:?} \
             (use truncate, bitflip, short-write, or disk-full)"
        ))
    })?;
    let out_path = p.opt("out").map(Path::new).unwrap_or(artifact);
    let damaged = apply_fault(&bytes, &fault);
    fs::write(out_path, &damaged).map_err(|e| io_err("writing damaged artifact", e))?;
    Ok(format!(
        "injected storage fault {} into {} ({} -> {} bytes) -> {}",
        fault.kind(),
        artifact.display(),
        bytes.len(),
        damaged.len(),
        out_path.display()
    ))
}

/// How a subcommand reads one of its options.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Must be given.
    Required,
    /// May be given.
    Optional,
    /// Read only by `digest --stream`; listed after `--stream`.
    StreamOnly,
}

/// One option a subcommand accepts: its name, the metavar of its value
/// (empty for a flag, which takes none) and its role.
type Opt = (&'static str, &'static str, Role);

/// A subcommand: its name, the options it accepts and its
/// implementation. The usage text, the option check and `digest`'s
/// stream-only check all read these declarations. Every subcommand also
/// accepts `--log-format`, because `main` writes its errors in that
/// format.
struct Command {
    name: &'static str,
    opts: &'static [Opt],
    run: fn(&Parsed) -> CmdResult,
}

const DIGEST: &[Opt] = &[
    ("knowledge", "FILE", Required),
    ("log", "FILE", Required),
    ("top", "N", Optional),
    ("stages", "T|TR|TRC", Optional),
    ("metrics-out", "FILE", Optional),
    ("trace", "FILE", Optional),
    ("quarantine-out", "FILE", Optional),
    ("stream", "", Optional),
    ("max-skew", "SECS", StreamOnly),
    ("max-open", "N", StreamOnly),
    ("checkpoint", "FILE", StreamOnly),
    ("checkpoint-every", "N", StreamOnly),
    ("checkpoint-keep", "K", StreamOnly),
];

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        opts: &[
            ("out", "DIR", Required),
            ("dataset", "A|B", Optional),
            ("scale", "F", Optional),
            ("seed", "N", Optional),
            ("metrics-out", "FILE", Optional),
        ],
        run: cmd_generate,
    },
    Command {
        name: "learn",
        opts: &[
            ("configs", "DIR", Required),
            ("log", "FILE", Required),
            ("out", "FILE", Required),
            ("profile", "A|B", Optional),
            ("metrics-out", "FILE", Optional),
        ],
        run: cmd_learn,
    },
    Command {
        name: "digest",
        opts: DIGEST,
        run: cmd_digest,
    },
    Command {
        name: "explain",
        opts: &[
            ("knowledge", "FILE", Required),
            ("log", "FILE", Required),
            ("event", "ID", Required),
            ("stages", "T|TR|TRC", Optional),
        ],
        run: cmd_explain,
    },
    Command {
        name: "inject",
        opts: &[
            ("log", "FILE", Optional),
            ("out", "FILE", Optional),
            ("preset", "clean|bounded|hostile", Optional),
            ("seed", "N", Optional),
            ("artifact", "FILE", Optional),
            (
                "storage",
                "truncate|bitflip|short-write|disk-full",
                Optional,
            ),
            ("at", "BYTE", Optional),
        ],
        run: cmd_inject,
    },
    Command {
        name: "stats",
        opts: &[("log", "FILE", Required), ("top", "N", Optional)],
        run: cmd_stats,
    },
];

/// The notes after the USAGE block, on options several subcommands share.
const NOTES: &str = "
OBSERVABILITY:
  --log-format FORMAT  (every subcommand) diagnostics on stderr as human
                       text (default) or one JSON object per line
  --metrics-out FILE   write a Prometheus text-format snapshot of all
                       stage counters and span timings (updated at every
                       checkpoint and at exit)
  --trace FILE         append one JSON provenance record per emitted
                       event (templates matched, rules fired, links per
                       grouping stage, close reason)

DURABILITY:
  Checkpoints and knowledge files are written atomically inside a
  checksummed envelope; a resume falls back past corrupt checkpoint
  generations to the newest verifiable one, so a crash (even mid-write)
  loses at most one --checkpoint-every interval of progress.
  --checkpoint-keep K  previous checkpoint generations to retain as
                       FILE.1 .. FILE.K (default 2)
  --quarantine-out F   JSONL sidecar recording messages whose
                       augmentation panicked; the run continues and the
                       digest is as if those messages were absent
";

/// The usage text: one entry per subcommand, wrapped at 80 columns,
/// then the `NOTES`.
pub fn usage() -> String {
    let mut out = String::from("sdigest — SyslogDigest command line\n\nUSAGE:\n");
    for c in COMMANDS {
        let mut line = format!("  sdigest {:<8}", c.name);
        for (i, &(name, metavar, role)) in c.opts.iter().enumerate() {
            let opt = format!("--{name} {metavar}");
            let mut w = match role {
                Required => opt.trim_end().to_owned(),
                _ => format!("[{}]", opt.trim_end()),
            };
            // Stream-only options nest inside the `[--stream ...]` before them.
            let stream_next = c.opts.get(i + 1).is_some_and(|n| n.2 == StreamOnly);
            if role != StreamOnly && stream_next {
                w.pop();
            }
            if role == StreamOnly && !stream_next {
                w.push(']');
            }
            if line.len() + 1 + w.len() > 80 {
                out += &format!("{line}\n");
                line = " ".repeat(18);
            }
            line += &format!(" {w}");
        }
        out += &format!("{line}\n");
    }
    out.push_str(NOTES);
    out
}

/// Dispatch a parsed command line. Options and flags the subcommand does
/// not accept fail before it runs.
pub fn dispatch(p: &Parsed) -> CmdResult {
    if p.command == "help" {
        return Ok(usage());
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == p.command) else {
        return Err(ArgError(format!(
            "unknown subcommand {:?}\n\n{}",
            p.command,
            usage()
        )));
    };
    let names = |flags: bool| {
        let opts = cmd.opts.iter().filter(move |o| o.1.is_empty() == flags);
        opts.map(|o| o.0)
    };
    let flags: Vec<&str> = names(true).collect();
    let options: Vec<&str> = names(false).chain(["log-format"]).collect();
    p.check(&Accepts {
        options: &options,
        flags: &flags,
    })?;
    (cmd.run)(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Parsed;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sdigest-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn parse(args: &[&str]) -> Parsed {
        Parsed::parse(args.iter().map(|s| (*s).to_owned())).unwrap()
    }

    #[test]
    fn generate_learn_digest_roundtrip() {
        let dir = tmpdir("roundtrip");
        let out = dir.to_str().unwrap();

        let msg = cmd_generate(&parse(&[
            "generate",
            "--dataset",
            "A",
            "--scale",
            "0.08",
            "--out",
            out,
        ]))
        .unwrap();
        assert!(msg.contains("routers"), "{msg}");
        assert!(dir.join("syslog.log").exists());
        assert!(dir.join("tickets.json").exists());

        let kpath = dir.join("knowledge.json");
        let msg = cmd_learn(&parse(&[
            "learn",
            "--configs",
            dir.join("configs").to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--profile",
            "A",
            "--out",
            kpath.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("templates"), "{msg}");
        assert!(kpath.exists());

        let report = cmd_digest(&parse(&[
            "digest",
            "--knowledge",
            kpath.to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(report.contains("events"), "{report}");
        assert!(report.lines().count() >= 2, "{report}");

        // Streaming mode produces a report too.
        let streamed = cmd_digest(&parse(&[
            "digest",
            "--knowledge",
            kpath.to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--stream",
        ]))
        .unwrap();
        assert!(streamed.contains("streamed"), "{streamed}");

        let stats = cmd_stats(&parse(&[
            "stats",
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
        ]))
        .unwrap();
        assert!(stats.contains("top codes"), "{stats}");

        let _ = fs::remove_dir_all(&dir);
    }

    /// A byte that is not UTF-8 changes its own line only: every log
    /// command reads the file as if the byte were U+FFFD.
    #[test]
    fn a_non_utf8_byte_decodes_lossily_in_every_log_command() {
        let dir = tmpdir("non-utf8");
        let out = dir.to_str().unwrap();
        cmd_generate(&parse(&[
            "generate",
            "--dataset",
            "A",
            "--scale",
            "0.04",
            "--out",
            out,
        ]))
        .unwrap();
        let log = dir.join("syslog.log");
        let kpath = dir.join("knowledge.json");
        let configs = dir.join("configs");
        let mut bytes = fs::read(&log).unwrap();
        // The last character of a line in the middle of the log.
        let at = bytes.len() / 2
            + bytes[bytes.len() / 2..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap();
        bytes[at - 1] = 0xE9;
        let bad = dir.join("bad.log");
        let lossy = dir.join("lossy.log");
        fs::write(&lossy, String::from_utf8_lossy(&bytes).as_bytes()).unwrap();
        fs::write(&bad, bytes).unwrap();
        let run = |args: &[&str], log: &Path| {
            let mut args = args.to_vec();
            args.extend(["--log", log.to_str().unwrap()]);
            dispatch(&parse(&args)).unwrap_or_else(|e| panic!("{args:?}: {}", e.0))
        };
        let (k, c) = (kpath.to_str().unwrap(), configs.to_str().unwrap());
        run(&["learn", "--configs", c, "--out", k], &bad);
        for args in [
            &["digest", "--knowledge", k, "--top", "100000"][..],
            &["digest", "--knowledge", k, "--top", "100000", "--stream"],
            &["stats"],
        ] {
            assert_eq!(run(args, &bad), run(args, &lossy), "{args:?}");
        }
        let out_of = |log: &Path| dir.join(format!("{}.inj", log.display()));
        for log in [&bad, &lossy] {
            let inj = out_of(log);
            run(&["inject", "--out", inj.to_str().unwrap()], log);
        }
        assert_eq!(
            fs::read(out_of(&bad)).unwrap(),
            fs::read(out_of(&lossy)).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_log_reports_first_malformed_lines_with_reasons() {
        let dir = tmpdir("malformed");
        let path = dir.join("bad.log");
        fs::write(
            &path,
            "2010-01-10 00:00:15 r1 SYS-5-RESTART fine\n\
             \n\
             2010-01-10 00:00:16 r1\n\
             garbage here entirely today\n\
             2010-01-10 00:00:17 r1 SYS-5-RESTART also fine\n",
        )
        .unwrap();
        let (msgs, bad) = read_log(&path).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(bad.count, 2);
        assert_eq!(bad.samples.len(), 2);
        assert_eq!(
            bad.samples[0],
            (3, "truncated line: missing code".to_owned())
        );
        assert_eq!(bad.samples[1], (4, "malformed timestamp".to_owned()));
        let rendered = bad.to_string();
        assert!(rendered.contains("line 3"), "{rendered}");
        assert!(rendered.contains("malformed timestamp"), "{rendered}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inject_then_stream_digest_with_checkpoint() {
        let dir = tmpdir("faulted-stream");
        let out = dir.to_str().unwrap();
        cmd_generate(&parse(&[
            "generate",
            "--dataset",
            "A",
            "--scale",
            "0.06",
            "--out",
            out,
        ]))
        .unwrap();
        let kpath = dir.join("knowledge.json");
        cmd_learn(&parse(&[
            "learn",
            "--configs",
            dir.join("configs").to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--out",
            kpath.to_str().unwrap(),
        ]))
        .unwrap();

        // Fault the feed deterministically.
        let faulted = dir.join("faulted.log");
        let msg = cmd_inject(&parse(&[
            "inject",
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--out",
            faulted.to_str().unwrap(),
            "--preset",
            "bounded",
            "--seed",
            "5",
        ]))
        .unwrap();
        assert!(msg.contains("corrupted"), "{msg}");

        // Stream-digest it with reorder repair and periodic checkpoints.
        let ckpt = dir.join("stream.ckpt");
        let report = cmd_digest(&parse(&[
            "digest",
            "--knowledge",
            kpath.to_str().unwrap(),
            "--log",
            faulted.to_str().unwrap(),
            "--stream",
            "--max-skew",
            "30",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "2000",
        ]))
        .unwrap();
        assert!(report.contains("streamed"), "{report}");
        assert!(ckpt.exists(), "checkpoint file was not written");
        // The summary line carries Table 7's compression ratio: events per
        // message grouped, which is every line but the malformed, late,
        // duplicate, unknown-router and quarantined ones.
        let summary = report.lines().find(|l| l.starts_with("streamed")).unwrap();
        let numbers: Vec<f64> = summary
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '-'))
            .filter_map(|w| w.parse().ok())
            .collect();
        let [lines, malformed, late, duplicate, unknown, _, quarantined, events, compression] =
            numbers[..]
        else {
            panic!("unexpected summary line: {summary}");
        };
        let expected = events / (lines - malformed - late - duplicate - unknown - quarantined);
        assert!(
            summary.contains(&format!("(compression {expected:.2e})")),
            "{summary}"
        );
        assert!(compression > 0.0 && compression < 0.2, "{summary}");

        // A second run resumes from the checkpoint instead of starting over.
        let resumed = cmd_digest(&parse(&[
            "digest",
            "--knowledge",
            kpath.to_str().unwrap(),
            "--log",
            faulted.to_str().unwrap(),
            "--stream",
            "--max-skew",
            "30",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(resumed.contains("resumed from"), "{resumed}");
        // The last checkpoint was taken at the end of the feed, before the
        // final flush, so the resumed run only closes what was open then;
        // its ratio still counts the whole feed's events and messages.
        let compression_of = |report: &str| {
            let at = report.find("(compression ").expect(report);
            report[at..].split(')').next().unwrap().to_string()
        };
        assert_eq!(compression_of(&resumed), compression_of(&report));
        assert!(
            !resumed.contains(&format!("-> {events} events")),
            "{resumed}"
        );

        let _ = fs::remove_dir_all(&dir);
    }

    /// Storage-fault recovery end to end through the CLI: rotated
    /// checkpoint generations are written, `inject --artifact` damages
    /// the newest one, and the next run falls back to an older
    /// generation instead of failing or starting over.
    #[test]
    fn artifact_fault_then_resume_falls_back_a_generation() {
        let dir = tmpdir("artifact-fault");
        let out = dir.to_str().unwrap();
        cmd_generate(&parse(&[
            "generate",
            "--dataset",
            "A",
            "--scale",
            "0.06",
            "--out",
            out,
        ]))
        .unwrap();
        let kpath = dir.join("knowledge.json");
        cmd_learn(&parse(&[
            "learn",
            "--configs",
            dir.join("configs").to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--out",
            kpath.to_str().unwrap(),
        ]))
        .unwrap();

        let ckpt = dir.join("run.ckpt");
        let first = cmd_digest(&parse(&[
            "digest",
            "--knowledge",
            kpath.to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--stream",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1000",
            "--checkpoint-keep",
            "2",
        ]))
        .unwrap();
        assert!(first.contains("streamed"), "{first}");
        assert!(ckpt.exists());
        let gen1 = dir.join("run.ckpt.1");
        assert!(gen1.exists(), "rotation did not keep a previous generation");

        // Damage the newest generation the way a torn write would.
        let msg = cmd_inject(&parse(&[
            "inject",
            "--artifact",
            ckpt.to_str().unwrap(),
            "--storage",
            "truncate",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(msg.contains("truncate"), "{msg}");

        let resumed = cmd_digest(&parse(&[
            "digest",
            "--knowledge",
            kpath.to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--stream",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-keep",
            "2",
        ]))
        .unwrap();
        assert!(resumed.contains("resumed from"), "{resumed}");
        assert!(resumed.contains("generation 1"), "{resumed}");
        assert!(
            resumed.contains("1 corrupt generation(s) skipped"),
            "{resumed}"
        );

        let _ = fs::remove_dir_all(&dir);
    }

    /// A poison message (augmentation panic) is quarantined to the JSONL
    /// sidecar instead of crashing the run, and the stream report counts it.
    #[test]
    fn poison_message_is_quarantined_to_sidecar() {
        let dir = tmpdir("quarantine");
        let out = dir.to_str().unwrap();
        cmd_generate(&parse(&[
            "generate",
            "--dataset",
            "A",
            "--scale",
            "0.05",
            "--out",
            out,
        ]))
        .unwrap();
        let kpath = dir.join("knowledge.json");
        cmd_learn(&parse(&[
            "learn",
            "--configs",
            dir.join("configs").to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--out",
            kpath.to_str().unwrap(),
        ]))
        .unwrap();

        // Append one syntactically ordinary poison line to the feed.
        let log_path = dir.join("syslog.log");
        let text = fs::read_to_string(&log_path).unwrap();
        let last = RawMessage::parse_line(text.lines().last().unwrap()).unwrap();
        let poison = sd_netsim::poison_message(sd_model::Timestamp(last.ts.0 + 1), last.router());
        fs::write(&log_path, format!("{text}{}\n", poison.to_line())).unwrap();

        syslogdigest::set_poison_marker(Some(sd_netsim::POISON_MARKER));
        let qpath = dir.join("quarantine.jsonl");
        let report = cmd_digest(&parse(&[
            "digest",
            "--knowledge",
            kpath.to_str().unwrap(),
            "--log",
            log_path.to_str().unwrap(),
            "--stream",
            "--quarantine-out",
            qpath.to_str().unwrap(),
        ]));
        syslogdigest::set_poison_marker(None);
        let report = report.unwrap();
        assert!(report.contains("1 quarantined"), "{report}");
        let sidecar = fs::read_to_string(&qpath).unwrap();
        assert_eq!(sidecar.lines().count(), 1, "{sidecar}");
        assert!(sidecar.contains(sd_netsim::POISON_MARKER), "{sidecar}");
        assert!(sidecar.contains("injected poison panic"), "{sidecar}");

        let _ = fs::remove_dir_all(&dir);
    }

    /// `explain` failure paths return clean errors (mapped to exit code 1
    /// by `main`'s dispatch-Err arm) — never a panic, never silence.
    #[test]
    fn explain_rejects_missing_files_and_unknown_event_ids() {
        let dir = tmpdir("explain-negative");
        let out = dir.to_str().unwrap();
        cmd_generate(&parse(&[
            "generate",
            "--dataset",
            "A",
            "--scale",
            "0.05",
            "--out",
            out,
        ]))
        .unwrap();
        let kpath = dir.join("knowledge.json");
        cmd_learn(&parse(&[
            "learn",
            "--configs",
            dir.join("configs").to_str().unwrap(),
            "--log",
            dir.join("syslog.log").to_str().unwrap(),
            "--out",
            kpath.to_str().unwrap(),
        ]))
        .unwrap();
        let k = kpath.to_str().unwrap().to_owned();
        let log = dir.join("syslog.log").to_str().unwrap().to_owned();

        // Out-of-range event id: the error names the id and the valid range.
        let args = [
            "explain",
            "--knowledge",
            &k,
            "--log",
            &log,
            "--event",
            "999999",
        ];
        let msg = cmd_explain(&parse(&args)).unwrap_err().to_string();
        assert!(msg.contains("no event with id 999999"), "{msg}");
        assert!(msg.contains("ids 1..="), "{msg}");
        // Same through the dispatcher, which is what main maps to exit 1.
        assert!(dispatch(&parse(&args)).is_err());

        // Missing log file: the I/O error keeps its context.
        let missing = dir.join("nope.log").to_str().unwrap().to_owned();
        let msg = cmd_explain(&parse(&[
            "explain",
            "--knowledge",
            &k,
            "--log",
            &missing,
            "--event",
            "1",
        ]))
        .unwrap_err()
        .to_string();
        assert!(msg.contains("reading log"), "{msg}");

        // Missing knowledge file, likewise.
        let msg = cmd_explain(&parse(&[
            "explain",
            "--knowledge",
            &missing,
            "--log",
            &log,
            "--event",
            "1",
        ]))
        .unwrap_err()
        .to_string();
        assert!(msg.contains("reading knowledge"), "{msg}");

        // Non-numeric --event is rejected with a usage-style message.
        let msg = cmd_explain(&parse(&[
            "explain",
            "--knowledge",
            &k,
            "--log",
            &log,
            "--event",
            "first",
        ]))
        .unwrap_err()
        .to_string();
        assert!(msg.contains("invalid value for --event"), "{msg}");

        let _ = fs::remove_dir_all(&dir);
    }

    /// A misspelled option fails before any work: the error names it and
    /// the subcommand, and no checkpoint is written (the knowledge file
    /// does not even exist, so a run would have failed on reading it).
    #[test]
    fn unknown_options_fail_before_the_subcommand_runs() {
        let dir = tmpdir("unknown-option");
        let ckpt = dir.join("run.ckpt");
        let (m, c) = (dir.join("missing.bin"), ckpt.to_str().unwrap());
        let inputs = [
            "--knowledge",
            m.to_str().unwrap(),
            "--log",
            m.to_str().unwrap(),
        ];
        let digest = |rest: &[&str]| {
            let args: Vec<&str> = ["digest"]
                .iter()
                .chain(&inputs)
                .chain(rest)
                .copied()
                .collect();
            dispatch(&parse(&args)).unwrap_err().0
        };
        let e = digest(&["--stream", "--chekpoint", c]);
        assert!(e.contains("--chekpoint") && e.contains("digest"), "{e}");
        // So does a stream-only option without `--stream`.
        let e = digest(&["--checkpoint", c]);
        assert!(e.contains("--checkpoint needs --stream"), "{e}");
        assert!(!ckpt.exists());
        // An option of another subcommand is unknown here too.
        let e = dispatch(&parse(&["stats", "--log", "x.log", "--knowledge", "k"]))
            .unwrap_err()
            .0;
        assert!(e.contains("--knowledge") && e.contains("stats"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn helpful_errors() {
        assert!(cmd_generate(&parse(&["generate", "--dataset", "Z", "--out", "/tmp/x"])).is_err());
        assert!(cmd_learn(&parse(&["learn"])).is_err());
        assert!(dispatch(&parse(&["frobnicate"])).is_err());
        assert!(dispatch(&parse(&["help"])).unwrap().contains("USAGE"));
    }
}
