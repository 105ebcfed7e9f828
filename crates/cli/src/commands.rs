//! Subcommand implementations for `sdigest`.

use crate::args::{ArgError, Parsed};
use sd_model::{Parallelism, ParseError, RawMessage, Vendor};
use sd_netsim::{apply_fault, inject, Dataset, DatasetSpec, FaultSpec, StorageFault};
use sd_telemetry::{Json, JsonlSink, LogFormat, Logger, Telemetry};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use syslogdigest::offline::{learn_instrumented, OfflineConfig};
use syslogdigest::{
    digest_instrumented, DomainKnowledge, EventProvenance, FaultTolerantIngest, GroupingConfig,
    QuarantineRecord, StreamConfig,
};

type CmdResult = Result<String, ArgError>;

fn io_err(context: &str, e: std::io::Error) -> ArgError {
    ArgError(format!("{context}: {e}"))
}

/// How many malformed lines [`read_log`] keeps verbatim for diagnostics.
const MALFORMED_SAMPLES: usize = 5;

/// What [`read_log`] found wrong with a feed file: a count plus the first
/// few offenders as `(line number, reason)`, so operators see *why* lines
/// were rejected, not only how many.
#[derive(Debug, Clone, Default)]
pub struct MalformedReport {
    /// Non-blank lines that failed to parse.
    pub count: usize,
    /// First few `(1-based line number, reason)` pairs.
    pub samples: Vec<(usize, String)>,
}

impl MalformedReport {
    fn record(&mut self, line_no: usize, err: &ParseError) {
        self.count += 1;
        if self.samples.len() < MALFORMED_SAMPLES {
            self.samples.push((line_no, err.to_string()));
        }
    }
}

impl fmt::Display for MalformedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} malformed", self.count)?;
        if !self.samples.is_empty() {
            let shown: Vec<String> = self
                .samples
                .iter()
                .map(|(n, why)| format!("line {n}: {why}"))
                .collect();
            write!(f, " (first: {})", shown.join("; "))?;
        }
        Ok(())
    }
}

/// Read and parse a syslog wire-format file, skipping blank lines and
/// reporting the malformed ones (count + first offenders with reasons).
pub fn read_log(path: &Path) -> Result<(Vec<RawMessage>, MalformedReport), ArgError> {
    let text = fs::read_to_string(path).map_err(|e| io_err("reading log", e))?;
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

/// `--threads N` (0 or absent = all cores; 1 = exact sequential path).
fn threads_arg(p: &Parsed) -> Result<Parallelism, ArgError> {
    let n: usize = p.opt_parse("threads", 0)?;
    Ok(if n == 0 {
        Parallelism::default()
    } else {
        Parallelism::with_threads(n)
    })
}

/// `--log-format text|json` (default text): how diagnostics reach stderr.
pub fn logger_for(p: &Parsed) -> Result<Logger, ArgError> {
    let fmt: LogFormat = p
        .opt("log-format")
        .unwrap_or("text")
        .parse()
        .map_err(ArgError)?;
    Ok(Logger::stderr(fmt))
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

/// `--trace FILE` opens a JSONL sink for per-event provenance records.
fn trace_sink(p: &Parsed) -> Result<Option<JsonlSink>, ArgError> {
    match p.opt("trace") {
        Some(path) => Ok(Some(
            JsonlSink::create(Path::new(path)).map_err(|e| io_err("creating trace file", e))?,
        )),
        None => Ok(None),
    }
}

fn write_trace(sink: &JsonlSink, prov: &[EventProvenance]) -> Result<(), ArgError> {
    for record in prov {
        sink.write(&record.to_json())
            .map_err(|e| io_err("writing trace", e))?;
    }
    Ok(())
}

/// `--quarantine-out FILE` opens a JSONL sidecar for messages whose
/// augmentation panicked (quarantined rather than crashing the run).
fn quarantine_sink(p: &Parsed) -> Result<Option<fs::File>, ArgError> {
    match p.opt("quarantine-out") {
        Some(path) => Ok(Some(
            fs::File::create(Path::new(path)).map_err(|e| io_err("creating quarantine file", e))?,
        )),
        None => Ok(None),
    }
}

fn write_quarantine(sink: &mut fs::File, records: &[QuarantineRecord]) -> Result<(), ArgError> {
    for rec in records {
        writeln!(sink, "{}", rec.to_json()).map_err(|e| io_err("writing quarantine file", e))?;
    }
    Ok(())
}

/// The observability outputs one command run threads through its stages:
/// the telemetry handle, where to snapshot metrics, where to stream
/// provenance traces, and where structured diagnostics go.
struct Obs<'a> {
    tel: &'a Telemetry,
    metrics: Option<&'a Path>,
    trace: Option<&'a JsonlSink>,
    logger: &'a Logger,
}

/// Report sampled malformed lines through the structured log sink.
fn log_malformed(logger: &Logger, samples: &[(usize, String)]) {
    for (n, why) in samples {
        logger.warn(
            "malformed line",
            &[
                ("line", Json::from(*n)),
                ("reason", Json::from(why.as_str())),
            ],
        );
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

/// `sdigest generate --dataset A|B [--scale F] [--seed N] --out DIR [--metrics-out FILE]`
///
/// Writes `syslog.log` (wire format), one config per router under
/// `configs/`, and `tickets.json` for the online period.
pub fn cmd_generate(p: &Parsed) -> CmdResult {
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
    let d = Dataset::generate_with(spec, &tel);

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
        if d.spec.vendor == Vendor::V1 {
            "V1"
        } else {
            "V2"
        },
        d.topology.routers.len(),
        d.messages.len(),
        d.train().len(),
        d.online().len(),
        d.gt_events.len(),
        tickets.len(),
        out.display()
    ))
}

/// `sdigest learn --configs DIR --log FILE --profile A|B --out FILE [--threads N]
///  [--metrics-out FILE] [--log-format text|json]`
pub fn cmd_learn(p: &Parsed) -> CmdResult {
    let cfg_dir = Path::new(p.req("configs")?);
    let log = Path::new(p.req("log")?);
    let out = Path::new(p.req("out")?);
    let mut cfg = profile(p.opt("profile").unwrap_or("A"))?;
    cfg.par = threads_arg(p)?;
    let (tel, metrics) = telemetry_for(p);
    let logger = logger_for(p)?;

    let mut configs = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(cfg_dir)
        .map_err(|e| io_err("reading configs dir", e))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cfg"))
        .collect();
    entries.sort();
    for path in entries {
        configs.push(fs::read_to_string(&path).map_err(|e| io_err("reading config", e))?);
    }
    if configs.is_empty() {
        return Err(ArgError(format!("no .cfg files in {}", cfg_dir.display())));
    }
    let (msgs, bad) = read_log(log)?;
    log_malformed(&logger, &bad.samples);
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
/// layer, with optional checkpointing:
///
/// * `--max-skew S` — reorder tolerance in seconds (default 0);
/// * `--max-open M` — force-close oldest groups beyond M open messages;
/// * `--checkpoint FILE` — resume from the newest verifiable snapshot
///   generation at FILE (falling back past corrupt ones), and write a
///   rotated snapshot there every `--checkpoint-every N` lines
///   (default 10000);
/// * `--checkpoint-keep K` — previous generations kept alongside the
///   newest (`FILE.1`, `FILE.2`, …; default 2);
/// * `--quarantine-out FILE` — JSONL sidecar for messages whose
///   augmentation panicked (the run continues without them).
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
    let mut qsink = quarantine_sink(p)?;
    let scfg = StreamConfig {
        idle_close: 0,
        max_open_messages: max_open,
    };

    let text = fs::read_to_string(log).map_err(|e| io_err("reading log", e))?;
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
                if let Some(sink) = obs.trace {
                    write_trace(sink, &ingest.take_provenance())?;
                }
                if let Some(sink) = qsink.as_mut() {
                    write_quarantine(sink, &ingest.take_quarantined())?;
                }
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
    if let Some(sink) = obs.trace {
        write_trace(sink, &ingest.take_provenance())?;
    }
    if let Some(sink) = qsink.as_mut() {
        write_quarantine(sink, &ingest.take_quarantined())?;
    }
    events.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.start.cmp(&b.start)));
    out.push_str(&format!(
        "streamed {} lines ({} malformed, {} late, {} duplicate, {} unknown-router, \
         {} force-closed, {} quarantined) -> {} events\n",
        stats.n_lines,
        stats.n_malformed,
        stats.n_late,
        stats.n_duplicate,
        stats.digester.n_dropped,
        stats.digester.n_force_closed,
        stats.digester.n_quarantined,
        events.len()
    ));
    log_malformed(obs.logger, ingest.malformed_samples());
    Ok(events)
}

/// `sdigest digest --knowledge FILE --log FILE [--top N] [--stages TRC] [--threads N]
///  [--metrics-out FILE] [--trace FILE] [--log-format text|json]
///  [--stream [--max-skew S] [--max-open M] [--checkpoint FILE] [--checkpoint-every N]]`
pub fn cmd_digest(p: &Parsed) -> CmdResult {
    let k = load_knowledge(p)?;
    let log = Path::new(p.req("log")?);
    let top: usize = p.opt_parse("top", 20)?;
    let mut gcfg = stages(p.opt("stages").unwrap_or("TRC"))?;
    gcfg.par = threads_arg(p)?;
    let (tel, metrics) = telemetry_for(p);
    let logger = logger_for(p)?;
    let trace = trace_sink(p)?;

    let mut out = String::new();
    let events = if p.flag("stream") {
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
                logger: &logger,
            },
        )?
    } else {
        let (msgs, bad) = read_log(log)?;
        log_malformed(&logger, &bad.samples);
        let (d, prov) = digest_instrumented(&k, &msgs, &gcfg, &tel, trace.is_some());
        if let (Some(sink), Some(prov)) = (trace.as_ref(), prov.as_deref()) {
            write_trace(sink, prov)?;
        }
        if let Some(mut sink) = quarantine_sink(p)? {
            write_quarantine(&mut sink, &d.quarantined)?;
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

/// `sdigest explain --knowledge FILE --log FILE --event N [--stages TRC] [--threads N]`
///
/// Re-runs the batch digest with provenance tracing enabled and renders
/// the full provenance of one event: which templates its messages
/// matched, how many links each grouping stage contributed, which mined
/// rules fired, and what closed it. Event ids are the 1-based ranks
/// printed by `sdigest digest` (same knowledge, log, and stages).
pub fn cmd_explain(p: &Parsed) -> CmdResult {
    let k = load_knowledge(p)?;
    let log = Path::new(p.req("log")?);
    let id: u64 = p
        .req("event")?
        .parse()
        .map_err(|_| ArgError("invalid value for --event: expected an event id".to_owned()))?;
    let mut gcfg = stages(p.opt("stages").unwrap_or("TRC"))?;
    gcfg.par = threads_arg(p)?;
    let logger = logger_for(p)?;

    let (msgs, bad) = read_log(log)?;
    log_malformed(&logger, &bad.samples);
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

/// `sdigest stats --log FILE [--top N]` — raw per-code and per-router
/// message counts (what operators look at *before* they have a digest).
pub fn cmd_stats(p: &Parsed) -> CmdResult {
    let (msgs, bad) = read_log(Path::new(p.req("log")?))?;
    let top: usize = p.opt_parse("top", 15)?;
    let mut by_code: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_router: BTreeMap<&str, usize> = BTreeMap::new();
    for m in &msgs {
        *by_code.entry(m.code.as_str()).or_insert(0) += 1;
        *by_router.entry(m.router.as_str()).or_insert(0) += 1;
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

/// `sdigest inject --log FILE --out FILE [--preset clean|bounded|hostile] [--seed N]`
/// `sdigest inject --artifact FILE [--storage KIND] [--at BYTE] [--seed N] [--out FILE]`
///
/// Feed mode perturbs a clean wire-format feed with deterministic faults
/// (bounded reordering, duplicates, corrupted copies, and — for
/// `hostile` — drops and clock skew), for exercising the fault-tolerant
/// ingest path. Artifact mode instead damages a persisted artifact
/// (checkpoint or knowledge file) with a storage fault — `truncate`,
/// `bitflip`, `short-write` or `disk-full` — at a seed-derived offset
/// (or an explicit `--at`), for exercising the recovery path.
pub fn cmd_inject(p: &Parsed) -> CmdResult {
    if let Some(artifact) = p.opt("artifact") {
        return inject_artifact(p, Path::new(artifact));
    }
    let log = Path::new(p.req("log")?);
    let out_path = Path::new(p.req("out")?);
    let seed: u64 = p.opt_parse("seed", 1)?;
    let spec = match p.opt("preset").unwrap_or("bounded") {
        "clean" => FaultSpec::clean(seed),
        "bounded" => FaultSpec::bounded(seed),
        "hostile" => FaultSpec::hostile(seed),
        other => {
            return Err(ArgError(format!(
                "unknown preset {other:?} (use clean, bounded, or hostile)"
            )))
        }
    };
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
            match kind {
                "truncate" => StorageFault::Truncate { at },
                "bitflip" => StorageFault::BitFlip {
                    offset: at,
                    bit: (seed % 8) as u8,
                },
                "short" | "short-write" => StorageFault::ShortWrite { at },
                "diskfull" | "disk-full" => StorageFault::DiskFull { at },
                other => {
                    return Err(ArgError(format!(
                        "unknown storage fault {other:?} \
                         (use truncate, bitflip, short-write, or disk-full)"
                    )))
                }
            }
        }
        None => StorageFault::from_seed(kind, seed, bytes.len()).ok_or_else(|| {
            ArgError(format!(
                "unknown storage fault {kind:?} \
                 (use truncate, bitflip, short-write, or disk-full)"
            ))
        })?,
    };
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

/// Usage text.
pub fn usage() -> &'static str {
    "sdigest — SyslogDigest command line\n\
     \n\
     USAGE:\n\
       sdigest generate --out DIR [--dataset A|B] [--scale F] [--seed N]\n\
       sdigest learn    --configs DIR --log FILE --out FILE [--profile A|B] [--threads N]\n\
                        [--metrics-out FILE] [--log-format text|json]\n\
       sdigest digest   --knowledge FILE --log FILE [--top N] [--stages T|TR|TRC]\n\
                        [--threads N] [--metrics-out FILE] [--trace FILE]\n\
                        [--log-format text|json] [--quarantine-out FILE]\n\
                        [--stream [--max-skew SECS] [--max-open N]\n\
                        [--checkpoint FILE] [--checkpoint-every N]\n\
                        [--checkpoint-keep K]]\n\
       sdigest explain  --knowledge FILE --log FILE --event ID [--stages T|TR|TRC]\n\
                        [--threads N]\n\
       sdigest inject   --log FILE --out FILE [--preset clean|bounded|hostile] [--seed N]\n\
       sdigest inject   --artifact FILE [--storage truncate|bitflip|short-write|disk-full]\n\
                        [--at BYTE] [--seed N] [--out FILE]\n\
       sdigest stats    --log FILE [--top N]\n\
     \n\
     OBSERVABILITY:\n\
       --metrics-out FILE   write a Prometheus text-format snapshot of all\n\
                            stage counters and span timings (updated at every\n\
                            checkpoint and at exit)\n\
       --trace FILE         append one JSON provenance record per emitted\n\
                            event (templates matched, rules fired, links per\n\
                            grouping stage, close reason)\n\
       --log-format FORMAT  diagnostics on stderr as human text (default) or\n\
                            one JSON object per line\n\
     \n\
     DURABILITY:\n\
       Checkpoints and knowledge files are written atomically inside a\n\
       checksummed envelope; a resume falls back past corrupt checkpoint\n\
       generations to the newest verifiable one, so a crash (even mid-write)\n\
       loses at most one --checkpoint-every interval of progress.\n\
       --checkpoint-keep K  previous checkpoint generations to retain as\n\
                            FILE.1 .. FILE.K (default 2)\n\
       --quarantine-out F   JSONL sidecar recording messages whose\n\
                            augmentation panicked; the run continues and the\n\
                            digest is as if those messages were absent\n"
}

/// Dispatch a parsed command line.
pub fn dispatch(p: &Parsed) -> CmdResult {
    match p.command.as_str() {
        "generate" => cmd_generate(p),
        "learn" => cmd_learn(p),
        "digest" => cmd_digest(p),
        "explain" => cmd_explain(p),
        "inject" => cmd_inject(p),
        "stats" => cmd_stats(p),
        "help" | "--help" => Ok(usage().to_owned()),
        other => Err(ArgError(format!(
            "unknown subcommand {other:?}\n\n{}",
            usage()
        ))),
    }
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
        let poison = sd_netsim::poison_message(sd_model::Timestamp(last.ts.0 + 1), &last.router);
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

    #[test]
    fn helpful_errors() {
        assert!(cmd_generate(&parse(&["generate", "--dataset", "Z", "--out", "/tmp/x"])).is_err());
        assert!(cmd_learn(&parse(&["learn"])).is_err());
        assert!(dispatch(&parse(&["frobnicate"])).is_err());
        assert!(dispatch(&parse(&["help"])).unwrap().contains("USAGE"));
    }
}
