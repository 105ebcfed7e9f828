//! End-to-end benchmark of SyslogDigest: from a feed file and a knowledge
//! file to the ranked event listing, on the batch path and on the
//! fault-tolerant stream path (see `README.md` for every metric).
//!
//! ```text
//! e2ebench --workload batch-clean|batch-faulted|stream-clean|faulted-recover
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are made from the seed in a scratch directory under the
//! current directory, which is removed at exit. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`).

mod check;
mod layers;
mod run;
mod setup;
mod stats;

use run::{CkptPlan, Pass, StreamPlan};
use sd_model::{sort_batch, Parallelism, RawMessage};
use sd_telemetry::Telemetry;
use stats::{median, peak_rss_mib, Metrics};
use std::path::{Path, PathBuf};
use std::time::Instant;
use syslogdigest::{digest, DomainKnowledge, GroupingConfig};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Open-message bound of the resume path: keeps snapshots near 0.2 MB,
/// so a restart takes about a second with today's snapshot loader, whose
/// cost grows with the square of the snapshot size.
const MAX_OPEN: usize = 500;
/// Reorder tolerance of the resume path; `FaultSpec::bounded` delays
/// lines by at most 30 s.
const MAX_SKEW: i64 = 30;
/// Lines between rotated checkpoints on the resume path: often enough
/// that checkpoint stalls make up more than 0.1% of `push_line` calls, so
/// `push_p999_us` lands inside them rather than on their edge.
const CKPT_EVERY: usize = 500;
/// Previous checkpoint generations kept beside the newest.
const CKPT_KEEP: usize = 2;
/// The resume path is killed once, at this feed line, mid-interval so
/// the lines since the last checkpoint are replayed. Each restart loads
/// a snapshot with a single-threaded parser whose speed swings with the
/// host's load more than the rest of the pass does, so more kills made
/// `msgs_per_s` follow the host more than the code.
const KILL_AT: usize = 120_000 + CKPT_EVERY / 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BatchClean,
    BatchFaulted,
    StreamClean,
    FaultedRecover,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "batch-clean" => Some(Workload::BatchClean),
            "batch-faulted" => Some(Workload::BatchFaulted),
            "stream-clean" => Some(Workload::StreamClean),
            "faulted-recover" => Some(Workload::FaultedRecover),
            _ => None,
        }
    }

    /// Whether the workload reads the faulted feed.
    pub fn faulted(self) -> bool {
        matches!(self, Workload::BatchFaulted | Workload::FaultedRecover)
    }

    /// Whether the workload runs the batch path.
    pub fn batch(self) -> bool {
        matches!(self, Workload::BatchClean | Workload::BatchFaulted)
    }

    /// The stream plan of this workload; a batch workload's is the one
    /// its stream twin on the same feed runs (stream-clean for
    /// batch-clean, faulted-recover for batch-faulted).
    pub fn plan(self, dir: &Path) -> StreamPlan {
        if self.faulted() {
            resume_plan(dir)
        } else {
            StreamPlan {
                max_skew: 0,
                max_open: 0,
                ckpt: None,
            }
        }
    }

    /// One measured pass of this workload's path.
    pub fn pass(
        self,
        inputs: &setup::Inputs,
        dir: &Path,
        par: Parallelism,
        tel: &Telemetry,
    ) -> Result<Pass, String> {
        if self.batch() {
            run::batch_pass(&inputs.knowledge, &inputs.feed, par, tel)
        } else {
            run::stream_pass(&inputs.knowledge, &inputs.feed, &self.plan(dir), par, tel)
        }
    }
}

/// The faulted-recover stream plan, with its checkpoint file in `dir`.
pub fn resume_plan(dir: &Path) -> StreamPlan {
    StreamPlan {
        max_skew: MAX_SKEW,
        max_open: MAX_OPEN,
        ckpt: Some(CkptPlan {
            path: dir.join("run.ckpt"),
            every: CKPT_EVERY,
            keep: CKPT_KEEP,
            kills: vec![KILL_AT],
        }),
    }
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failures: check::Failures,
    pub metrics: Metrics,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The clean feed as the batch path reads it: parsed from its wire
/// lines and time-sorted.
pub fn clean_sorted(clean: &[RawMessage]) -> Vec<RawMessage> {
    let mut msgs: Vec<RawMessage> = clean
        .iter()
        .map(|m| RawMessage::parse_line(&m.to_line()).expect("generated lines parse"))
        .collect();
    sort_batch(&mut msgs);
    msgs
}

/// Check one pass of `w`: a batch listing against the single-thread
/// `digest` of the same parsed and sorted feed, stream events for
/// exactly-once membership. Failed operations are counted against the
/// single-thread batch partition of the clean feed. Returns (outputs
/// correct, failed operations).
pub fn check_pass(
    w: Workload,
    k: &DomainKnowledge,
    feed: &Path,
    clean: &[RawMessage],
    dir: &Path,
    pass: &Pass,
) -> Result<(bool, check::Failures), String> {
    let clean = clean_sorted(clean);
    let sequential = GroupingConfig {
        par: Parallelism::sequential(),
        ..GroupingConfig::default()
    };
    let reference = digest(k, &clean, &sequential);
    let ref_part = check::partition(&reference.events, clean.len());
    if w == Workload::BatchClean {
        let same = pass.listing == reference.to_report();
        let observed = check::partition(&pass.events, clean.len());
        return Ok((same, check::failures(&ref_part, &observed)));
    }
    let text = std::fs::read_to_string(feed).map_err(|e| e.to_string())?;
    // The messages the program numbered, in its order.
    let seq = if w.batch() {
        let mut msgs = run::parse_feed(&text, &[]).msgs;
        sort_batch(&mut msgs);
        if pass.listing != digest(k, &msgs, &sequential).to_report() {
            return Ok((false, check::Failures::default()));
        }
        msgs
    } else {
        let stats = pass
            .stream_stats
            .as_ref()
            .ok_or("stream pass without stats")?;
        let seq = check::stream_sequence(k, &text, w.plan(dir).max_skew);
        let d = &stats.digester;
        let accepted = d.n_input - d.n_dropped - d.n_quarantined;
        if accepted != seq.len() || !check::exactly_once(&pass.events, accepted) {
            return Ok((false, check::Failures::default()));
        }
        seq
    };
    let to_clean = check::match_to_clean(&clean, &seq);
    let by_seq = check::partition(&pass.events, seq.len());
    let mut observed = vec![u32::MAX; clean.len()];
    for (s, &c) in to_clean.iter().enumerate() {
        if c != u32::MAX {
            observed[c as usize] = by_seq[s];
        }
    }
    Ok((true, check::failures(&ref_part, &observed)))
}

/// Untraced run: set up `SETUP_REPS` times, then repeat the workload's
/// pass for up to `seconds` (at least once) and check the outputs.
fn measure(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let mut fingerprints = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (inp, _) = setup::build(dir, seed, w.faulted(), &Telemetry::disabled())?;
        setup_s.push(t.elapsed().as_secs_f64());
        fingerprints.push(setup::fingerprint(&inp)?);
        inputs = Some(inp);
    }
    let mut inputs = inputs.expect("at least one set-up");
    let clean_msgs = inputs.clean.len();
    // Only the files are input to the measured phase; the checks
    // regenerate the clean feed afterwards.
    inputs.clean = Vec::new();
    inputs.history = Vec::new();
    let deterministic = fingerprints.windows(2).all(|p| p[0] == p[1]);
    let mut notes = Vec::new();

    let par = Parallelism::default();
    let off = Telemetry::disabled();
    let start = Instant::now();
    let mut first: Option<Pass> = None;
    let (mut rates, mut rss) = (Vec::new(), Vec::new());
    let (mut p50, mut p999, mut push_samples) = (Vec::new(), Vec::new(), 0);
    let (mut same_output, mut rss_reset) = (true, true);
    // Passes run back to back while the next one, as long as the last,
    // still ends within `seconds`; there is always at least one.
    let mut last_wall = 0.0;
    while first.is_none() || start.elapsed().as_secs_f64() + last_wall <= seconds {
        // Each pass's peak counts from the resident set it starts with.
        rss_reset &= stats::reset_peak_rss().is_ok();
        let pass = w.pass(&inputs, dir, par, &off)?;
        rss.push(peak_rss_mib().ok_or("cannot read VmHWM")?);
        last_wall = pass.wall_s;
        rates.push(pass.lines as f64 / pass.wall_s);
        p50.push(pass.push_ns[0] as f64 / 1e3);
        p999.push(pass.push_ns[1] as f64 / 1e3);
        push_samples += pass.push_samples;
        match &first {
            None => first = Some(pass),
            Some(f) => same_output &= f.listing == pass.listing,
        }
    }
    let pass = first.expect("at least one pass");

    let k = DomainKnowledge::load(&inputs.knowledge).map_err(|e| e.to_string())?;
    let clean = setup::clean_feed(seed)?;
    let (ok, failures) = check_pass(w, &k, &inputs.feed, &clean, dir, &pass)?;

    let mut m = Metrics::default();
    m.put("msgs_per_s", median(&rates), "msg/s");
    m.put("setup_s", median(&setup_s), "s");
    m.put("push_p50_us", median(&p50), "us");
    m.put("push_p999_us", median(&p999), "us");
    m.put("peak_rss_mb", median(&rss), "MiB");
    notes.push(format!(
        "env: hw_threads={} seed={seed} feed_lines={} feed_bytes={} clean_msgs={} \
         knowledge_bytes={} passes={} push_samples={} ckpt_saves={} ckpt_bytes_max={} \
         ckpt_recovered_bytes_max={}",
        sd_model::par::available_threads(),
        inputs.feed_lines,
        inputs.feed_bytes,
        clean_msgs,
        inputs.knowledge_bytes,
        rates.len(),
        push_samples,
        pass.ckpt.bytes.len(),
        pass.ckpt.bytes.iter().max().copied().unwrap_or(0),
        pass.ckpt.recovered_bytes.iter().max().copied().unwrap_or(0),
    ));
    if !rss_reset {
        notes.push("peak RSS could not be reset: it counts from process start".into());
    }
    if !deterministic {
        notes.push("set-up repetitions produced different inputs".into());
    }
    if !same_output {
        notes.push("passes rendered different listings".into());
    }
    Ok(Outcome {
        correct: ok && deterministic && same_output,
        attempted: clean_msgs as u64,
        failures,
        metrics: m,
        notes,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload batch-clean|batch-faulted|stream-clean|faulted-recover \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let name = format!("{:?}", args.workload).to_lowercase();
    let dir: PathBuf = Path::new(".e2ebench-work").join(format!("{name}-{}", std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| {
            if args.trace {
                layers::profile(args.workload, args.seed, &dir)
            } else {
                measure(args.workload, args.seed, args.seconds, &dir)
            }
        });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".e2ebench-work");
    match result {
        Ok(out) if out.metrics.all_finite() => {
            for note in &out.notes {
                println!("{note}");
            }
            println!(
                "failed operations: {} of {} ({} in no event, {} in a different event)",
                out.failures.total(),
                out.attempted,
                out.failures.lost,
                out.failures.split
            );
            print!("{}", out.metrics.table());
            println!(
                "{}",
                out.metrics
                    .result_json(out.correct, out.attempted, out.failures.total())
            );
        }
        Ok(_) => {
            eprintln!("error: a metric is not a finite number");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
