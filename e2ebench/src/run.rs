//! One measured pass of each path, from the knowledge and feed files on
//! disk to the rendered ranked listing, through the public API only.

use crate::stats::quantile;
use sd_model::{sort_batch, Parallelism, ParseError, RawMessage};
use sd_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::time::Instant;
use syslogdigest::{
    digest_instrumented, DomainKnowledge, FaultTolerantIngest, GroupingConfig, IngestStats,
    NetworkEvent, StreamConfig, StreamSnapshot,
};

/// How a stream pass runs: reorder tolerance, open-state bound and,
/// for the kill/resume path, the checkpoint schedule.
pub struct StreamPlan {
    pub max_skew: i64,
    /// `max_open_messages`; 0 = unbounded.
    pub max_open: usize,
    pub ckpt: Option<CkptPlan>,
}

/// Rotated checkpoints every `every` lines into `path`, and a kill at
/// each feed line in `kills` (ascending), each followed by a restart:
/// knowledge load, last-good recovery and resume, then replay of the
/// lines since the recovered checkpoint.
pub struct CkptPlan {
    pub path: PathBuf,
    pub every: usize,
    pub keep: usize,
    pub kills: Vec<usize>,
}

/// Outside timers and sizes of the checkpoint layer in one pass.
#[derive(Default)]
pub struct CkptStats {
    /// Size of every checkpoint saved.
    pub bytes: Vec<u64>,
    /// Size of the generation each restart resumed from.
    pub recovered_bytes: Vec<u64>,
    /// Each restart, cold start to ready for the next line: knowledge
    /// load + `recover_last_good` + `resume`.
    pub restart_s: Vec<f64>,
    pub snapshot_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub resume_s: f64,
}

/// Result of one pass of either path.
pub struct Pass {
    /// Knowledge + feed files opened → ranked listing rendered.
    pub wall_s: f64,
    /// Per-message latency at the program's input, in ns, as
    /// `[median, 99.9th percentile]` over the pass's messages. Stream
    /// path: service time of each `push_line` call, including any
    /// checkpoint taken after it; the tail is [`windowed_tail`]. Batch
    /// path, which takes the whole file at once: the wait from parsing a
    /// line to the rendered listing.
    pub push_ns: [u64; 2],
    /// Number of latency samples behind `push_ns`.
    pub push_samples: usize,
    /// Events in rank order.
    pub events: Vec<NetworkEvent>,
    /// One `format_line` per event, in rank order.
    pub listing: String,
    pub lines: usize,
    pub stream_stats: Option<IngestStats>,
    pub ckpt: CkptStats,
}

fn load_knowledge(path: &Path) -> Result<DomainKnowledge, String> {
    DomainKnowledge::load(path).map_err(|e| e.to_string())
}

fn read_feed(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Consecutive `push_line` calls per window of the tail percentile.
const TAIL_WINDOW: usize = 25_000;

/// The 99.9th percentile of each window of [`TAIL_WINDOW`] consecutive
/// samples (25 beyond it), median over the windows: a burst of host
/// stalls moves one window, not the figure. With fewer samples than one
/// window, the 99.9th percentile of all.
fn windowed_tail(samples: &[u64]) -> u64 {
    let mut tails: Vec<u64> = samples
        .chunks_exact(TAIL_WINDOW)
        .map(|w| quantile(&mut w.to_vec(), 0.999))
        .collect();
    if tails.is_empty() {
        return quantile(&mut samples.to_vec(), 0.999);
    }
    quantile(&mut tails, 0.5)
}

/// Render events one `format_line` per line (the paper's presentation).
pub fn render(events: &[NetworkEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.format_line());
        out.push('\n');
    }
    out
}

/// Rank order of the stream listing (as `sdigest digest --stream`):
/// score descending, then start; emission order breaks the rest.
pub fn rank_stream(events: &mut [NetworkEvent]) {
    events.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.start.cmp(&b.start)));
}

/// A parsed feed: well-formed messages, lines read, malformed lines.
pub struct Parsed {
    pub msgs: Vec<RawMessage>,
    pub lines: usize,
    pub malformed: usize,
    /// When parsing reached the line at each requested byte offset.
    pub reached: Vec<Instant>,
}

/// Parse every line of a feed, skipping blank ones, noting when the
/// line at each of the ascending byte offsets `marks` was reached.
pub fn parse_feed(text: &str, marks: &[usize]) -> Parsed {
    let mut p = Parsed {
        msgs: Vec::new(),
        lines: 0,
        malformed: 0,
        reached: Vec::with_capacity(marks.len()),
    };
    let mut offset = 0;
    for line in text.lines() {
        while marks.get(p.reached.len()).is_some_and(|&m| m <= offset) {
            p.reached.push(Instant::now());
        }
        offset += line.len() + 1;
        p.lines += 1;
        match RawMessage::parse_line(line) {
            Ok(m) => p.msgs.push(m),
            Err(ParseError::Blank) => {}
            Err(_) => p.malformed += 1,
        }
    }
    p
}

/// Batch path: read → parse → sort → `digest` → render. With telemetry
/// disabled, `digest_instrumented` is exactly `digest`.
pub fn batch_pass(
    knowledge: &Path,
    feed: &Path,
    par: Parallelism,
    tel: &Telemetry,
) -> Result<Pass, String> {
    let start = Instant::now();
    let k = load_knowledge(knowledge)?;
    let text = read_feed(feed)?;
    // A message waits from its line being parsed until the listing is
    // rendered; the lines at 0.1% and 50% of the feed wait the 99.9th
    // percentile and the median of those waits.
    let Parsed {
        mut msgs,
        lines,
        reached,
        ..
    } = parse_feed(&text, &[text.len() / 1000, text.len() / 2]);
    sort_batch(&mut msgs);
    let cfg = GroupingConfig {
        par,
        ..GroupingConfig::default()
    };
    let (d, _) = digest_instrumented(&k, &msgs, &cfg, tel, false);
    let listing = d.to_report();
    let end = Instant::now();
    let wait = |i: usize| {
        reached
            .get(i)
            .map_or(0, |&t| end.duration_since(t).as_nanos() as u64)
    };
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        push_ns: [wait(1), wait(0)],
        push_samples: lines,
        events: d.events,
        listing,
        lines,
        stream_stats: None,
        ckpt: CkptStats::default(),
    })
}

/// Stream path: read → `FaultTolerantIngest::push_line` per line →
/// `finish` → rank → render, with the plan's checkpoints and kills.
pub fn stream_pass(
    knowledge: &Path,
    feed: &Path,
    plan: &StreamPlan,
    par: Parallelism,
    tel: &Telemetry,
) -> Result<Pass, String> {
    if let Some(c) = &plan.ckpt {
        for g in 0..=c.keep as u32 {
            let _ = std::fs::remove_file(syslogdigest::generation_path(&c.path, g));
        }
    }
    let start = Instant::now();
    let k = load_knowledge(knowledge)?;
    let cfg = GroupingConfig {
        par,
        ..GroupingConfig::default()
    };
    let scfg = StreamConfig {
        idle_close: 0,
        max_open_messages: plan.max_open,
    };
    let mut ing = FaultTolerantIngest::with_telemetry(&k, cfg, scfg, plan.max_skew, tel);
    let text = read_feed(feed)?;
    let lines: Vec<&str> = text.lines().collect();

    let mut ck = CkptStats::default();
    let kills: &[usize] = plan.ckpt.as_ref().map_or(&[], |c| &c.kills);
    let mut events: Vec<NetworkEvent> = Vec::new();
    let mut push_ns: Vec<u64> = Vec::with_capacity(lines.len() + lines.len() / 8);
    let (mut pos, mut since_ckpt, mut emitted_at_ckpt, mut next_kill) = (0, 0, 0, 0);
    while pos < lines.len() {
        if let Some(c) = plan
            .ckpt
            .as_ref()
            .filter(|_| kills.get(next_kill) == Some(&pos))
        {
            // Kill: everything not in a checkpoint dies with the process,
            // including the events emitted since the last one. The
            // restarted process loads the knowledge file, then resumes.
            next_kill += 1;
            drop(ing);
            events.truncate(emitted_at_ckpt);
            let t = Instant::now();
            let reloaded = load_knowledge(knowledge)?;
            let t_load = Instant::now();
            let (snap, report) = StreamSnapshot::recover_last_good(&c.path, c.keep)
                .map_err(|e| e.to_string())?
                .ok_or("no checkpoint to recover from")?;
            let t_resume = Instant::now();
            ing = FaultTolerantIngest::resume_with_telemetry(&k, &snap, tel)
                .map_err(|e| e.to_string())?;
            ck.load_s += t_resume.duration_since(t_load).as_secs_f64();
            ck.resume_s += t_resume.elapsed().as_secs_f64();
            ck.restart_s.push(t.elapsed().as_secs_f64());
            if reloaded.fingerprint() != k.fingerprint() {
                return Err("the knowledge file changed during the run".into());
            }
            let path = syslogdigest::generation_path(&c.path, report.generation);
            ck.recovered_bytes
                .push(std::fs::metadata(path).map_err(|e| e.to_string())?.len());
            pos = report.lines_consumed;
            since_ckpt = 0;
            continue;
        }
        let t = Instant::now();
        events.extend(ing.push_line(lines[pos]));
        pos += 1;
        if let Some(c) = &plan.ckpt {
            since_ckpt += 1;
            if since_ckpt >= c.every {
                since_ckpt = 0;
                let ts = Instant::now();
                let snap = ing.checkpoint();
                let tw = Instant::now();
                snap.save_rotated(&c.path, c.keep)
                    .map_err(|e| e.to_string())?;
                ck.snapshot_s += tw.duration_since(ts).as_secs_f64();
                ck.save_s += tw.elapsed().as_secs_f64();
                ck.bytes
                    .push(std::fs::metadata(&c.path).map_err(|e| e.to_string())?.len());
                emitted_at_ckpt = events.len();
            }
        }
        push_ns.push(t.elapsed().as_nanos() as u64);
    }
    let (rest, stats) = ing.finish();
    events.extend(rest);
    rank_stream(&mut events);
    let listing = render(&events);
    let push_samples = push_ns.len();
    let p999 = windowed_tail(&push_ns);
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        push_ns: [quantile(&mut push_ns, 0.5), p999],
        push_samples,
        events,
        listing,
        lines: lines.len(),
        stream_stats: Some(stats),
        ckpt: ck,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_burst_moves_one_window_of_the_tail() {
        let mut samples = vec![10u64; 3 * TAIL_WINDOW];
        for s in &mut samples[..TAIL_WINDOW] {
            *s = 1_000;
        }
        samples[2 * TAIL_WINDOW..2 * TAIL_WINDOW + 100].fill(500);
        assert_eq!(windowed_tail(&samples), 500);
        assert_eq!(windowed_tail(&[1, 2, 3]), 3);
    }
}
