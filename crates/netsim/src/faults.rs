//! Deterministic fault injection for ingest robustness testing.
//!
//! Real router syslog feeds are hostile in ways the simulator's clean
//! output is not: relays deliver out of order within bounded jitter,
//! retransmit duplicates, truncate lines mid-write, drop lines, run on
//! skewed clocks, and occasionally flood. [`inject`] perturbs a clean
//! generated feed with exactly those faults, driven entirely by
//! [`FaultSpec`] and its seed, so every faulted corpus is reproducible
//! bit for bit.
//!
//! The output is a sequence of *feed lines* (wire format), not parsed
//! messages — corruption happens at the byte level, below the parser.
//!
//! Fault semantics matter for the equivalence tests in `crates/core`:
//!
//! * **Reordering** delays a message by up to `reorder_secs` in delivery
//!   time without touching its timestamp — repairable by a reorder
//!   buffer with `max_skew_secs ≥ reorder_secs`.
//! * **Duplication** and **burst floods** emit byte-identical copies —
//!   removable by content dedup.
//! * **Corruption** emits a *corrupted copy* immediately before the
//!   intact line (modeling a partial write followed by a retransmit), and
//!   the corrupted bytes are guaranteed unparseable — so a parser that
//!   skips malformed lines recovers the exact clean feed.
//! * **Drops** and **clock skew** genuinely lose or alter information;
//!   they appear only in the [`FaultSpec::hostile`] preset, where the
//!   assertion is "count and survive", not equivalence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_model::{Fnv, RawMessage};

/// What to do to a clean feed. All probabilities are per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for the fault RNG (independent of the dataset seed).
    pub(crate) seed: u64,
    /// Maximum delivery delay, in seconds, for reordered messages.
    pub reorder_secs: i64,
    /// Probability a message is delayed (and thus possibly reordered).
    pub(crate) reorder_prob: f64,
    /// Probability a message is delivered twice.
    pub(crate) dup_prob: f64,
    /// Probability a corrupted copy precedes a message's intact line.
    pub(crate) corrupt_prob: f64,
    /// Probability a message is silently lost (hostile only — breaks
    /// equivalence by construction).
    pub(crate) drop_prob: f64,
    /// Constant clock offset, in seconds, applied to the *timestamps* of
    /// skewed routers (hostile only — alters content).
    pub(crate) clock_skew_secs: i64,
    /// Every `n`-th router (by name hash) runs on a skewed clock;
    /// `0` disables skew.
    pub(crate) skew_router_every: u64,
    /// Extra copies of each message inside the burst window (`0` = none).
    pub(crate) burst_copies: usize,
    /// Start of the burst window, as a message index into the feed.
    pub(crate) burst_at: usize,
    /// Length of the burst window in messages.
    pub(crate) burst_len: usize,
}

impl FaultSpec {
    /// No faults at all: `inject` returns the feed verbatim.
    pub fn clean(seed: u64) -> Self {
        FaultSpec {
            seed,
            reorder_secs: 0,
            reorder_prob: 0.0,
            dup_prob: 0.0,
            corrupt_prob: 0.0,
            drop_prob: 0.0,
            clock_skew_secs: 0,
            skew_router_every: 0,
            burst_copies: 0,
            burst_at: 0,
            burst_len: 0,
        }
    }

    /// Faults a correctly configured ingest layer repairs *exactly*:
    /// bounded reordering, duplicates, a burst flood, and ~1% corrupted
    /// copies. `max_skew_secs ≥ 30` recovers the clean partition.
    pub fn bounded(seed: u64) -> Self {
        FaultSpec {
            reorder_secs: 30,
            reorder_prob: 0.5,
            dup_prob: 0.05,
            corrupt_prob: 0.01,
            burst_copies: 2,
            burst_at: 100,
            burst_len: 50,
            ..FaultSpec::clean(seed)
        }
    }

    /// Beyond-bounds faults: reordering past any reasonable skew window,
    /// real message loss, and skewed router clocks. The ingest layer
    /// must *count* the damage and keep running — equivalence is
    /// impossible by construction.
    pub fn hostile(seed: u64) -> Self {
        FaultSpec {
            reorder_secs: 3600,
            reorder_prob: 0.7,
            dup_prob: 0.15,
            corrupt_prob: 0.05,
            drop_prob: 0.02,
            clock_skew_secs: 900,
            skew_router_every: 3,
            burst_copies: 5,
            burst_at: 50,
            burst_len: 200,
            ..FaultSpec::clean(seed)
        }
    }

    /// The preset called `name` (`clean`, `bounded` or `hostile`) with
    /// fault seed `seed`, or `None` for any other name. The one table
    /// behind `sdigest inject --preset`, corpus variants and golden
    /// entries.
    pub fn preset(name: &str, seed: u64) -> Option<Self> {
        match name {
            "clean" => Some(FaultSpec::clean(seed)),
            "bounded" => Some(FaultSpec::bounded(seed)),
            "hostile" => Some(FaultSpec::hostile(seed)),
            _ => None,
        }
    }
}

/// What [`inject`] actually did, for test assertions and reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages in the input feed.
    pub n_input: usize,
    /// Messages delivered with a nonzero delay.
    pub n_reordered: usize,
    /// Extra duplicate deliveries emitted (dup + burst copies).
    pub n_duplicated: usize,
    /// Corrupted copies emitted.
    pub n_corrupted: usize,
    /// Messages silently dropped.
    pub n_dropped: usize,
    /// Messages whose timestamp was skewed.
    pub n_skewed: usize,
    /// Total lines in the faulted feed.
    pub n_lines: usize,
}

/// Corrupt a wire line so that it is *guaranteed* not to parse: truncate
/// at a random point, and if the prefix still parses (short lines with an
/// empty detail are valid), garble the timestamp too.
fn corrupt_line(line: &str, rng: &mut StdRng) -> String {
    let cut = if line.is_empty() {
        0
    } else {
        rng.gen_range(0..line.len())
    };
    // Truncation may split a UTF-8 char; the generator only emits ASCII,
    // but floor to a char boundary anyway so this never panics.
    let mut cut = cut;
    while cut > 0 && !line.is_char_boundary(cut) {
        cut -= 1;
    }
    let mut out = line[..cut].to_owned();
    if RawMessage::parse_line(&out).is_ok() || out.trim().is_empty() {
        // Still (or trivially) parseable: force a malformed timestamp by
        // prefixing the date field.
        out = format!("#{out}");
    }
    out
}

/// Perturb a clean, time-sorted feed according to `spec`. Returns the
/// faulted feed as wire-format lines in delivery order, plus a report of
/// every fault applied. Deterministic: same input + same spec (including
/// seed) always produces the same lines.
pub fn inject(msgs: &[RawMessage], spec: &FaultSpec) -> (Vec<String>, FaultReport) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut report = FaultReport {
        n_input: msgs.len(),
        ..FaultReport::default()
    };
    // (delivery time, original index, sub-order, line): sub-order places a
    // corrupted copy strictly before its intact line at equal delivery.
    let mut schedule: Vec<(i64, usize, u8, String)> = Vec::with_capacity(msgs.len());
    let burst_end = spec.burst_at.saturating_add(spec.burst_len);

    for (i, m) in msgs.iter().enumerate() {
        // Drain the RNG identically for every message so one fault's
        // probability does not perturb the draws of later messages.
        let delay_roll = rng.gen_bool(spec.reorder_prob.clamp(0.0, 1.0));
        let delay_secs = if spec.reorder_secs > 0 {
            rng.gen_range(0..=spec.reorder_secs)
        } else {
            0
        };
        let dup_roll = rng.gen_bool(spec.dup_prob.clamp(0.0, 1.0));
        let dup_delay = if spec.reorder_secs > 0 {
            rng.gen_range(0..=spec.reorder_secs)
        } else {
            0
        };
        let corrupt_roll = rng.gen_bool(spec.corrupt_prob.clamp(0.0, 1.0));
        let drop_roll = rng.gen_bool(spec.drop_prob.clamp(0.0, 1.0));

        if drop_roll {
            report.n_dropped += 1;
            continue;
        }

        let skewed = spec.skew_router_every > 0
            && spec.clock_skew_secs != 0
            && Fnv::hash(m.router().as_bytes()).is_multiple_of(spec.skew_router_every);
        let line = if skewed {
            report.n_skewed += 1;
            let mut sm = m.clone();
            sm.ts = sm.ts.plus(spec.clock_skew_secs);
            sm.to_line()
        } else {
            m.to_line()
        };

        let delay = if delay_roll { delay_secs } else { 0 };
        if delay > 0 {
            report.n_reordered += 1;
        }
        let delivery = m.ts.0 + delay;

        if corrupt_roll {
            report.n_corrupted += 1;
            schedule.push((delivery, i, 0, corrupt_line(&line, &mut rng)));
        }
        schedule.push((delivery, i, 1, line.clone()));
        if dup_roll {
            report.n_duplicated += 1;
            schedule.push((m.ts.0 + dup_delay, i, 2, line.clone()));
        }
        if spec.burst_copies > 0 && i >= spec.burst_at && i < burst_end {
            for c in 0..spec.burst_copies {
                report.n_duplicated += 1;
                schedule.push((delivery, i, 3 + c as u8, line.clone()));
            }
        }
    }

    // Delivery order; ties broken by original position then sub-order so
    // the result is a deterministic function of (feed, spec).
    schedule.sort_by_key(|e| (e.0, e.1, e.2));
    report.n_lines = schedule.len();
    (schedule.into_iter().map(|(_, _, _, l)| l).collect(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetSpec};
    use sd_telemetry::Telemetry;

    fn feed() -> Vec<RawMessage> {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.03), &Telemetry::disabled());
        d.online().to_vec()
    }

    #[test]
    fn presets_are_named_once() {
        for (name, spec) in [
            ("clean", FaultSpec::clean(4)),
            ("bounded", FaultSpec::bounded(4)),
            ("hostile", FaultSpec::hostile(4)),
        ] {
            assert_eq!(FaultSpec::preset(name, 4), Some(spec));
        }
        assert_eq!(FaultSpec::preset("gentle", 4), None);
    }

    #[test]
    fn clean_spec_is_identity() {
        let msgs = feed();
        let (lines, report) = inject(&msgs, &FaultSpec::clean(7));
        assert_eq!(lines.len(), msgs.len());
        for (line, m) in lines.iter().zip(&msgs) {
            assert_eq!(*line, m.to_line());
        }
        assert_eq!(
            report.n_reordered + report.n_duplicated + report.n_corrupted,
            0
        );
    }

    #[test]
    fn injection_is_deterministic_from_the_seed() {
        let msgs = feed();
        let (a, ra) = inject(&msgs, &FaultSpec::bounded(42));
        let (b, rb) = inject(&msgs, &FaultSpec::bounded(42));
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        let (c, _) = inject(&msgs, &FaultSpec::bounded(43));
        assert_ne!(a, c, "different seeds should fault differently");
    }

    #[test]
    fn bounded_faults_keep_every_intact_line_and_bound_the_delay() {
        let msgs = feed();
        let spec = FaultSpec::bounded(1);
        let (lines, report) = inject(&msgs, &spec);
        assert_eq!(report.n_dropped, 0);
        assert_eq!(report.n_skewed, 0);
        assert!(report.n_reordered > 0);
        assert!(report.n_duplicated > 0);
        assert!(report.n_corrupted > 0);
        // Every clean line survives somewhere in the faulted feed.
        let mut parsed: Vec<RawMessage> = lines
            .iter()
            .filter_map(|l| RawMessage::parse_line(l).ok())
            .collect();
        parsed.sort_by(|a, b| {
            (a.ts, a.router(), a.code(), a.detail()).cmp(&(b.ts, b.router(), b.code(), b.detail()))
        });
        parsed.dedup();
        let mut clean: Vec<RawMessage> = msgs
            .iter()
            .map(|m| RawMessage::parse_line(&m.to_line()).unwrap())
            .collect();
        clean.sort_by(|a, b| {
            (a.ts, a.router(), a.code(), a.detail()).cmp(&(b.ts, b.router(), b.code(), b.detail()))
        });
        clean.dedup();
        assert_eq!(parsed, clean);
    }

    #[test]
    fn corrupted_copies_never_parse() {
        let msgs = feed();
        let spec = FaultSpec {
            corrupt_prob: 1.0,
            ..FaultSpec::clean(9)
        };
        let (lines, report) = inject(&msgs[..500.min(msgs.len())], &spec);
        assert_eq!(report.n_corrupted, 500.min(msgs.len()));
        // Exactly half the lines are corrupted copies; none of them parse.
        let n_ok = lines
            .iter()
            .filter(|l| RawMessage::parse_line(l).is_ok())
            .count();
        assert_eq!(n_ok, 500.min(msgs.len()));
    }

    #[test]
    fn hostile_faults_drop_and_skew() {
        let msgs = feed();
        let (lines, report) = inject(&msgs, &FaultSpec::hostile(3));
        assert!(report.n_dropped > 0);
        assert!(report.n_skewed > 0);
        assert!(!lines.is_empty());
    }
}
