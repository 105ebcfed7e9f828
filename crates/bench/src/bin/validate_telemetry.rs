//! CI guard for the telemetry layer (see `.github/workflows/ci.yml`):
//!
//! * `--metrics FILE` — parse a Prometheus text-format snapshot written
//!   by `sdigest --metrics-out`, failing on any malformed line and on
//!   missing pipeline counters/spans;
//! * `--trace FILE` — validate every JSONL provenance record against the
//!   documented schema (event_id, n_messages, routers, templates, links,
//!   closed_by, and the idle fields, integers on an idle close);
//! * `--overhead` — in this one process, time the 1-thread `digest`
//!   against `digest_instrumented` with telemetry enabled over
//!   alternating pairs on dataset A and assert the median per-pair ratio
//!   (plain time / instrumented time) stays at or above `--min-ratio`
//!   (default 0.95), i.e. instrumentation costs at most ~5%;
//! * `--require-durability` — additionally require the durability
//!   counters (`sd_ckpt_n_corrupt`, `sd_ckpt_n_fallback`, and a
//!   quarantine counter) in the `--metrics` snapshot.
//!
//! Exits non-zero with a reason on the first violation.

use sd_model::Parallelism;
use sd_netsim::{Dataset, DatasetSpec};
use sd_telemetry::{validate_exposition, Telemetry};
use serde::Value;
use std::time::Instant;
use syslogdigest::offline::{learn, OfflineConfig};
use syslogdigest::{digest, digest_instrumented, GroupingConfig};

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn field_u64(v: &Value, name: &str) -> Option<u64> {
    v.get_field(name).and_then(as_u64)
}

/// Counters any digest run must have registered (batch or streaming).
const REQUIRED_ANY: &[&[&str]] = &[
    &["sd_digest_n_input", "sd_stream_n_input"],
    &["sd_digest_n_events", "sd_stream_n_events"],
];

/// Counters a durability-exercising run (`--require-durability`) must
/// also expose: checkpoint recovery health and the quarantine count.
const REQUIRED_DURABILITY: &[&[&str]] = &[
    &["sd_ckpt_n_corrupt"],
    &["sd_ckpt_n_fallback"],
    &["sd_stream_n_quarantined", "sd_digest_n_quarantined"],
];

fn fail(msg: &str) -> ! {
    eprintln!("validate_telemetry: FAIL: {msg}");
    std::process::exit(1);
}

fn check_metrics(path: &str, require_durability: bool) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    let n = validate_exposition(&text)
        .unwrap_or_else(|e| fail(&format!("{path} is not valid exposition: {e}")));
    if n == 0 {
        fail(&format!("{path} contains no samples"));
    }
    let mut required: Vec<&[&str]> = REQUIRED_ANY.to_vec();
    if require_durability {
        required.extend(REQUIRED_DURABILITY);
    }
    for group in required {
        if !group
            .iter()
            .any(|name| text.lines().any(|l| l.starts_with(name)))
        {
            fail(&format!("{path} has none of the counters {group:?}"));
        }
    }
    if !text.contains("sd_span_seconds_total") {
        fail(&format!("{path} has no span timings"));
    }
    println!("ok: {path} — {n} samples, required counters and spans present");
}

/// One provenance record must carry these fields with these JSON types.
fn check_trace_record(line_no: usize, v: &Value) {
    let ctx = |field: &str| format!("trace line {line_no}: bad or missing {field:?}");
    let id = field_u64(v, "event_id").unwrap_or_else(|| fail(&ctx("event_id")));
    if id == 0 {
        fail(&format!("trace line {line_no}: event_id must be >= 1"));
    }
    if field_u64(v, "n_messages").unwrap_or_else(|| fail(&ctx("n_messages"))) == 0 {
        fail(&format!("trace line {line_no}: n_messages must be >= 1"));
    }
    let routers = v
        .get_field("routers")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&ctx("routers")));
    if routers.is_empty() || !routers.iter().all(|r| as_str(r).is_some()) {
        fail(&ctx("routers"));
    }
    let templates = v
        .get_field("templates")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&ctx("templates")));
    for t in templates {
        if field_u64(t, "id").is_none()
            || t.get_field("signature").and_then(as_str).is_none()
            || field_u64(t, "members").is_none()
        {
            fail(&ctx("templates[]"));
        }
    }
    let links = v.get_field("links").unwrap_or_else(|| fail(&ctx("links")));
    for stage in ["temporal", "rule", "cross"] {
        if field_u64(links, stage).is_none() {
            fail(&ctx("links"));
        }
    }
    let closed_by = match v.get_field("closed_by").and_then(as_str) {
        Some(c @ ("batch" | "idle" | "force_closed" | "finish")) => c,
        _ => fail(&ctx("closed_by")),
    };
    // Both idle fields are always present: integers on an idle close,
    // an integer or null otherwise.
    for field in ["idle_gap_secs", "idle_close_secs"] {
        match v.get_field(field) {
            Some(Value::I64(_) | Value::U64(_)) => {}
            Some(Value::Null) if closed_by != "idle" => {}
            _ => fail(&ctx(field)),
        }
    }
}

fn check_trace(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::parse(line)
            .unwrap_or_else(|e| fail(&format!("trace line {}: not JSON: {e}", i + 1)));
        check_trace_record(i + 1, &v);
        n += 1;
    }
    if n == 0 {
        fail(&format!("{path} contains no trace records"));
    }
    println!("ok: {path} — {n} provenance records match the schema");
}

/// Dataset A scale of the overhead check (about 6k online messages).
const OVERHEAD_SCALE: f64 = 0.08;

/// Plain/instrumented pairs the overhead check times; odd, so the median
/// is one measured pair.
const OVERHEAD_PAIRS: usize = 21;

/// Median over `(plain, instrumented)` wall-time pairs of
/// `plain / instrumented`: 1.0 when instrumentation is free, `1 / (1 + s)`
/// for a constant slowdown `s`. One noisy pair cannot move it.
fn median_pair_ratio(pairs: &[(f64, f64)]) -> f64 {
    let mut ratios: Vec<f64> = pairs.iter().map(|&(p, i)| p / i).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn check_overhead(min_ratio: f64) {
    let d = Dataset::generate(
        DatasetSpec::preset_a().scaled(OVERHEAD_SCALE),
        &Telemetry::disabled(),
    );
    let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
    let online = d.online();
    let gcfg = GroupingConfig {
        par: Parallelism::with_threads(1),
        ..GroupingConfig::default()
    };
    let tel = Telemetry::new();
    let plain = || {
        let t0 = Instant::now();
        std::hint::black_box(digest(&k, online, &gcfg));
        t0.elapsed().as_secs_f64()
    };
    let instrumented = || {
        let t0 = Instant::now();
        std::hint::black_box(digest_instrumented(&k, online, &gcfg, &tel, false));
        t0.elapsed().as_secs_f64()
    };
    // Alternate which side runs first so neither always gets the warmer
    // cache.
    let pairs: Vec<(f64, f64)> = (0..OVERHEAD_PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let p = plain();
                (p, instrumented())
            } else {
                let t = instrumented();
                (plain(), t)
            }
        })
        .collect();
    let ratio = median_pair_ratio(&pairs);
    println!(
        "overhead: {} msgs, median plain/instrumented ratio {ratio:.3} over \
         {OVERHEAD_PAIRS} pairs (floor {min_ratio})",
        online.len()
    );
    if ratio < min_ratio {
        fail(&format!(
            "telemetry overhead too high: instrumented digest runs at \
             {ratio:.3}x the plain digest's speed (floor {min_ratio})"
        ));
    }
}

fn main() {
    let mut metrics = None;
    let mut trace = None;
    let mut overhead = false;
    let mut min_ratio = 0.95;
    let mut require_durability = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics" => metrics = args.next(),
            "--trace" => trace = args.next(),
            "--overhead" => overhead = true,
            "--min-ratio" => {
                min_ratio = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("invalid --min-ratio"))
            }
            "--require-durability" => require_durability = true,
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    if metrics.is_none() && trace.is_none() && !overhead {
        fail("nothing to validate: pass --metrics, --trace, and/or --overhead");
    }
    if let Some(p) = metrics {
        check_metrics(&p, require_durability);
    }
    if let Some(p) = trace {
        check_trace(&p);
    }
    if overhead {
        check_overhead(min_ratio);
    }
    println!("validate_telemetry: all checks passed");
}

#[cfg(test)]
mod tests {
    use super::median_pair_ratio;

    #[test]
    fn constant_slowdown_reads_its_inverse() {
        let pairs = vec![(1.0, 1.1); 21];
        assert!((median_pair_ratio(&pairs) - 1.0 / 1.1).abs() < 1e-12);
        assert!((median_pair_ratio(&pairs) - 0.909).abs() < 1e-3);
    }

    #[test]
    fn one_outlier_pair_does_not_move_the_median() {
        let mut pairs = vec![(1.0, 1.0); 21];
        pairs[7] = (3.0, 1.0);
        assert_eq!(median_pair_ratio(&pairs), 1.0);
        pairs[7] = (1.0, 3.0);
        assert_eq!(median_pair_ratio(&pairs), 1.0);
    }
}
