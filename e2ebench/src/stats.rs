//! Order statistics, peak-memory probes and the result line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `xs`, sorting in place.
/// With fewer than `1 / (1 - q)` samples this is the maximum.
pub fn quantile(xs: &mut [u64], q: f64) -> u64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    xs.sort_unstable();
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Run `f` `reps` times and return the median wall time in seconds with
/// the last result.
pub fn timed_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

extern "C" {
    /// glibc: return free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Reset the process's peak resident set (`VmHWM`) to the current RSS, so
/// a later [`peak_rss_mib`] covers only what ran after this call. Free
/// heap memory is returned first: otherwise what set-up freed but the
/// allocator kept would count towards the measured phase, by an amount
/// that differs from run to run.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // pages; it is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set since start or the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// Whether every value is finite (JSON has no NaN or infinity).
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    /// One aligned `name value unit` line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<28} {value:>16.6} {unit}");
        }
        out
    }

    /// The single-line JSON result object.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&mut xs, 0.5), 500);
        assert_eq!(quantile(&mut xs, 0.999), 999);
        assert_eq!(quantile(&mut [5, 9, 7], 0.999), 9);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "s");
        m.put("b", 2.0, "count");
        assert_eq!(
            m.result_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }
}
