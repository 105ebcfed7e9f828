//! EXP-T5 (Table 5): sensitivity of the minimal support SPmin — the
//! fraction of message types used in rule mining and the fraction of
//! messages those types cover.

use crate::ctx::{paper, section, Ctx};
use sd_rules::{coverage, CoOccurrence};
use std::collections::HashMap;
use syslogdigest::history;

/// Run the Table 5 sweep.
pub fn run(ctx: &Ctx) {
    section("EXP-T5  (Table 5) — sensitivity of minimal support SPmin");
    paper("SPmin 0.001:  top 13.4% / cov 98.72% (A)   top 14.2% / cov 89.34% (B)");
    paper("SPmin 0.0005: top 27.5% / cov 99.92% (A)   top 32.3% / cov 99.95% (B)");
    paper("SPmin 0.0001: top 42.5% / cov 99.98% (A)   top 54.3% / cov 99.99% (B)");
    println!(
        "  {:<8} {:>10} {:>12} {:>12}",
        "dataset", "SPmin", "top types %", "coverage %"
    );
    for (name, b) in ctx.both() {
        let stream = history(&b.knowledge, b.data.train(), b.offline.par).stream;
        let co = CoOccurrence::count(&stream, b.knowledge.window_secs, b.offline.par);
        let mut type_counts: HashMap<u32, u64> = HashMap::new();
        for &(_, _, t) in &stream {
            *type_counts.entry(t.0).or_insert(0) += 1;
        }
        for sp in [0.001, 0.0005, 0.0001] {
            let (top, cov) = coverage(&co, &type_counts, sp);
            println!(
                "  {:<8} {:>10} {:>11.1}% {:>11.2}%",
                name,
                sp,
                top * 100.0,
                cov * 100.0
            );
        }
    }
}
