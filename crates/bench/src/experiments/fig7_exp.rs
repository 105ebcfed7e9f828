//! EXP-F7 (Figure 7): number of mined rules vs. window size W at
//! Confmin = 0.8, SPmin = 0.0005. Expected shape: rules grow with W and
//! the growth flattens around W = 120 s for dataset A and W = 40 s for
//! dataset B (the co-occurrence lags baked into each network's behavior).

use crate::ctx::{paper, section, Ctx};
use sd_rules::{mine, CoOccurrence, MineConfig};
use syslogdigest::history;

/// The W grid swept (seconds).
pub const WINDOWS: [i64; 11] = [5, 10, 20, 30, 40, 60, 90, 120, 180, 240, 300];

/// Sweep rules-vs-W for one bundle; returns `(W, #rules)`.
pub fn sweep(b: &crate::ctx::Bundle) -> Vec<(i64, usize)> {
    let stream = history(&b.knowledge, b.data.train(), b.offline.par).stream;
    WINDOWS
        .iter()
        .map(|&w| {
            let co = CoOccurrence::count(&stream, w, b.offline.par);
            (w, mine(&co, &MineConfig::default()).len())
        })
        .collect()
}

/// The knee of a rules-vs-W curve: the smallest W beyond which the next
/// step grows the rule count by less than `rel` relatively.
pub fn knee(curve: &[(i64, usize)], rel: f64) -> i64 {
    for w in curve.windows(2) {
        let (w0, n0) = w[0];
        let (_, n1) = w[1];
        if n0 > 0 && (n1 as f64 - n0 as f64) / n0 as f64 <= rel {
            return w0;
        }
    }
    curve.last().map(|&(w, _)| w).unwrap_or(0)
}

/// Run the Figure 7 sweep.
pub fn run(ctx: &Ctx) {
    section("EXP-F7  (Figure 7) — #rules vs window size W (Confmin=0.8, SPmin=0.0005)");
    paper("rules increase with W; growth diminishes at W = 120 s (A) / 40 s (B).");
    paper("the paper also notes new wide-W rules capture implicit timing relations");
    paper("(its example: controller->link lags at 10-30 s; here e.g. the 5-minute");
    paper("PIM secondary-path retry cadence enters dataset B's curve at W >= 180)");
    for (name, b) in ctx.both() {
        let curve = sweep(b);
        print!("  dataset {name}: ");
        for (w, n) in &curve {
            print!("W={w}:{n}  ");
        }
        print!("\n    relative growth per step: ");
        for w in curve.windows(2) {
            let (_, n0) = w[0];
            let (w1, n1) = w[1];
            print!(
                "{w1}:{:+.0}%  ",
                (n1 as f64 - n0 as f64) / (n0 as f64).max(1.0) * 100.0
            );
        }
        println!();
    }
}
