//! EXP-F6 (Figure 6): number of mined rules vs. Confmin for three SPmin
//! values, at W = 60 s, dataset A. Expected shape: rules decrease as
//! Confmin grows; higher SPmin gives fewer rules.

use crate::ctx::{paper, section, Ctx};
use sd_rules::{mine, CoOccurrence, MineConfig};
use syslogdigest::history;

/// Run the Figure 6 sweep.
pub fn run(ctx: &Ctx) {
    section("EXP-F6  (Figure 6) — #rules vs Confmin x SPmin (W = 60 s, dataset A)");
    paper("rules fall from ~600 to ~100 as Confmin goes 0.5 -> 0.9;");
    paper("larger SPmin always yields fewer rules (absolute counts scale with #templates)");
    let b = ctx.a();
    let stream = history(&b.knowledge, b.data.train(), b.offline.par).stream;
    let co = CoOccurrence::count(&stream, 60, b.offline.par);
    let confs = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9];
    print!("  {:>10}", "Confmin:");
    for c in confs {
        print!(" {c:>6.2}");
    }
    println!();
    for sp in [0.001, 0.0005, 0.0001] {
        print!("  sp={sp:<7}");
        for conf in confs {
            let rs = mine(
                &co,
                &MineConfig {
                    sp_min: sp,
                    conf_min: conf,
                },
            );
            print!(" {:>6}", rs.len());
        }
        println!();
    }
}
