//! EXP-T7 (Table 7): compression ratio of the three grouping stacks —
//! temporal (T), temporal + rule-based (T+R), and all three (T+R+C) —
//! plus (beyond the paper) grouping quality against the simulator's
//! ground truth and the EWMA temporal stage against a fixed-gap splitter.

use crate::ctx::{paper, section, Ctx};
use syslogdigest::{augment_batch_isolated, compression_table, evaluate_grouping, GroupingConfig};
use syslogdigest::{ewma_group_count, fixed_gap_group_count};

/// Run the Table 7 experiment.
pub fn run(ctx: &Ctx) {
    section("EXP-T7  (Table 7) — compression ratio by grouping methodology");
    paper("A: T 1.63e-2, T+R 5.15e-3, T+R+C 3.27e-3");
    paper("B: T 9.08e-3, T+R 2.26e-3, T+R+C 0.91e-3");
    println!(
        "  {:<8} {:>12} {:>12} {:>12}",
        "dataset", "T", "T+R", "T+R+C"
    );
    for (name, b) in ctx.both() {
        let table = compression_table(&b.knowledge, b.data.online());
        println!(
            "  {:<8} {:>12.3e} {:>12.3e} {:>12.3e}",
            name, table[0].1, table[1].1, table[2].1
        );
    }
    println!("\n  grouping quality vs simulator ground truth (not in the paper):");
    println!(
        "  {:<8} {:<7} {:>10} {:>8} {:>8} {:>6}",
        "dataset", "stages", "precision", "recall", "frag", "purity"
    );
    for (name, b) in ctx.both() {
        for (stages, cfg) in [
            ("T", GroupingConfig::t_only()),
            ("T+R", GroupingConfig::t_r()),
            ("T+R+C", GroupingConfig::default()),
        ] {
            let q = evaluate_grouping(&b.knowledge, b.data.online(), &cfg);
            println!(
                "  {:<8} {:<7} {:>10.3} {:>8.3} {:>8.2} {:>6.3}",
                name, stages, q.pair_precision, q.pair_recall, q.fragmentation, q.purity
            );
        }
    }
    println!("\n  temporal splitter (not in the paper):");
    for (name, b) in ctx.both() {
        let (batch, _) =
            augment_batch_isolated(&b.knowledge, b.data.online(), b.offline.par).split();
        println!(
            "  dataset {name}: EWMA {} groups vs fixed-gap(300s) {} groups",
            ewma_group_count(&b.knowledge, &batch),
            fixed_gap_group_count(&batch, 300)
        );
    }
}
