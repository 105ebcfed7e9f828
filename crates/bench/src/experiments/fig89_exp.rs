//! EXP-F8/F9 (Figures 8–9): weekly evolution of the rule knowledge base
//! over the 12 training weeks — total / added / deleted per week.
//! Expected shape: the base stabilizes (adds and deletes near zero) after
//! week ~6 for dataset A and ~8 for dataset B.

use crate::ctx::{paper, section, Ctx};
use sd_rules::{RuleBase, UpdateStats};
use syslogdigest::offline::refresh_weekly;

/// Run the weekly update experiment for one bundle; returns per-week stats.
pub fn weekly(b: &crate::ctx::Bundle) -> Vec<UpdateStats> {
    let mut k = b.knowledge.clone();
    let mut base = RuleBase::new();
    let weeks = b.data.spec.train_days / 7;
    (0..weeks)
        .map(|w| refresh_weekly(&mut k, &mut base, b.data.train_week(w), &b.offline))
        .collect()
}

/// Run Figures 8 and 9.
pub fn run(ctx: &Ctx) {
    section("EXP-F8/F9  (Figures 8-9) — weekly rule-base evolution over 12 weeks");
    paper("A stabilizes after week 6, B after week 8; adds/deletes tail off to ~0");
    for (name, b) in ctx.both() {
        println!("  dataset {name}:");
        println!(
            "    {:<6} {:>6} {:>6} {:>8}",
            "week", "added", "del", "total"
        );
        let stats = weekly(b);
        for (w, s) in stats.iter().enumerate() {
            println!(
                "    {:<6} {:>6} {:>6} {:>8}",
                w + 1,
                s.added,
                s.deleted,
                s.total
            );
        }
        let last_churn = stats
            .iter()
            .rposition(|s| s.added + s.deleted > stats.last().map(|l| l.total / 10).unwrap_or(0))
            .map(|i| i + 1)
            .unwrap_or(0);
        println!("    churn (>10% of final base) last seen in week {last_churn}");
    }
}
