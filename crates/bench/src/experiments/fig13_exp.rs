//! EXP-F13 (Figure 13): per-router raw-message vs digested-event counts,
//! sorted by message count. Expected shape: events are much less skewed
//! across routers than raw messages, and the chattiest router enjoys the
//! best compression.

use crate::ctx::{paper, section, Ctx};
use syslogdigest::gini;
use syslogdigest::{per_router_counts, GroupingConfig};

/// Run the Figure 13 analysis.
pub fn run(ctx: &Ctx) {
    section("EXP-F13  (Figure 13) — per-router messages vs events (dataset A, online)");
    paper("event distribution less skewed than messages; best compression on the");
    paper("router with the most raw messages");
    let b = ctx.a();
    let rows = per_router_counts(&b.knowledge, b.data.online(), &GroupingConfig::default());
    println!(
        "  {:<14} {:>9} {:>8} {:>12}",
        "router", "messages", "events", "ratio"
    );
    for (r, m, e) in rows.iter().take(12) {
        println!(
            "  {:<14} {:>9} {:>8} {:>12.2e}",
            r,
            m,
            e,
            *e as f64 / (*m).max(1) as f64
        );
    }
    if rows.len() > 12 {
        println!("  ... ({} more routers)", rows.len() - 12);
    }
    let msgs: Vec<usize> = rows.iter().map(|r| r.1).collect();
    let events: Vec<usize> = rows.iter().map(|r| r.2).collect();
    println!(
        "  skew: gini(messages) = {:.3}  vs  gini(events) = {:.3}",
        gini(&msgs),
        gini(&events)
    );
    let top_ratio = rows[0].2 as f64 / rows[0].1.max(1) as f64;
    let median_ratio = {
        let mut rs: Vec<f64> = rows
            .iter()
            .filter(|r| r.1 > 0)
            .map(|r| r.2 as f64 / r.1 as f64)
            .collect();
        rs.sort_by(f64::total_cmp);
        rs[rs.len() / 2]
    };
    println!(
        "  chattiest router ratio {:.2e} vs median router ratio {:.2e}",
        top_ratio, median_ratio
    );
}
