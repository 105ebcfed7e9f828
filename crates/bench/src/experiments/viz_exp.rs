//! EXP-VIZ (§6.2, Figures 14–15): the per-router status-map snapshot —
//! event-based circles vs raw-message circles for the busiest 10-minute
//! window of the online period.

use crate::ctx::{paper, section, Ctx};
use syslogdigest::{digest, GroupingConfig};
use syslogdigest::{gini, snapshot};

/// Run the visualization snapshot on dataset A.
pub fn run(ctx: &Ctx) {
    section("EXP-VIZ  (section 6.2, Figures 14-15) — status-map snapshot");
    paper("raw view skews toward chatty routers; high message counts do not imply");
    paper("bigger trouble — the event view is the accurate picture");
    let b = ctx.a();
    let online = b.data.online();
    let report = digest(&b.knowledge, online, &GroupingConfig::default());

    // Busiest 10-minute window.
    let mut best = (online[0].ts, 0usize);
    let mut lo = 0usize;
    while lo < online.len() {
        let from = online[lo].ts;
        let hi = lo + online[lo..].partition_point(|m| m.ts < from.plus(600));
        if hi - lo > best.1 {
            best = (from, hi - lo);
        }
        lo += (hi - lo).max(1);
    }
    let (from, _) = best;
    let to = from.plus(600);
    println!("  window {from} .. {to}");

    let rows = snapshot(online, &report.events, from, to, |r| {
        b.knowledge.dict.routers.resolve(r.0)
    });
    println!(
        "  {:<14} {:>8} {:>8}  top event",
        "router", "events", "msgs"
    );
    for r in rows.iter().take(10) {
        println!(
            "  {:<14} {:>8} {:>8}  {}",
            r.router, r.n_events, r.n_messages, r.top_label
        );
    }
    let ev: Vec<usize> = rows.iter().map(|r| r.n_events).collect();
    let ms: Vec<usize> = rows.iter().map(|r| r.n_messages).collect();
    println!(
        "  skew: gini(events) = {:.3} vs gini(messages) = {:.3}",
        gini(&ev),
        gini(&ms)
    );
}
