//! Network-health dashboard (§6.2, Figures 14–15): the same 10-minute
//! window rendered twice — circles sized by digested events vs. circles
//! sized by raw message counts — showing why raw-syslog visualization
//! misleads (chatty routers look like outages; real outages hide).
//!
//! ```sh
//! cargo run --release --example network_dashboard
//! ```

use syslogdigest_repro::digest::digest;
use syslogdigest_repro::digest::offline::{learn, OfflineConfig};
use syslogdigest_repro::digest::GroupingConfig;
use syslogdigest_repro::digest::{gini, snapshot};
use syslogdigest_repro::model::DAY;
use syslogdigest_repro::netsim::{Dataset, DatasetSpec};
use syslogdigest_repro::telemetry::Telemetry;

fn bar(n: usize, per: usize) -> String {
    "#".repeat((n / per.max(1)).clamp(if n > 0 { 1 } else { 0 }, 40))
}

fn main() {
    let data = Dataset::generate(DatasetSpec::preset_a().scaled(0.25), &Telemetry::disabled());
    let knowledge = learn(&data.configs, data.train(), &OfflineConfig::dataset_a());
    let online = data.online();
    let report = digest(&knowledge, online, &GroupingConfig::default());

    // Pick the busiest 10-minute window of the online period.
    let t0 = online[0].ts.start_of_day();
    let mut best = (t0, 0usize);
    let mut w = t0;
    while w.0 < online.last().unwrap().ts.0 {
        let hi = w.plus(600);
        let count = online.iter().filter(|m| m.ts >= w && m.ts < hi).count();
        if count > best.1 {
            best = (w, count);
        }
        w = w.plus(600);
        if w.seconds_since(t0) > 2 * DAY {
            break;
        }
    }
    let (from, _) = best;
    let to = from.plus(600);
    println!("status map window: {from} .. {to}\n");

    let rows = snapshot(online, &report.events, from, to, |r| {
        knowledge.dict.routers.resolve(r.0)
    });

    println!(
        "{:<12} {:>6} {:>7}  event view (Fig 14)   raw view (Fig 15)",
        "router", "events", "msgs"
    );
    let max_msgs = rows.iter().map(|r| r.n_messages).max().unwrap_or(1);
    for r in &rows {
        println!(
            "{:<12} {:>6} {:>7}  {:<21} {:<40}",
            r.router,
            r.n_events,
            r.n_messages,
            bar(r.n_events, 1),
            bar(r.n_messages, (max_msgs / 40).max(1)),
        );
        if !r.top_label.is_empty() {
            println!("{:<12} {:>6} {:>7}  top: {}", "", "", "", r.top_label);
        }
    }

    let ev_counts: Vec<usize> = rows.iter().map(|r| r.n_events).collect();
    let msg_counts: Vec<usize> = rows.iter().map(|r| r.n_messages).collect();
    println!(
        "\nskew (gini): events {:.3} vs raw messages {:.3} — \
         the event view spreads attention where incidents are,\n\
         the raw view funnels it to whoever shouts loudest",
        gini(&ev_counts),
        gini(&msg_counts)
    );
}
