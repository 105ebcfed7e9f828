//! Quickstart: learn domain knowledge offline, digest an online stream,
//! print the prioritized event report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use syslogdigest_repro::digest::digest;
use syslogdigest_repro::digest::offline::{learn, OfflineConfig};
use syslogdigest_repro::digest::GroupingConfig;
use syslogdigest_repro::netsim::{Dataset, DatasetSpec};
use syslogdigest_repro::telemetry::Telemetry;

fn main() {
    // A small tier-1-ISP-style network: 12 weeks of training syslog plus
    // 2 weeks to digest (scaled down so this example runs in seconds).
    println!("generating synthetic ISP dataset (vendor V1)...");
    let data = Dataset::generate(DatasetSpec::preset_a().scaled(0.25), &Telemetry::disabled());
    println!(
        "  {} routers, {} training messages, {} online messages",
        data.topology.routers.len(),
        data.train().len(),
        data.online().len()
    );

    // Offline: learn templates from history, locations from configs,
    // temporal parameters and association rules (Figure 1, left half).
    println!("learning domain knowledge offline...");
    let knowledge = learn(&data.configs, data.train(), &OfflineConfig::dataset_a());
    println!(
        "  {} templates, {} locations, {} rules, alpha={} beta={} W={}s",
        knowledge.templates.len(),
        knowledge.dict.len(),
        knowledge.rules.len(),
        knowledge.temporal.alpha,
        knowledge.temporal.beta,
        knowledge.window_secs
    );

    // Online: augment -> temporal + rule-based + cross-router grouping ->
    // prioritize -> present. Digest one day at a time, as the paper's
    // deployment does ("it generally takes less than one hour to digest
    // one day's syslog" - here it takes milliseconds).
    let online = data.online();
    let day_end = online[0]
        .ts
        .start_of_day()
        .plus(syslogdigest_repro::model::DAY);
    let day = &online[..online.partition_point(|m| m.ts < day_end)];
    println!("digesting day one of the online period...");
    let report = digest(&knowledge, day, &GroupingConfig::default());
    println!(
        "  {} messages -> {} events (compression ratio {:.2e})\n",
        report.n_input,
        report.events.len(),
        report.compression_ratio()
    );

    println!("top 10 events (start|end|locations|type):");
    for ev in report.top(10) {
        println!(
            "  [{:>8.1}] {} ({} msgs)",
            ev.score,
            ev.format_line(),
            ev.size()
        );
    }

    // The section 4.2.4 score favors rare, router-scoped signatures, so
    // chronic single-signature chatter (periodic ACL hits, login scans)
    // can crowd the top at small scale — the paper notes operators adjust
    // weights to taste. One line of filtering surfaces the multi-signature
    // incidents:
    println!("\ntop 5 multi-signature incidents:");
    for ev in report
        .events
        .iter()
        .filter(|e| e.signatures.len() >= 3)
        .take(5)
    {
        println!(
            "  [{:>8.1}] {} ({} msgs, {} signatures)",
            ev.score,
            ev.format_line(),
            ev.size(),
            ev.signatures.len()
        );
    }

    // Every event indexes its raw messages for drill-down.
    if let Some(top) = report.events.first() {
        println!("\nfirst 3 raw messages of the top event:");
        for &i in top.message_idxs.iter().take(3) {
            println!("  {}", day[i].to_line());
        }
    }
}
