//! The §6.1 case study: a PIM neighbor loss in an IPTV backbone that
//! should have been impossible — fast-reroute protects every multicast
//! tree edge — until the digest reveals the secondary path had been down
//! and retrying for hours before the primary failed.
//!
//! ```sh
//! cargo run --release --example iptv_pim_outage
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use syslogdigest_repro::digest::digest;
use syslogdigest_repro::digest::offline::{learn, OfflineConfig};
use syslogdigest_repro::digest::GroupingConfig;
use syslogdigest_repro::model::{sort_batch, Timestamp};
use syslogdigest_repro::netsim::{Dataset, DatasetSpec, EventSim};
use syslogdigest_repro::telemetry::Telemetry;

fn main() {
    // Learn knowledge from the IPTV network's history (dataset B).
    println!("training on IPTV backbone history (vendor V2)...");
    let data = Dataset::generate(DatasetSpec::preset_b().scaled(0.35), &Telemetry::disabled());
    let knowledge = learn(&data.configs, data.train(), &OfflineConfig::dataset_b());
    println!(
        "  {} templates, {} rules learned from {} messages",
        knowledge.templates.len(),
        knowledge.rules.len(),
        data.train().len()
    );

    // Stage the dual failure on the trained network, buried in chaff.
    println!("staging the dual-failure PIM outage + background chaff...");
    let mut sim = EventSim::new(&data.topology, &data.grammar);
    let mut rng = StdRng::seed_from_u64(61);
    let t0 = Timestamp::from_ymd_hms(2009, 12, 20, 12, 0, 0);
    sim.pim_neighbor_loss(&mut rng, 0, t0);
    let gt = sim.events[0].id;
    let keys = [
        "LOGIN_V2",
        "SNMP_AUTH_V2",
        "CHASSIS_FAN",
        "NTP_V2",
        "IGMP_QUERY",
        "CRON_RUN",
    ];
    for i in 0..400usize {
        let router = (i * 7) % data.topology.routers.len();
        sim.background(
            &mut rng,
            router,
            keys[i % keys.len()],
            t0.plus((i as i64 * 53) % 21_600),
        );
    }
    let mut msgs = sim.msgs;
    sort_batch(&mut msgs);
    let cascade = msgs.iter().filter(|m| m.gt_event == Some(gt)).count();
    println!(
        "  {} messages in the window, {} belong to the outage",
        msgs.len(),
        cascade
    );

    let report = digest(&knowledge, &msgs, &GroupingConfig::default());
    println!(
        "digest: {} events from {} messages\n",
        report.events.len(),
        report.n_input
    );

    // The pieces of the outage, largest first.
    let mut pieces: Vec<(&syslogdigest_repro::digest::NetworkEvent, usize)> = report
        .events
        .iter()
        .filter_map(|e| {
            let n = e
                .message_idxs
                .iter()
                .filter(|&&i| msgs[i].gt_event == Some(gt))
                .count();
            (n > 0).then_some((e, n))
        })
        .collect();
    pieces.sort_by_key(|&(_, n)| std::cmp::Reverse(n));

    println!("the outage as the operator sees it (largest pieces):");
    for (e, _) in pieces.iter().take(3) {
        let codes: std::collections::BTreeSet<&str> =
            e.message_idxs.iter().map(|&i| msgs[i].code()).collect();
        println!("  {}", e.format_line());
        println!(
            "    {} msgs | {} routers | codes: {}",
            e.size(),
            e.routers.len(),
            codes.into_iter().collect::<Vec<_>>().join(", ")
        );
    }

    // The smoking gun the paper describes: LSP setup retries every ~5
    // minutes, long before the primary failed — co-located with the
    // failure event on the same LSP path.
    let retries: Vec<&syslogdigest_repro::model::RawMessage> = msgs
        .iter()
        .filter(|m| m.code().contains("lspPathRetry"))
        .collect();
    println!(
        "\nsmoking gun: {} secondary-path setup retries, ~5 minutes apart:",
        retries.len()
    );
    for m in retries.iter().take(3) {
        println!("  {}", m.to_line());
    }
    if retries.len() > 3 {
        println!("  ... ({} more)", retries.len() - 3);
    }
    println!(
        "\nwithout the digest, an operator would search {} raw messages with no \
         idea which time window matters — the retries start hours before the outage.",
        msgs.len()
    );
}
