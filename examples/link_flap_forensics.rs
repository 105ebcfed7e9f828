//! Troubleshooting forensics: a link between two routers flaps for an
//! hour; SyslogDigest folds the whole multi-layer, two-router cascade —
//! LINK, LINEPROTO, OSPF and the delayed BGP teardown — into one event,
//! and the event's message index recovers the raw evidence.
//!
//! This is the paper's Table 2 narrative at realistic size.
//!
//! ```sh
//! cargo run --release --example link_flap_forensics
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
    // Train knowledge on a scaled dataset A.
    println!("training domain knowledge on 3 weeks of history...");
    let data = Dataset::generate(DatasetSpec::preset_a().scaled(0.25), &Telemetry::disabled());
    let knowledge = learn(&data.configs, data.train(), &OfflineConfig::dataset_a());

    // Stage a fresh incident: one link flapping 40 times, with background
    // chaff from every router, in a quiet two-hour window after training.
    println!("staging incident: 40 flaps on one backbone link + chaff...");
    let mut sim = EventSim::new(&data.topology, &data.grammar);
    let mut rng = StdRng::seed_from_u64(2024);
    let t0 = Timestamp::from_ymd_hms(2009, 12, 20, 3, 0, 0);
    // Flap a link that carries a BGP session, so the cascade includes the
    // delayed hold-timer teardown the drill-down below recovers.
    let link = data
        .topology
        .bgp_sessions
        .iter()
        .find_map(|s| s.link)
        .unwrap_or(0);
    sim.link_flap(&mut rng, link, t0, 40, 90.0);
    let flap_id = sim.events[0].id;
    for i in 0..300u32 {
        let router = (i as usize * 5) % data.topology.routers.len();
        let keys = [
            "CONFIG_I",
            "SNMP_AUTHFAIL",
            "NTP_UNSYNC",
            "MEM_LOW",
            "ACL_DENY",
        ];
        sim.background(
            &mut rng,
            router,
            keys[i as usize % keys.len()],
            t0.plus(i64::from(i) * 23 % 7200),
        );
    }
    let mut incident = sim.msgs;
    sort_batch(&mut incident);
    let gt_size = incident
        .iter()
        .filter(|m| m.gt_event == Some(flap_id))
        .count();
    println!(
        "  {} messages total, {} belong to the flap",
        incident.len(),
        gt_size
    );

    // Digest the incident window.
    let report = digest(&knowledge, &incident, &GroupingConfig::default());
    println!(
        "\ndigest: {} messages -> {} events",
        report.n_input,
        report.events.len()
    );

    // Find the flap event: the one with the most messages.
    let flap = report
        .events
        .iter()
        .max_by_key(|e| e.size())
        .expect("events exist");
    println!("\nthe flap event:");
    println!("  {}", flap.format_line());
    println!(
        "  {} messages across {} routers",
        flap.size(),
        flap.routers.len()
    );
    println!("  signatures:");
    for s in &flap.signatures {
        println!("    {s}");
    }

    // How well did grouping reassemble the ground truth?
    let member_gt = flap
        .message_idxs
        .iter()
        .filter(|&&i| incident[i].gt_event == Some(flap_id))
        .count();
    println!(
        "\nground-truth check: {member_gt}/{} flap messages captured, {} foreign",
        gt_size,
        flap.size() - member_gt
    );

    // Drill down like an operator would: pull the raw BGP evidence.
    println!("\nraw BGP messages recovered via the event index:");
    for &i in &flap.message_idxs {
        let m = &incident[i];
        if m.code().starts_with("BGP") {
            println!("  {}", m.to_line());
        }
    }
}
