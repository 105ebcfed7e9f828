//! EXP-PIM (§6.1): the dual-failure PIM neighbor-loss case study. The
//! paper: "hundreds of syslog messages recorded on a dozen routers ... of
//! 15 distinct error codes involving 6 network protocols" associated to
//! one SyslogDigest event, whose signature exposed the five-minute
//! secondary-path connection retries.
//!
//! The incident is staged on dataset B's own network and digested with the
//! knowledge learned from B's 12-week history — exactly the operational
//! setting of the paper's troubleshooting story.

use crate::ctx::{paper, section, Ctx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_model::{sort_batch, Timestamp};
use sd_netsim::EventSim;
use syslogdigest::{digest, GroupingConfig};

/// Run the case study.
pub fn run(ctx: &Ctx) {
    section("EXP-PIM  (section 6.1) — dual-failure PIM neighbor-loss case study");
    paper("one event; hundreds of messages, ~12 routers, 15 error codes, 6 protocols;");
    paper("signature reveals secondary-path setup retries every ~5 minutes");

    let b = ctx.b();
    let topo = &b.data.topology;
    let mut sim = EventSim::new(topo, &b.data.grammar);
    let mut rng = StdRng::seed_from_u64(61);
    let t0 = Timestamp::from_ymd_hms(2009, 12, 20, 12, 0, 0);
    sim.pim_neighbor_loss(&mut rng, 0, t0);
    let gt = sim.events[0].id;
    // Chaff across every router for the same several hours.
    let keys = [
        "LOGIN_V2",
        "SNMP_AUTH_V2",
        "CHASSIS_FAN",
        "NTP_V2",
        "IGMP_QUERY",
        "CRON_RUN",
    ];
    for i in 0..400usize {
        let router = (i * 7) % topo.routers.len();
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
        "  staged incident: {} messages in the window, {} belong to the outage",
        msgs.len(),
        cascade
    );

    let report = digest(&b.knowledge, &msgs, &GroupingConfig::default());
    // Events holding any cascade message, largest first.
    let mut pieces: Vec<(&syslogdigest::NetworkEvent, usize, usize)> = report
        .events
        .iter()
        .enumerate()
        .filter_map(|(rank, e)| {
            let n = e
                .message_idxs
                .iter()
                .filter(|&&i| msgs[i].gt_event == Some(gt))
                .count();
            (n > 0).then_some((e, n, rank))
        })
        .collect();
    pieces.sort_by_key(|p| std::cmp::Reverse(p.1));

    println!(
        "  digest produced {} events; the cascade landed in {} of them:",
        report.events.len(),
        pieces.len()
    );
    for (e, n, rank) in pieces.iter().take(4) {
        let codes: std::collections::BTreeSet<&str> =
            e.message_idxs.iter().map(|&i| msgs[i].code()).collect();
        let protocols: std::collections::BTreeSet<&str> = codes
            .iter()
            .map(|c| c.split('-').next().unwrap_or(""))
            .collect();
        let retries = e
            .message_idxs
            .iter()
            .filter(|&&i| msgs[i].code().contains("lspPathRetry"))
            .count();
        println!("    rank {:>3}: {}", rank + 1, e.format_line());
        println!(
            "             {n} cascade msgs | {} routers | {} codes | {} protocols | {} LSP retries",
            e.routers.len(),
            codes.len(),
            protocols.len(),
            retries
        );
    }
    let main = pieces[0];
    println!(
        "  main event coverage {}/{} cascade messages at digest rank {}",
        main.1,
        cascade,
        main.2 + 1
    );
}
