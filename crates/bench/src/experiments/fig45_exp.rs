//! EXP-F4/F5 (Figures 4–5): the two temporal-pattern exemplars — an
//! unstable controller flapping in clusters, and a strictly periodic TCP
//! bad-authentication series — plus what the EWMA model does with them.

use crate::ctx::{paper, section, Ctx};
use sd_model::{RawMessage, Timestamp};
use sd_netsim::{fig4_controller, fig5_tcp_badauth};
use sd_temporal::{group_series, TemporalConfig};

fn timeline(msgs: &[&RawMessage], t0: Timestamp, hours: i64) -> String {
    let cols = 72usize;
    let mut line = vec!['.'; cols];
    for m in msgs {
        let off = m.ts.seconds_since(t0);
        let col = (off * cols as i64 / (hours * 3600)).clamp(0, cols as i64 - 1) as usize;
        line[col] = '|';
    }
    line.into_iter().collect()
}

fn cluster_summary(times: &[Timestamp], cfg: &TemporalConfig) -> String {
    let groups = group_series(times, cfg);
    let n = groups.last().map(|g| g + 1).unwrap_or(0);
    let mut sizes = vec![0usize; n];
    for &g in &groups {
        sizes[g] += 1;
    }
    format!("{n} clusters, sizes {sizes:?}")
}

/// Run the Figure 4/5 exemplars.
pub fn run(_ctx: &Ctx) {
    section("EXP-F4/F5  (Figures 4-5) — temporal pattern exemplars");
    paper("Fig 4: controller up/down in bursts across hours; Fig 5: periodic TCP bad-auth");

    let (_, msgs4) = fig4_controller(20101);
    let ctl: Vec<&RawMessage> = msgs4
        .iter()
        .filter(|m| m.code() == "CONTROLLER-5-UPDOWN")
        .collect();
    let t0 = ctl[0].ts.start_of_day();
    println!(
        "  Fig 4 controller occurrences over 8 h ({} messages):",
        ctl.len()
    );
    println!("    {}", timeline(&ctl, t0, 8));
    let times: Vec<Timestamp> = ctl.iter().map(|m| m.ts).collect();
    println!(
        "    EWMA grouping: {}",
        cluster_summary(&times, &TemporalConfig::dataset_a())
    );

    let (_, msgs5) = fig5_tcp_badauth(20102);
    let tcp: Vec<&RawMessage> = msgs5
        .iter()
        .filter(|m| m.code() == "TCP-6-BADAUTH")
        .collect();
    let t0 = tcp[0].ts.start_of_day();
    println!(
        "  Fig 5 TCP bad-auth occurrences over 8 h ({} messages):",
        tcp.len()
    );
    println!("    {}", timeline(&tcp, t0, 8));
    let times: Vec<Timestamp> = tcp.iter().map(|m| m.ts).collect();
    println!(
        "    EWMA grouping: {}",
        cluster_summary(&times, &TemporalConfig::dataset_a())
    );
    let gaps: Vec<i64> = times.windows(2).map(|w| w[1].seconds_since(w[0])).collect();
    let mean = gaps.iter().sum::<i64>() as f64 / gaps.len().max(1) as f64;
    println!("    mean interarrival {mean:.0}s — the periodicity the model locks onto");
}
