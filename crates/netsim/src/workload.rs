//! Workload scheduling: turns a topology + grammar into months of syslog.
//!
//! Events arrive per-day as a Poisson process over a weighted kind mix;
//! targets (links, routers, controllers…) are drawn from heavy-tailed
//! "flappiness" weights so a few chronically unstable elements dominate
//! message volume — the per-router skew Figure 13 shows. Some event kinds
//! *activate* only after a few weeks and some correlations are scheduled
//! only for the first weeks; both drive the weekly rule add/delete dynamics
//! of Figures 8 and 9.

use crate::events::{EventKind, EventSim};
use crate::grammar::Grammar;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_model::{RawMessage, Timestamp, DAY, WEEK};
use serde::{Deserialize, Serialize};

/// Relative weight and activation week for one event kind.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KindMix {
    /// Event kind.
    pub kind: EventKind,
    /// Relative arrival weight once active.
    pub weight: f64,
    /// First week (0-based, relative to workload start) the kind occurs.
    pub(crate) activation_week: u32,
}

/// Workload parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// First instant of the workload.
    pub start: Timestamp,
    /// Number of simulated days.
    pub days: u32,
    /// RNG seed.
    pub seed: u64,
    /// Mean ground-truth events per day (network-wide).
    pub events_per_day: f64,
    /// Mean background-noise messages per day (network-wide), spread over
    /// the grammar's tail templates proportionally to their rates.
    pub noise_per_day: f64,
    /// Event kind mix.
    pub mix: Vec<KindMix>,
    /// Week at which scheduled-only correlations stop (config→CPU in V1,
    /// service→video-gap in V2); drives weekly rule deletions.
    pub decorrelation_week: u32,
    /// Periodic timer-noise series per router (frozen-location chatter
    /// like SLA probes or environment polls; compresses temporally but
    /// keeps per-router signature frequencies realistic).
    pub timers_per_router: usize,
    /// Multiplier on per-event cascade sizes (flap counts, cycle counts).
    /// The paper's networks see events of hundreds-to-thousands of
    /// messages; raising this deepens cascades without adding events,
    /// which is what pushes the compression ratio toward the paper's
    /// 10^-3 regime.
    pub intensity: f64,
}

impl WorkloadSpec {
    /// Default mix for a vendor-V1 ISP backbone (dataset A).
    pub(crate) fn mix_v1() -> Vec<KindMix> {
        use EventKind::*;
        vec![
            KindMix {
                kind: LinkFlap,
                weight: 0.30,
                activation_week: 0,
            },
            KindMix {
                kind: ControllerFlap,
                weight: 0.10,
                activation_week: 0,
            },
            KindMix {
                kind: BgpSessionReset,
                weight: 0.15,
                activation_week: 0,
            },
            KindMix {
                kind: CpuSpike,
                weight: 0.12,
                activation_week: 0,
            },
            KindMix {
                kind: LineCardCrash,
                weight: 0.03,
                activation_week: 1,
            },
            KindMix {
                kind: EnvAlarm,
                weight: 0.06,
                activation_week: 2,
            },
            KindMix {
                kind: ConfigSession,
                weight: 0.15,
                activation_week: 0,
            },
            KindMix {
                kind: TcpBadAuthWave,
                weight: 0.09,
                activation_week: 3,
            },
        ]
    }

    /// Default mix for a vendor-V2 IPTV backbone (dataset B).
    pub(crate) fn mix_v2() -> Vec<KindMix> {
        use EventKind::*;
        vec![
            KindMix {
                kind: PortFlap,
                weight: 0.50,
                activation_week: 0,
            },
            KindMix {
                kind: PimNeighborLoss,
                weight: 0.04,
                activation_week: 0,
            },
            KindMix {
                kind: MplsReroute,
                weight: 0.12,
                activation_week: 1,
            },
            KindMix {
                kind: LoginFailureWave,
                weight: 0.08,
                activation_week: 4,
            },
            KindMix {
                kind: SvcFlap,
                weight: 0.18,
                activation_week: 0,
            },
            KindMix {
                kind: CardFail,
                weight: 0.08,
                activation_week: 2,
            },
        ]
    }
}

/// Output of a workload run.
#[derive(Debug)]
pub struct Workload {
    /// All messages, time-sorted.
    pub messages: Vec<RawMessage>,
    /// All ground-truth events.
    pub(crate) events: Vec<crate::events::GtEvent>,
}

/// Sample a Poisson count (Knuth for small λ, normal approximation above).
pub(crate) fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 400.0 {
        let sample: f64 = lambda + lambda.sqrt() * sample_std_normal(rng);
        return sample.max(0.0).round() as usize;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

fn sample_std_normal(rng: &mut StdRng) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Pareto-ish weights: a few elements get most of the probability mass
/// (the Figure 13 skew), tempered enough that independent incidents on
/// one element rarely overlap in time.
fn flappiness(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen::<f64>().powf(2.5) + 0.02).collect()
}

fn weighted_pick(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Run the workload over `topo`.
pub fn run(topo: &Topology, grammar: &Grammar, spec: &WorkloadSpec) -> Workload {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x0eab_10ad);
    let mut sim = EventSim::new(topo, grammar);

    let link_weights = flappiness(&mut rng, topo.links.len());
    let router_weights = flappiness(&mut rng, topo.routers.len());
    let tail: Vec<(&str, f64)> = grammar.tail_templates().map(|(t, r)| (t.key, r)).collect();
    let tail_total: f64 = tail.iter().map(|(_, r)| r).sum();

    // Periodic timer chatter, one whole-span series per (router, pick).
    // Timers draw only from the highest-rate tail templates: periodic
    // chatter is the *common* noise, and those templates also receive
    // enough sparse instances that their variable fields keep showing
    // their cardinality to the template learner.
    let span = i64::from(spec.days) * DAY;
    let chatty = &tail[..tail.len().min(10)];
    for router in 0..topo.routers.len() {
        for _ in 0..spec.timers_per_router {
            let key = chatty[rng.gen_range(0..chatty.len())].0;
            let period = rng.gen_range(600..3600);
            sim.timer_noise(&mut rng, router, key, period, spec.start, span);
        }
    }

    for day in 0..spec.days {
        let day_start = spec.start.plus(i64::from(day) * DAY);
        let week = (i64::from(day) * DAY / WEEK) as u32;

        // --- ground-truth events ---
        let active: Vec<&KindMix> = spec
            .mix
            .iter()
            .filter(|m| m.activation_week <= week)
            .collect();
        let weights: Vec<f64> = active.iter().map(|m| m.weight).collect();
        let n_events = poisson(&mut rng, spec.events_per_day);
        for _ in 0..n_events {
            if active.is_empty() {
                break;
            }
            let kind = active[weighted_pick(&mut rng, &weights)].kind;
            let t = day_start.plus(rng.gen_range(0..DAY));
            dispatch(
                &mut sim,
                &mut rng,
                kind,
                t,
                week,
                spec,
                &link_weights,
                &router_weights,
            );
        }

        // --- background noise ---
        let n_noise = poisson(&mut rng, spec.noise_per_day);
        for _ in 0..n_noise {
            let mut x = rng.gen::<f64>() * tail_total;
            let mut key = tail[0].0;
            for (k, r) in &tail {
                x -= r;
                if x <= 0.0 {
                    key = k;
                    break;
                }
            }
            let router = rng.gen_range(0..topo.routers.len());
            let t = day_start.plus(rng.gen_range(0..DAY));
            // Geometric-ish burst length, mean ~2.5 messages.
            let mut n = 1usize;
            while n < 8 && rng.gen_bool(0.55) {
                n += 1;
            }
            sim.background_burst(&mut rng, router, key, t, n);
        }
    }

    let mut messages = sim.msgs;
    sd_model::sort_batch(&mut messages);
    Workload {
        messages,
        events: sim.events,
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    sim: &mut EventSim<'_>,
    rng: &mut StdRng,
    kind: EventKind,
    t: Timestamp,
    week: u32,
    spec: &WorkloadSpec,
    link_weights: &[f64],
    router_weights: &[f64],
) {
    let correlated = week < spec.decorrelation_week;
    let boost = |n: usize| ((n as f64 * spec.intensity) as usize).max(1);
    match kind {
        EventKind::LinkFlap => {
            let link = weighted_pick(rng, link_weights);
            let n = boost(sample_flap_count(rng));
            let gap = rng.gen_range(80.0..350.0);
            sim.link_flap(rng, link, t, n, gap);
        }
        EventKind::ControllerFlap => {
            // Pick a router that actually has controllers.
            let candidates: Vec<usize> = sim
                .topo
                .routers
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.controllers.is_empty())
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                return;
            }
            let router = candidates[rng.gen_range(0..candidates.len())];
            let ctl = rng.gen_range(0..sim.topo.routers[router].controllers.len());
            let n = boost(rng.gen_range(3..25));
            sim.controller_flap(rng, router, ctl, t, n);
        }
        EventKind::BgpSessionReset => {
            if sim.topo.bgp_sessions.is_empty() {
                return;
            }
            let s = rng.gen_range(0..sim.topo.bgp_sessions.len());
            sim.bgp_session_reset(rng, s, t);
        }
        EventKind::CpuSpike => {
            let router = weighted_pick(rng, router_weights);
            let after_config = correlated && rng.gen_bool(0.7);
            sim.cpu_spike(rng, router, t, after_config);
        }
        EventKind::LineCardCrash => {
            let router = weighted_pick(rng, router_weights);
            sim.linecard_crash(rng, router, t);
        }
        EventKind::EnvAlarm => {
            let router = weighted_pick(rng, router_weights);
            sim.env_alarm(rng, router, t);
        }
        EventKind::ConfigSession => {
            let router = weighted_pick(rng, router_weights);
            sim.config_session(rng, router, t);
        }
        EventKind::TcpBadAuthWave => {
            let router = weighted_pick(rng, router_weights);
            sim.tcp_badauth_wave(rng, router, t);
        }
        EventKind::PortFlap => {
            let link = weighted_pick(rng, link_weights);
            let n = boost(sample_flap_count(rng));
            sim.port_flap(rng, link, t, n);
        }
        EventKind::PimNeighborLoss => {
            if sim.topo.pim.is_empty() {
                return;
            }
            let adj = rng.gen_range(0..sim.topo.pim.len());
            sim.pim_neighbor_loss(rng, adj, t);
        }
        EventKind::MplsReroute => {
            if sim.topo.paths.is_empty() {
                return;
            }
            let p = rng.gen_range(0..sim.topo.paths.len());
            sim.mpls_reroute(rng, p, t);
        }
        EventKind::LoginFailureWave => {
            let router = weighted_pick(rng, router_weights);
            sim.login_failure_wave(rng, router, t);
        }
        EventKind::SvcFlap => {
            let router = weighted_pick(rng, router_weights);
            sim.svc_flap(rng, router, t, correlated);
        }
        EventKind::CardFail => {
            let router = weighted_pick(rng, router_weights);
            sim.card_fail(rng, router, t);
        }
    }
}

/// Heavy-tailed flap count. Cycle spacing is several minutes, so the
/// count also bounds episode duration: the cap keeps even storm events
/// within ~a day, preventing unrelated incidents from overlapping (and
/// transitively chaining) on busy elements.
fn sample_flap_count(rng: &mut StdRng) -> usize {
    let x: f64 = rng.gen();
    if x < 0.5 {
        rng.gen_range(40..90)
    } else if x < 0.85 {
        rng.gen_range(90..180)
    } else {
        rng.gen_range(180..320)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopoSpec;
    use sd_model::Vendor;

    fn small_spec(vendor: Vendor, days: u32) -> (Topology, Grammar, WorkloadSpec) {
        let topo = Topology::generate(&TopoSpec {
            n_routers: 12,
            vendor,
            iptv: vendor == Vendor::V2,
            seed: 42,
        });
        let grammar = Grammar::for_vendor(vendor);
        let mix = match vendor {
            Vendor::V1 => WorkloadSpec::mix_v1(),
            Vendor::V2 => WorkloadSpec::mix_v2(),
        };
        let spec = WorkloadSpec {
            start: Timestamp::from_ymd_hms(2009, 9, 1, 0, 0, 0),
            days,
            seed: 7,
            events_per_day: 20.0,
            noise_per_day: 40.0,
            mix,
            decorrelation_week: 5,
            timers_per_router: 2,
            intensity: 1.0,
        };
        (topo, grammar, spec)
    }

    #[test]
    fn run_is_deterministic_and_sorted() {
        let (topo, grammar, spec) = small_spec(Vendor::V1, 2);
        let w1 = run(&topo, &grammar, &spec);
        let w2 = run(&topo, &grammar, &spec);
        assert_eq!(w1.messages, w2.messages);
        assert!(!w1.messages.is_empty());
        assert!(w1.messages.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn event_messages_reference_recorded_events() {
        let (topo, grammar, spec) = small_spec(Vendor::V1, 2);
        let w = run(&topo, &grammar, &spec);
        let ids: std::collections::HashSet<u64> = w.events.iter().map(|e| e.id).collect();
        let mut tagged = 0usize;
        for m in &w.messages {
            if let Some(gt) = m.gt_event {
                assert!(ids.contains(&gt), "dangling gt id {gt}");
                tagged += 1;
            }
        }
        assert!(tagged > 0);
        let total: usize = w.events.iter().map(|e| e.n_messages).sum();
        assert_eq!(total, tagged);
    }

    #[test]
    fn volume_is_dominated_by_event_cascades() {
        let (topo, grammar, mut spec) = small_spec(Vendor::V1, 3);
        spec.timers_per_router = 0; // compare cascades against sparse noise only
        let w = run(&topo, &grammar, &spec);
        let noise = w.messages.iter().filter(|m| m.gt_event.is_none()).count();
        let tagged = w.messages.len() - noise;
        assert!(
            tagged > noise * 3,
            "events should dominate: {tagged} event msgs vs {noise} noise"
        );
    }

    #[test]
    fn v2_workload_emits_v2_codes_only() {
        let (topo, grammar, spec) = small_spec(Vendor::V2, 2);
        let w = run(&topo, &grammar, &spec);
        assert!(!w.messages.is_empty());
        let known: std::collections::HashSet<&str> =
            grammar.templates.iter().map(|t| t.code.as_str()).collect();
        for m in &w.messages {
            assert!(known.contains(m.code()), "alien code {}", m.code());
        }
    }

    #[test]
    fn activation_weeks_gate_kinds() {
        let (topo, grammar, mut spec) = small_spec(Vendor::V1, 7);
        spec.events_per_day = 40.0;
        let w = run(&topo, &grammar, &spec);
        // TcpBadAuthWave activates week 3; a 1-week run must not contain it.
        assert!(!w.events.iter().any(|e| e.kind == EventKind::TcpBadAuthWave));
        assert!(w.events.iter().any(|e| e.kind == EventKind::LinkFlap));
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        for lambda in [0.5, 5.0, 50.0, 800.0] {
            let n = 400;
            let total: usize = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.25,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }
}
