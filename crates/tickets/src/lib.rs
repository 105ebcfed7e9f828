//! # sd-tickets
//!
//! Trouble-ticket substrate and the §5.3 validation: the paper verifies
//! that SyslogDigest "does not miss important incidents" by taking the 30
//! most-investigated trouble tickets and checking each matches a digest
//! event ranked in the top 5 %. Real ticket systems are proprietary, so
//! tickets are derived from the simulator's ground-truth events: each
//! ticketed incident gets a creation time inside the event, a location at
//! state granularity (tickets say "TX", not an interface), and an update
//! count that grows with operational importance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_model::{GroundTruthId, Timestamp};
use sd_netsim::Dataset;
use serde::{Deserialize, Serialize};
use syslogdigest::{DomainKnowledge, NetworkEvent};

/// One trouble ticket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ticket {
    /// Unique case identifier.
    pub(crate) case_id: u64,
    /// Creation time (within the underlying incident).
    pub(crate) created: Timestamp,
    /// Times the ticket was investigated/updated (proxy for importance).
    pub(crate) updates: Vec<Timestamp>,
    /// Location at state granularity (e.g. `TX`).
    pub(crate) state: String,
    /// Free-text event type.
    pub kind: String,
    /// Hidden ground-truth link (evaluation only; a real ticket system
    /// has no such field).
    pub(crate) gt_event: GroundTruthId,
}

impl Ticket {
    /// Number of investigations — the §5.3 ranking key.
    pub(crate) fn n_updates(&self) -> usize {
        self.updates.len()
    }
}

/// Generate tickets for a dataset's online period.
///
/// Ticketing probability and update count both grow with the event's
/// importance, so "most-updated" ≈ "most important", as the paper assumes.
pub fn generate_tickets(data: &Dataset, seed: u64) -> Vec<Ticket> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71c4_e75a);
    let _online_start = data.spec.online_start();

    // Index the online-period alarm messages of each ground-truth event:
    // a NOC cuts a case off a concrete alarm, so the ticket's creation
    // time and location come from one of the incident's own messages.
    let mut alarms: std::collections::HashMap<GroundTruthId, Vec<(Timestamp, &str)>> =
        std::collections::HashMap::new();
    for m in data.online() {
        if let Some(gt) = m.gt_event() {
            alarms.entry(gt).or_default().push((m.ts, m.router()));
        }
    }
    let state_of: std::collections::HashMap<&str, &str> = data
        .topology
        .routers
        .iter()
        .map(|r| (r.name.as_str(), r.state.as_str()))
        .collect();

    let mut out = Vec::new();
    let mut case_id = 50_000u64;
    for ev in &data.gt_events {
        let Some(evt_alarms) = alarms.get(&ev.id) else {
            continue;
        };
        let p = (ev.importance - 0.25).clamp(0.0, 0.9);
        if !rng.gen_bool(p) {
            continue;
        }
        // The triggering alarm: early in the incident (first quarter of
        // its online messages).
        let pick = rng.gen_range(0..evt_alarms.len().div_ceil(4));
        let (created, router_name) = evt_alarms[pick];
        let n_updates =
            1 + (ev.importance * 10.0) as usize + rng.gen_range(0..3) + ev.routers.len();
        let mut updates = Vec::with_capacity(n_updates);
        let mut t = created;
        for _ in 0..n_updates {
            t = t.plus(rng.gen_range(600..14_400));
            updates.push(t);
        }
        case_id += rng.gen_range(1..50);
        out.push(Ticket {
            case_id,
            created,
            updates,
            state: state_of.get(router_name).copied().unwrap_or("").to_owned(),
            kind: ev.kind.label().to_owned(),
            gt_event: ev.id,
        });
    }
    out
}

/// Top `n` tickets by update count (the paper's importance proxy).
pub fn top_tickets(tickets: &[Ticket], n: usize) -> Vec<&Ticket> {
    let mut sorted: Vec<&Ticket> = tickets.iter().collect();
    sorted.sort_by(|a, b| {
        b.n_updates()
            .cmp(&a.n_updates())
            .then(a.case_id.cmp(&b.case_id))
    });
    sorted.truncate(n);
    sorted
}

/// §5.3 match predicate: the digest event's duration covers the ticket's
/// creation time, and the event's location is consistent with the ticket's
/// at state granularity.
pub(crate) fn matches(k: &DomainKnowledge, ticket: &Ticket, event: &NetworkEvent) -> bool {
    if ticket.created < event.start || ticket.created > event.end {
        return false;
    }
    event
        .routers
        .iter()
        .any(|r| k.dict.state_of(*r) == ticket.state)
}

/// Result of correlating top tickets with a ranked digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TicketMatchReport {
    /// Tickets considered.
    pub n_tickets: usize,
    /// Tickets matched by *some* digest event.
    pub n_matched: usize,
    /// Tickets whose best match ranks in the top `percentile` of events.
    pub n_matched_top: usize,
    /// The rank percentile threshold used (paper: 5 %).
    pub(crate) percentile: f64,
    /// Best (smallest) matching rank per ticket, `usize::MAX` if unmatched.
    pub best_ranks: Vec<usize>,
}

/// Correlate `tickets` against a rank-ordered digest event list.
pub fn correlate(
    k: &DomainKnowledge,
    tickets: &[&Ticket],
    events: &[NetworkEvent],
    percentile: f64,
) -> TicketMatchReport {
    let cutoff = ((events.len() as f64 * percentile).ceil() as usize).max(1);
    let mut n_matched = 0usize;
    let mut n_matched_top = 0usize;
    let mut best_ranks = Vec::with_capacity(tickets.len());
    for t in tickets {
        let best = events
            .iter()
            .enumerate()
            .find(|(_, e)| matches(k, t, e))
            .map(|(rank, _)| rank);
        match best {
            None => best_ranks.push(usize::MAX),
            Some(rank) => {
                n_matched += 1;
                if rank < cutoff {
                    n_matched_top += 1;
                }
                best_ranks.push(rank);
            }
        }
    }
    TicketMatchReport {
        n_tickets: tickets.len(),
        n_matched,
        n_matched_top,
        percentile,
        best_ranks,
    }
}

/// Convenience: generate tickets, digest the online period, and correlate
/// the top `n` tickets at `percentile` — the whole §5.3 experiment.
pub fn run_ticket_experiment(
    data: &Dataset,
    k: &DomainKnowledge,
    n: usize,
    percentile: f64,
    seed: u64,
) -> TicketMatchReport {
    let tickets = generate_tickets(data, seed);
    let top = top_tickets(&tickets, n);
    let digest = syslogdigest::digest(k, data.online(), &syslogdigest::GroupingConfig::default());
    correlate(k, &top, &digest.events, percentile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_netsim::DatasetSpec;
    use sd_telemetry::Telemetry;
    use syslogdigest::offline::{learn, OfflineConfig};

    fn setup() -> (Dataset, DomainKnowledge) {
        let d = Dataset::generate(DatasetSpec::preset_b().scaled(0.12), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_b());
        (d, k)
    }

    #[test]
    fn tickets_are_generated_for_important_online_events() {
        let (d, _k) = setup();
        let tickets = generate_tickets(&d, 7);
        assert!(!tickets.is_empty());
        let online_start = d.spec.online_start();
        for t in &tickets {
            let ev = d.gt_events.iter().find(|e| e.id == t.gt_event).unwrap();
            assert!(ev.end >= online_start);
            assert!(t.created >= ev.start && t.created <= ev.end);
            assert!(t.created >= online_start);
            assert!(!t.state.is_empty());
            assert!(t.n_updates() >= 1);
        }
        // Determinism.
        let again = generate_tickets(&d, 7);
        assert_eq!(tickets.len(), again.len());
        assert_eq!(tickets[0].case_id, again[0].case_id);
    }

    #[test]
    fn top_tickets_sorted_by_updates() {
        let (d, _k) = setup();
        let tickets = generate_tickets(&d, 7);
        let top = top_tickets(&tickets, 10);
        for w in top.windows(2) {
            assert!(w[0].n_updates() >= w[1].n_updates());
        }
        assert!(top.len() <= 10);
    }

    #[test]
    fn important_tickets_match_high_ranked_events() {
        let (d, k) = setup();
        let report = run_ticket_experiment(&d, &k, 10, 0.10, 7);
        assert!(report.n_tickets > 0);
        // Every important ticket must match *some* event (SyslogDigest
        // "does not miss important incidents").
        assert_eq!(
            report.n_matched, report.n_tickets,
            "unmatched tickets: ranks {:?}",
            report.best_ranks
        );
        // Rank quality at this toy scale (a handful of events, so a 10%
        // cutoff is 1-2 events) only admits a coarse check: at least one
        // important ticket hits the very top, and the median matched rank
        // sits in the upper half. The full-scale §5.3 experiment binary
        // (exp_tickets) measures the paper's top-5% test.
        assert!(report.n_matched_top >= 1, "ranks {:?}", report.best_ranks);
        let mut ranks = report.best_ranks.clone();
        ranks.sort_unstable();
        let dg = syslogdigest::digest(&k, d.online(), &syslogdigest::GroupingConfig::default());
        assert!(
            ranks[ranks.len() / 2] <= dg.events.len() / 2,
            "median rank {} of {}",
            ranks[ranks.len() / 2],
            dg.events.len()
        );
    }

    #[test]
    fn match_requires_time_and_state() {
        let (d, k) = setup();
        let tickets = generate_tickets(&d, 7);
        let t = &tickets[0];
        let ev_template = NetworkEvent {
            id: 0,
            start: t.created.plus(-100),
            end: t.created.plus(100),
            score: 1.0,
            routers: vec![],
            location_summary: String::new(),
            label: String::new(),
            signatures: vec![],
            message_idxs: vec![],
        };
        // No routers -> no state match.
        assert!(!matches(&k, t, &ev_template));
        // Wrong time window.
        let router = d
            .topology
            .routers
            .iter()
            .find(|r| r.state == t.state)
            .expect("ticket state comes from a real router");
        let rid = k.dict.router_id(&router.name).unwrap();
        let late = NetworkEvent {
            start: t.created.plus(10),
            end: t.created.plus(100),
            routers: vec![rid],
            ..ev_template.clone()
        };
        assert!(!matches(&k, t, &late));
        // Right time + right state.
        let good = NetworkEvent {
            routers: vec![rid],
            ..ev_template
        };
        assert!(matches(&k, t, &good));
    }
}
