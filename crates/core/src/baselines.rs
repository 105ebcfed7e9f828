//! Baselines the paper argues against, implemented for the ablations the
//! experiments print: vendor-severity ranking (§2 explains why it
//! misleads; `exp_severity`) and fixed-gap temporal clustering (what EWMA
//! improves upon; `exp_table7`).

use crate::event::NetworkEvent;
use crate::grouping::tkey;
use crate::knowledge::DomainKnowledge;
use sd_model::{RawMessage, Severity, SyslogPlus};
use std::collections::HashMap;

/// Re-rank events by vendor severity: an event's severity is the most
/// severe (lowest-rank) vendor severity among its member messages; ties
/// break toward more messages. This is the ranking the paper says *not*
/// to trust — `exp_severity` compares it against §4.2.4 scoring.
pub fn severity_rank(events: &mut [NetworkEvent], raw: &[RawMessage]) {
    let sev_of = |e: &NetworkEvent| -> u8 {
        e.message_idxs
            .iter()
            .filter_map(|&i| raw.get(i).and_then(|m| Severity::of_code(m.code())))
            .map(Severity::rank)
            .min()
            .unwrap_or(7)
    };
    events.sort_by(|a, b| {
        sev_of(a)
            .cmp(&sev_of(b))
            .then_with(|| b.size().cmp(&a.size()))
    });
}

/// Fixed-gap temporal grouping: split a per-(router, template, location)
/// series whenever the gap exceeds `gap_secs` — no adaptation. Returns the
/// number of groups over the batch (comparable with the EWMA stage's
/// group count on the same batch).
pub fn fixed_gap_group_count(batch: &[SyslogPlus], gap_secs: i64) -> usize {
    let mut last: HashMap<(u32, u32, u32), sd_model::Timestamp> = HashMap::new();
    let mut groups = 0usize;
    for sp in batch {
        let key = tkey(sp);
        match last.get(&key) {
            Some(&prev) if sp.ts.seconds_since(prev) <= gap_secs => {}
            _ => groups += 1,
        }
        last.insert(key, sp.ts);
    }
    groups
}

/// Count the temporal-stage groups the EWMA model produces on the same
/// batch (helper mirroring [`fixed_gap_group_count`] for a like-for-like
/// comparison).
pub fn ewma_group_count(k: &DomainKnowledge, batch: &[SyslogPlus]) -> usize {
    use sd_temporal::EwmaTracker;
    let mut trackers: HashMap<(u32, u32, u32), EwmaTracker> = HashMap::new();
    let mut groups = 0usize;
    for sp in batch {
        let tr = trackers.entry(tkey(sp)).or_default();
        if tr.observe(sp.ts, &k.temporal) {
            groups += 1;
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::{ErrorCode, RouterId, TemplateId, Timestamp};
    use std::sync::Arc;

    fn sp(ts: i64, t: u32) -> SyslogPlus {
        SyslogPlus {
            idx: 0,
            ts: Timestamp(ts),
            router: RouterId(0),
            template: Some(TemplateId(t)),
            locations: Arc::from([]),
        }
    }

    #[test]
    fn fixed_gap_splits_on_threshold() {
        let batch = vec![sp(0, 1), sp(30, 1), sp(100, 1), sp(5000, 1)];
        assert_eq!(fixed_gap_group_count(&batch, 60), 3); // gaps 70 and 4900 both split
        assert_eq!(fixed_gap_group_count(&batch, 80), 2);
        assert_eq!(fixed_gap_group_count(&batch, 10_000), 1);
        assert_eq!(fixed_gap_group_count(&[], 60), 0);
    }

    #[test]
    fn severity_rank_prefers_low_severity_numbers() {
        let raw = vec![
            RawMessage::new(Timestamp(0), "r", ErrorCode::from("SYS-1-X"), "a"),
            RawMessage::new(Timestamp(0), "r", ErrorCode::from("LINK-3-Y"), "b"),
        ];
        let mk = |idxs: Vec<usize>| NetworkEvent {
            start: Timestamp(0),
            end: Timestamp(0),
            score: 0.0,
            routers: vec![],
            location_summary: String::new(),
            label: String::new(),
            signatures: vec![],
            message_idxs: idxs,
            id: 0,
        };
        let mut events = vec![mk(vec![1]), mk(vec![0])];
        severity_rank(&mut events, &raw);
        assert_eq!(events[0].message_idxs, vec![0], "severity-1 event first");
    }
}
