//! Network-health visualization data (§6.2, Figures 14–15): for a map
//! window, the per-router intensity one would draw as circles — once from
//! digested events, once from raw message counts. The contrast (the raw
//! view's skew toward chatty routers vs. the event view's few meaningful
//! circles) is the paper's point.

use crate::event::NetworkEvent;
use sd_model::{RawMessage, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-router snapshot row for one visualization window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterSnapshot {
    /// Router name.
    pub router: String,
    /// Raw syslog messages observed in the window (Figure 15 circles).
    pub n_messages: usize,
    /// Digested events active in the window (Figure 14 circles).
    pub n_events: usize,
    /// Highest event score touching this router in the window.
    pub(crate) top_score: f64,
    /// Label of that top event.
    pub top_label: String,
}

/// Build the snapshot for `[from, to)`.
///
/// `resolve` maps a router id to its name (pass
/// `|r| k.dict.routers.resolve(r.0)` from the caller).
pub fn snapshot<'a>(
    raw: &[RawMessage],
    events: &[NetworkEvent],
    from: Timestamp,
    to: Timestamp,
    mut resolve: impl FnMut(sd_model::RouterId) -> &'a str,
) -> Vec<RouterSnapshot> {
    let mut rows: HashMap<String, RouterSnapshot> = HashMap::new();
    for m in raw {
        if m.ts >= from && m.ts < to {
            let e = rows
                .entry(m.router().to_owned())
                .or_insert_with(|| RouterSnapshot {
                    router: m.router().to_owned(),
                    n_messages: 0,
                    n_events: 0,
                    top_score: 0.0,
                    top_label: String::new(),
                });
            e.n_messages += 1;
        }
    }
    for ev in events {
        if ev.start < to && ev.end >= from {
            for r in &ev.routers {
                let name = resolve(*r).to_owned();
                let e = rows.entry(name.clone()).or_insert_with(|| RouterSnapshot {
                    router: name,
                    n_messages: 0,
                    n_events: 0,
                    top_score: 0.0,
                    top_label: String::new(),
                });
                e.n_events += 1;
                if ev.score > e.top_score {
                    e.top_score = ev.score;
                    e.top_label = ev.label.clone();
                }
            }
        }
    }
    let mut out: Vec<RouterSnapshot> = rows.into_values().collect();
    out.sort_by(|a, b| {
        b.n_messages
            .cmp(&a.n_messages)
            .then(a.router.cmp(&b.router))
    });
    out
}

/// Gini coefficient of a count distribution — the skew statistic behind
/// "the distribution of events across routers is less skewed than that of
/// raw syslog messages" (Figure 13/15).
pub fn gini(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let sum: f64 = sorted.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::{ErrorCode, RouterId};

    fn ev(start: i64, end: i64, router: u32, score: f64, label: &str) -> NetworkEvent {
        NetworkEvent {
            start: Timestamp(start),
            end: Timestamp(end),
            score,
            routers: vec![RouterId(router)],
            location_summary: String::new(),
            label: label.to_owned(),
            signatures: vec![],
            message_idxs: vec![],
            id: 0,
        }
    }

    #[test]
    fn snapshot_counts_messages_and_overlapping_events() {
        let raw = vec![
            RawMessage::new(Timestamp(10), "r0", ErrorCode::from("A-1-B"), "x"),
            RawMessage::new(Timestamp(20), "r0", ErrorCode::from("A-1-B"), "x"),
            RawMessage::new(Timestamp(999), "r0", ErrorCode::from("A-1-B"), "x"), // outside
            RawMessage::new(Timestamp(15), "r1", ErrorCode::from("A-1-B"), "x"),
        ];
        let events = vec![
            ev(5, 25, 0, 3.0, "link flap"),
            ev(90, 200, 0, 9.0, "late"), // outside window
            ev(0, 12, 1, 1.0, "cpu threshold"),
        ];
        let names = ["r0", "r1"];
        let rows = snapshot(&raw, &events, Timestamp(0), Timestamp(60), |r| {
            names[r.0 as usize]
        });
        assert_eq!(rows.len(), 2);
        let r0 = rows.iter().find(|r| r.router == "r0").unwrap();
        assert_eq!((r0.n_messages, r0.n_events), (2, 1));
        assert_eq!(r0.top_label, "link flap");
        let r1 = rows.iter().find(|r| r.router == "r1").unwrap();
        assert_eq!((r1.n_messages, r1.n_events), (1, 1));
    }

    #[test]
    fn gini_behaves() {
        assert_eq!(gini(&[]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-9, "uniform is zero");
        let skewed = gini(&[0, 0, 0, 100]);
        assert!(skewed > 0.7, "skewed {skewed}");
        assert!(gini(&[1, 2, 3, 4]) > 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }
}
