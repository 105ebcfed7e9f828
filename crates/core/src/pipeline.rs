//! The online SyslogDigest pipeline (right half of Figure 1): augment →
//! group (temporal, rule-based, cross-router) → prioritize → present.

use crate::augment::augment_batch_isolated;
use crate::event::{build_event, NetworkEvent};
use crate::grouping::{stage_edges, GroupingConfig, GroupingResult};
use crate::knowledge::DomainKnowledge;
use crate::priority::score_group;
use crate::provenance::{build_provenance, CloseReason, EventProvenance, GroupProv};
use crate::quarantine::QuarantineRecord;
use sd_model::RawMessage;
use sd_telemetry::Telemetry;

/// The digest of one batch (typically one day or the whole online period).
#[derive(Debug, Clone)]
pub struct Digest {
    /// Events, highest priority first.
    pub events: Vec<NetworkEvent>,
    /// Raw grouping result (batch-index space).
    pub grouping: GroupingResult,
    /// Input messages.
    pub n_input: usize,
    /// Messages dropped because their router is unknown.
    pub n_dropped: usize,
    /// Messages quarantined because their augmentation shard panicked
    /// even on sequential retry (0 in a healthy run).
    pub n_quarantined: usize,
    /// Provenance for every quarantined message (JSONL sidecar fodder).
    pub quarantined: Vec<QuarantineRecord>,
}

impl Digest {
    /// Overall compression ratio: events / input messages.
    pub fn compression_ratio(&self) -> f64 {
        if self.n_input == 0 {
            return 0.0;
        }
        self.events.len() as f64 / self.n_input as f64
    }

    /// Top `n` events (already rank-ordered).
    pub fn top(&self, n: usize) -> &[NetworkEvent] {
        &self.events[..n.min(self.events.len())]
    }

    /// Render the digest as the paper presents it: one line per event.
    pub fn to_report(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.format_line());
            out.push('\n');
        }
        out
    }
}

/// Run the full online pipeline over time-sorted raw messages.
/// `cfg.par` parallelizes augmentation and the router-local grouping
/// stages; the digest is identical for every thread count.
pub fn digest(k: &DomainKnowledge, raw: &[RawMessage], cfg: &GroupingConfig) -> Digest {
    digest_instrumented(k, raw, cfg, &Telemetry::disabled(), false).0
}

/// [`digest`] with per-stage span timings and counters recorded into
/// `tel`, and (when `trace` is set) one [`EventProvenance`] per event,
/// parallel to `Digest::events`. The digest itself is byte-identical to
/// [`digest`] for every telemetry/trace combination — event ids are the
/// 1-based presentation rank either way.
pub fn digest_instrumented(
    k: &DomainKnowledge,
    raw: &[RawMessage],
    cfg: &GroupingConfig,
    tel: &Telemetry,
    trace: bool,
) -> (Digest, Option<Vec<EventProvenance>>) {
    let (batch, n_dropped, quarantined) = {
        let _g = tel.time("digest.augment");
        let iso = augment_batch_isolated(k, raw, cfg.par);
        let poisoned: std::collections::HashSet<usize> =
            iso.quarantined.iter().map(|&(i, _)| i).collect();
        let mut batch = Vec::with_capacity(raw.len());
        let mut n_dropped = 0usize;
        for (i, sp) in iso.augmented.into_iter().enumerate() {
            match sp {
                Some(sp) => batch.push(sp),
                None if poisoned.contains(&i) => {}
                None => n_dropped += 1,
            }
        }
        let quarantined: Vec<QuarantineRecord> = iso
            .quarantined
            .into_iter()
            .map(|(i, reason)| {
                QuarantineRecord::from_message(i as u64 + 1, &raw[i], "augment", &reason)
            })
            .collect();
        (batch, n_dropped, quarantined)
    };
    let (grouping, provs) = {
        let _g = tel.time("digest.group");
        let edges = stage_edges(k, &batch, cfg);
        let grouping = GroupingResult::from_edges(batch.len(), &edges);
        // Provenance replays the causes over the final partition; it is
        // never consulted while merging.
        let mut provs = Vec::new();
        if trace {
            provs = vec![GroupProv::default(); grouping.n_groups];
            for &(a, _, cause) in &edges {
                provs[grouping.group_of[a]].record(cause);
            }
        }
        (grouping, provs)
    };
    let members = grouping.members();
    let mut events: Vec<(usize, NetworkEvent)> = {
        let _g = tel.time("digest.events");
        members
            .iter()
            .enumerate()
            .map(|(gi, m)| {
                let score = score_group(k, &batch, m);
                (gi, build_event(k, &batch, m, score))
            })
            .collect()
    };
    events.sort_by(|a, b| {
        b.1.score
            .total_cmp(&a.1.score)
            .then(a.1.start.cmp(&b.1.start))
    });
    for (rank, (_, ev)) in events.iter_mut().enumerate() {
        ev.id = rank as u64 + 1;
    }
    let provenance = trace.then(|| {
        events
            .iter()
            .map(|(gi, ev)| {
                build_provenance(
                    k,
                    &batch,
                    &members[*gi],
                    provs[*gi].clone(),
                    ev.id,
                    CloseReason::Batch,
                    None,
                    None,
                )
            })
            .collect()
    });
    let events: Vec<NetworkEvent> = events.into_iter().map(|(_, ev)| ev).collect();
    tel.counter("digest.n_input").add(raw.len() as u64);
    tel.counter("digest.n_dropped").add(n_dropped as u64);
    tel.counter("digest.n_events").add(events.len() as u64);
    tel.counter("digest.n_quarantined")
        .add(quarantined.len() as u64);
    (
        Digest {
            events,
            grouping,
            n_input: raw.len(),
            n_dropped,
            n_quarantined: quarantined.len(),
            quarantined,
        },
        provenance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{learn, OfflineConfig};
    use sd_netsim::{Dataset, DatasetSpec};

    fn small_digest() -> (Dataset, DomainKnowledge, Digest) {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08));
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        let dg = digest(&k, d.online(), &GroupingConfig::default());
        (d, k, dg)
    }

    #[test]
    fn digest_compresses_by_orders_of_magnitude() {
        let (_d, _k, dg) = small_digest();
        assert!(dg.n_input > 500, "n_input {}", dg.n_input);
        assert_eq!(dg.n_dropped, 0);
        let ratio = dg.compression_ratio();
        assert!(ratio < 0.15, "compression ratio {ratio}");
        assert_eq!(dg.events.len(), dg.grouping.n_groups);
    }

    #[test]
    fn events_are_rank_ordered_and_cover_all_messages() {
        let (_d, _k, dg) = small_digest();
        for w in dg.events.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let total: usize = dg.events.iter().map(|e| e.size()).sum();
        assert_eq!(total, dg.n_input - dg.n_dropped);
        // Raw indices are unique across events.
        let mut seen = std::collections::HashSet::new();
        for e in &dg.events {
            for &i in &e.message_idxs {
                assert!(seen.insert(i), "raw index {i} in two events");
            }
        }
    }

    #[test]
    fn report_renders_one_line_per_event() {
        let (_d, _k, dg) = small_digest();
        let report = dg.to_report();
        assert_eq!(report.lines().count(), dg.events.len());
        let first = report.lines().next().unwrap();
        assert_eq!(first.split('|').count(), 4, "line: {first}");
    }

    /// §4.2.4's score is a per-message sum, so an event's score must equal
    /// the sum of its members' singleton scores — merging groups can only
    /// raise priority, never lower it.
    #[test]
    fn score_is_additive_over_members() {
        use crate::augment::augment_batch;
        use crate::priority::score_group;
        let (d, k, dg) = small_digest();
        let (batch, _) = augment_batch(&k, d.online());
        let members = dg.grouping.members();
        let biggest = members.iter().max_by_key(|m| m.len()).unwrap();
        let whole = score_group(&k, &batch, biggest);
        let parts: f64 = biggest.iter().map(|&i| score_group(&k, &batch, &[i])).sum();
        assert!(
            (whole - parts).abs() < 1e-6 * whole.max(1.0),
            "{whole} vs {parts}"
        );
    }
}
