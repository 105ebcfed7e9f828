//! The online SyslogDigest pipeline (right half of Figure 1): augment →
//! group (temporal, rule-based, cross-router) → prioritize → present, by
//! the stream digester run over the sorted batch a chunk at a time.

use crate::event::NetworkEvent;
use crate::grouping::GroupingConfig;
use crate::knowledge::DomainKnowledge;
use crate::provenance::{CloseReason, EventProvenance};
use crate::quarantine::QuarantineRecord;
use crate::stream::{StreamConfig, StreamDigester};
use sd_model::RawMessage;
use sd_telemetry::Telemetry;

/// The digest of one batch (typically one day or the whole online period).
#[derive(Debug, Clone)]
pub struct Digest {
    /// Events, highest priority first.
    pub events: Vec<NetworkEvent>,
    /// Input messages.
    pub n_input: usize,
    /// Messages dropped because their router is unknown.
    pub n_dropped: usize,
    /// Messages quarantined because their augmentation panicked (0 in a
    /// healthy run).
    pub n_quarantined: usize,
    /// Provenance for every quarantined message (JSONL sidecar fodder).
    pub quarantined: Vec<QuarantineRecord>,
}

/// Table 7's compression ratio: events per message grouped, that is per
/// input message less unknown-router drops and quarantined messages (0
/// when nothing was grouped).
pub(crate) fn compression_ratio(
    n_events: usize,
    n_input: usize,
    n_dropped: usize,
    n_quarantined: usize,
) -> f64 {
    match n_input - n_dropped - n_quarantined {
        0 => 0.0,
        grouped => n_events as f64 / grouped as f64,
    }
}

impl Digest {
    /// Table 7's compression ratio: events per message grouped (input
    /// less drops and quarantined messages).
    pub fn compression_ratio(&self) -> f64 {
        compression_ratio(
            self.events.len(),
            self.n_input,
            self.n_dropped,
            self.n_quarantined,
        )
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

/// Run the full online pipeline over time-sorted raw messages: the stream
/// digester groups the batch in one pass, and the events are ranked by
/// score, then start, then lowest member.
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
    let scfg = StreamConfig::default();
    let mut sd = StreamDigester::with_telemetry(k, *cfg, scfg, &Telemetry::disabled());
    sd.set_trace(trace);
    sd.time_as(tel.span("digest.augment"), tel.span("digest.group"));
    // The digester numbers the messages it groups 0, 1, …; drops and
    // quarantined messages get no number. The j-th of those, at raw
    // position p, is kept as p − j, the count of numbered messages before
    // it, so number `id` is at raw position `id` plus the count of kept
    // entries ≤ `id`, and a batch without drops keeps nothing.
    let mut skipped = Vec::new();
    let mut events = sd.push_skipping(raw, |p| skipped.push(p - skipped.len()));
    let _g = tel.time("digest.events");
    events.extend(sd.finish());
    for id in events.iter_mut().flat_map(|ev| &mut ev.message_idxs) {
        *id += skipped.partition_point(|&s| s <= *id);
    }
    events.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.start.cmp(&b.start))
            .then(a.message_idxs.cmp(&b.message_idxs))
    });
    // The digester's ids number its records in emission order.
    let records = sd.take_provenance();
    let provenance = trace.then(|| {
        let record = |(rank, ev): (usize, &NetworkEvent)| EventProvenance {
            event_id: rank as u64 + 1,
            closed_by: CloseReason::Batch,
            idle_gap_secs: None,
            idle_close_secs: None,
            ..records[ev.id as usize - 1].clone()
        };
        events.iter().enumerate().map(record).collect()
    });
    for (rank, ev) in events.iter_mut().enumerate() {
        ev.id = rank as u64 + 1;
    }
    let (n_dropped, quarantined) = (sd.stats().n_dropped, sd.take_quarantined());
    tel.counter("digest.n_input").add(raw.len() as u64);
    tel.counter("digest.n_dropped").add(n_dropped as u64);
    tel.counter("digest.n_events").add(events.len() as u64);
    tel.counter("digest.n_quarantined")
        .add(quarantined.len() as u64);
    (
        Digest {
            events,
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
    use crate::augment::augment_batch_isolated;
    use crate::grouping::group;
    use crate::offline::{learn, OfflineConfig};
    use sd_model::{Parallelism, SyslogPlus};
    use sd_netsim::{Dataset, DatasetSpec};

    fn small_digest() -> (Dataset, DomainKnowledge, Digest) {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        let dg = digest(&k, d.online(), &GroupingConfig::default());
        (d, k, dg)
    }

    /// The augmented batch `digest` groups, for comparing against the
    /// composed pipeline.
    fn augmented(d: &Dataset, k: &DomainKnowledge) -> Vec<SyslogPlus> {
        augment_batch_isolated(k, d.online(), Parallelism::sequential())
            .split()
            .0
    }

    #[test]
    fn digest_compresses_by_orders_of_magnitude() {
        let (d, k, dg) = small_digest();
        assert!(dg.n_input > 500, "n_input {}", dg.n_input);
        assert_eq!(dg.n_dropped, 0);
        let ratio = dg.compression_ratio();
        assert!(ratio < 0.15, "compression ratio {ratio}");
        let grouping = group(&k, &augmented(&d, &k), &GroupingConfig::default());
        assert_eq!(dg.events.len(), grouping.n_groups);
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

    /// Unknown-router drops and a quarantined message at the start, in
    /// the middle and at the end of a batch get no sequence number, yet
    /// every member index still names that message's raw position: the
    /// batch digests exactly as it does without them.
    #[test]
    fn member_indices_are_raw_positions_around_drops_and_quarantine() {
        use crate::quarantine::{set_poison_marker, POISON_TEST_LOCK};
        let (d, k, plain) = small_digest();
        let online = d.online();
        let (mid, last) = (online.len() / 2, online.len() - 1);
        let (mut raw, mut orig) = (Vec::new(), Vec::new());
        for (i, m) in online.iter().enumerate() {
            if [0, mid, last].contains(&i) {
                let (ts, code, detail) = (m.ts, m.code(), m.detail());
                raw.push(RawMessage::new(ts, "no-such-router", code, detail));
                raw.push(RawMessage::new(ts, m.router(), code, "PIPELINEPOISON"));
                raw.push(RawMessage::new(ts, "no-such-router", code, detail));
                orig.extend([None; 3]);
            }
            raw.push(m.clone());
            orig.push(Some(i));
        }
        let _lock = POISON_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_poison_marker(Some("PIPELINEPOISON"));
        let dg = digest(&k, &raw, &GroupingConfig::default());
        set_poison_marker(None);
        assert_eq!((dg.n_dropped, dg.n_quarantined), (6, 3));
        assert_eq!(dg.events.len(), plain.events.len());
        for (ev, want) in dg.events.iter().zip(&plain.events) {
            let back: Vec<usize> = ev.message_idxs.iter().map(|&i| orig[i].unwrap()).collect();
            assert_eq!(back, want.message_idxs);
            for &i in &ev.message_idxs {
                assert_eq!(raw[i], online[orig[i].unwrap()]);
            }
        }
    }

    /// §4.2.4's score is a per-message sum, so an event's score must equal
    /// the sum of its members' singleton scores — merging groups can only
    /// raise priority, never lower it.
    #[test]
    fn score_is_additive_over_members() {
        use crate::priority::score_group;
        let (d, k, dg) = small_digest();
        let batch = augmented(&d, &k);
        let event = dg.events.iter().max_by_key(|e| e.size()).unwrap();
        // Raw indices to batch positions (the batch keeps raw order).
        let at = |i: &usize| batch.binary_search_by_key(i, |sp| sp.idx).unwrap();
        let biggest: Vec<usize> = event.message_idxs.iter().map(at).collect();
        let whole = score_group(&k, &batch, &biggest);
        assert_eq!(whole.to_bits(), event.score.to_bits());
        let parts: f64 = biggest.iter().map(|&i| score_group(&k, &batch, &[i])).sum();
        assert!(
            (whole - parts).abs() < 1e-6 * whole.max(1.0),
            "{whole} vs {parts}"
        );
    }
}
