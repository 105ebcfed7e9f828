//! Bounded reorder buffer with watermarking.
//!
//! Real syslog feeds are *almost* time-ordered: messages from different
//! routers interleave with bounded network jitter, relays retransmit, and
//! bursts arrive in arbitrary intra-second order. The
//! [`StreamDigester`](crate::StreamDigester) requires non-decreasing
//! timestamps; this buffer sits in front of it and repairs any reordering
//! up to a configured bound.
//!
//! # Watermark semantics
//!
//! Let `high` be the highest timestamp observed so far. The **watermark**
//! is `high − max_skew_secs`. Invariants:
//!
//! * An arriving message with `ts < watermark` is **late**: it is counted
//!   ([`ReorderBuffer::n_late`]) and dropped — releasing it would hand the
//!   digester a timestamp older than ones already released.
//! * Everything else is buffered, and messages are **released** (in full
//!   `(ts, router, code, detail)` order) exactly when their timestamp
//!   falls below the watermark, i.e. once no on-time arrival can precede
//!   them.
//!
//! If every message is delayed by at most `J` seconds relative to
//! generation order, then at any arrival the highest timestamp seen
//! exceeds the arriving one by at most `J`; with `max_skew_secs ≥ J` no
//! message is ever late. Every message is then released once, in
//! `(ts, router, code, detail)` order, less repeats of an earlier key
//! (see *Duplicates*). So a feed and any bounded reordering of it release
//! the same sequence (`tests/stream_robustness.rs` asserts identical
//! digests). Both this buffer and [`sort_batch`](sd_model::sort_batch),
//! which the batch path uses, order by
//! [`RawMessage::canonical_cmp`], so a feed of distinct messages releases
//! exactly the sequence `sort_batch` makes of it. Only content dedup still
//! differs: `sort_batch` keeps repeats of a key that this buffer absorbs
//! (the ROADMAP item *Batch ≡ stream through the CLI* tracks that gap).
//!
//! # Duplicates
//!
//! A retransmitted copy either arrives while the original is still
//! buffered — it equals the original in `(ts, router, code, detail)` and
//! is absorbed ([`ReorderBuffer::n_duplicate`]) — or after the
//! original was released, in which case its timestamp is already below
//! the watermark and it is dropped as late. Either way a duplicate can
//! never reach the digester twice.

use sd_model::{RawMessage, Timestamp};
use sd_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A buffered message, in the canonical `(ts, router, code, detail)`
/// order ([`RawMessage::canonical_cmp`]): a total order even for
/// same-second bursts, so a given message multiset always releases in
/// exactly one order, and the identity duplicates share.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Queued(RawMessage);

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.canonical_cmp(&other.0)
    }
}

/// Buffers out-of-order messages and releases them in timestamp order
/// (see the module docs for the watermark contract). Checkpoints
/// serialize it as it is, less the registry-backed counters.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct ReorderBuffer {
    buf: BTreeSet<Queued>,
    high: Option<Timestamp>,
    max_skew: i64,
    /// Messages dropped because they arrived more than `max_skew_secs`
    /// behind the newest message seen. Registry-backed (`ingest.n_late`)
    /// when built via [`ReorderBuffer::with_telemetry`], a detached atomic
    /// otherwise — it counts either way.
    #[serde(skip)]
    pub n_late: Counter,
    /// Duplicate messages absorbed while the original was still buffered
    /// (`ingest.n_duplicate` when registered).
    #[serde(skip)]
    pub n_duplicate: Counter,
}

impl ReorderBuffer {
    /// New buffer tolerating up to `max_skew_secs` of reordering.
    pub fn new(max_skew_secs: i64) -> Self {
        ReorderBuffer {
            max_skew: max_skew_secs.max(0),
            ..ReorderBuffer::default()
        }
    }

    /// [`new`](Self::new) with the late/duplicate counters registered in
    /// `tel` as `ingest.n_late` / `ingest.n_duplicate`.
    pub fn with_telemetry(max_skew_secs: i64, tel: &Telemetry) -> Self {
        ReorderBuffer {
            max_skew: max_skew_secs.max(0),
            n_late: tel.counter("ingest.n_late"),
            n_duplicate: tel.counter("ingest.n_duplicate"),
            ..ReorderBuffer::default()
        }
    }

    /// Number of currently buffered messages.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Current watermark: releases happen strictly below it, arrivals
    /// strictly below it are late. `None` until the first message.
    pub(crate) fn watermark(&self) -> Option<Timestamp> {
        // Saturating: extreme parsed timestamps must not overflow.
        self.high
            .map(|h| Timestamp(h.0.saturating_sub(self.max_skew)))
    }

    /// Accept one message; any messages whose release became safe are
    /// appended to `out` in timestamp order. Returns `false` when the
    /// message was dropped as late or absorbed as a duplicate.
    pub fn push(&mut self, m: RawMessage, out: &mut Vec<RawMessage>) -> bool {
        if let Some(w) = self.watermark() {
            if m.ts < w {
                self.n_late.inc();
                return false;
            }
        }
        self.high = Some(self.high.map_or(m.ts, |h| h.max(m.ts)));
        // The newest copy replaces a buffered duplicate.
        let dup = self.buf.replace(Queued(m)).is_some();
        if dup {
            self.n_duplicate.inc();
        }
        self.drain(out);
        !dup
    }

    /// Release everything below the current watermark.
    fn drain(&mut self, out: &mut Vec<RawMessage>) {
        let Some(w) = self.watermark() else { return };
        while self.buf.first().is_some_and(|q| q.0.ts < w) {
            if let Some(q) = self.buf.pop_first() {
                out.push(q.0);
            }
        }
    }

    /// Release every buffered message (end of the feed), in order.
    pub fn flush(&mut self, out: &mut Vec<RawMessage>) {
        out.extend(std::mem::take(&mut self.buf).into_iter().map(|q| q.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(ts: i64, router: &str, detail: &str) -> RawMessage {
        RawMessage::new(Timestamp(ts), router, "A-1-X", detail)
    }

    fn release_all(skew: i64, feed: Vec<RawMessage>) -> (Vec<RawMessage>, ReorderBuffer) {
        let mut rb = ReorderBuffer::new(skew);
        let mut out = Vec::new();
        for m in feed {
            rb.push(m, &mut out);
        }
        rb.flush(&mut out);
        (out, rb)
    }

    #[test]
    fn reordering_within_skew_is_repaired() {
        let feed = vec![msg(10, "r1", "a"), msg(5, "r2", "b"), msg(20, "r1", "c")];
        let (out, rb) = release_all(30, feed);
        let ts: Vec<i64> = out.iter().map(|m| m.ts.0).collect();
        assert_eq!(ts, vec![5, 10, 20]);
        assert_eq!(rb.n_late.get(), 0);
    }

    #[test]
    fn late_messages_are_counted_and_dropped() {
        let mut rb = ReorderBuffer::new(10);
        let mut out = Vec::new();
        assert!(rb.push(msg(100, "r1", "a"), &mut out));
        // 85 < 100 - 10 = 90: beyond the tolerance.
        assert!(!rb.push(msg(85, "r2", "b"), &mut out));
        assert_eq!(rb.n_late.get(), 1);
        // 95 is within tolerance and released in order.
        assert!(rb.push(msg(95, "r2", "c"), &mut out));
        rb.flush(&mut out);
        let ts: Vec<i64> = out.iter().map(|m| m.ts.0).collect();
        assert_eq!(ts, vec![95, 100]);
    }

    #[test]
    fn duplicates_are_absorbed_whether_buffered_or_released() {
        // Copy arrives while the original is buffered.
        let (out, rb) = release_all(30, vec![msg(10, "r1", "a"), msg(10, "r1", "a")]);
        assert_eq!(out.len(), 1);
        assert_eq!(rb.n_duplicate.get(), 1);

        // Copy arrives after the original was released → late-dropped.
        let mut rb = ReorderBuffer::new(5);
        let mut out = Vec::new();
        rb.push(msg(10, "r1", "a"), &mut out);
        rb.push(msg(100, "r1", "b"), &mut out); // releases ts=10
        assert_eq!(out.len(), 1);
        assert!(!rb.push(msg(10, "r1", "a"), &mut out));
        assert_eq!(rb.n_late.get(), 1);
    }

    #[test]
    fn released_sequence_is_always_nondecreasing() {
        let feed = vec![
            msg(50, "r1", "a"),
            msg(48, "r2", "b"),
            msg(60, "r3", "c"),
            msg(41, "r4", "d"), // late for skew=10 once 60 is seen (w=50)
            msg(55, "r5", "e"),
            msg(90, "r6", "f"),
        ];
        let (out, _) = release_all(10, feed);
        for pair in out.windows(2) {
            assert!(pair[0].ts <= pair[1].ts);
        }
    }

    #[test]
    fn same_second_bursts_release_in_total_order() {
        let feed = vec![msg(10, "r2", "b"), msg(10, "r1", "z"), msg(10, "r1", "a")];
        let (out, _) = release_all(5, feed);
        let ids: Vec<(&str, &str)> = out.iter().map(|m| (m.router(), m.detail())).collect();
        assert_eq!(ids, vec![("r1", "a"), ("r1", "z"), ("r2", "b")]);
    }

    /// Router `r1\t` sorts after `r1` field by field, but its joined
    /// text `"r1\t A-1-X x"` sorts before `"r1 A-1-X x"`: the buffer must
    /// compare fields.
    #[test]
    fn same_second_order_compares_fields_not_the_joined_text() {
        let feed = vec![msg(10, "r1\t", "x"), msg(10, "r1", "x")];
        let (out, _) = release_all(5, feed);
        let routers: Vec<&str> = out.iter().map(RawMessage::router).collect();
        assert_eq!(routers, vec!["r1", "r1\t"]);
    }

    /// A checkpoint holds the buffer as this JSON; pinned so its bytes do
    /// not move between builds.
    #[test]
    fn buffer_persists_as_pinned_json() {
        let mut rb = ReorderBuffer::new(30);
        let mut out = Vec::new();
        rb.push(msg(10, "r2", "b"), &mut out);
        rb.push(msg(10, "r1", "a").with_gt(7), &mut out);
        assert!(out.is_empty());
        let json = serde_json::to_string(&rb).unwrap();
        assert_eq!(
            json,
            r#"{"buf":[{"ts":10,"router":"r1","code":"A-1-X","detail":"a","gt_event":7},"#
                .to_owned()
                + r#"{"ts":10,"router":"r2","code":"A-1-X","detail":"b","gt_event":null}],"#
                + r#""high":10,"max_skew":30}"#
        );
        let back: ReorderBuffer = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        rb.flush(&mut a);
        { back }.flush(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_skew_degenerates_to_passthrough_of_sorted_feeds() {
        let feed: Vec<RawMessage> = (0..20).map(|i| msg(i, "r1", &format!("m{i}"))).collect();
        let (out, rb) = release_all(0, feed.clone());
        assert_eq!(out, feed);
        assert_eq!(rb.n_late.get(), 0);
    }
}
