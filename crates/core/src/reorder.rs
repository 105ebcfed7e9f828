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
//! message is ever late, and the released sequence equals the sorted clean
//! feed (the proptest in `tests/` asserts byte-identical digests).
//!
//! # Duplicates
//!
//! A retransmitted copy either arrives while the original is still
//! buffered — the identical `(ts, router, code, detail)` key collides and
//! the copy is absorbed ([`ReorderBuffer::n_duplicate`]) — or after the
//! original was released, in which case its timestamp is already below
//! the watermark and it is dropped as late. Either way a duplicate can
//! never reach the digester twice.

use sd_model::{ErrorCode, RawMessage, Timestamp};
use sd_telemetry::{Counter, Telemetry};
use std::collections::BTreeMap;

/// Full-identity release key: total order even for same-second bursts, so
/// a given message multiset always releases in exactly one order.
type Key = (Timestamp, String, ErrorCode, String);

/// Buffers out-of-order messages and releases them in timestamp order
/// (see the module docs for the watermark contract).
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    buf: BTreeMap<Key, RawMessage>,
    high: Option<Timestamp>,
    max_skew: i64,
    /// Messages dropped because they arrived more than `max_skew_secs`
    /// behind the newest message seen. Registry-backed (`ingest.n_late`)
    /// when built via [`ReorderBuffer::with_telemetry`], a detached atomic
    /// otherwise — it counts either way.
    pub n_late: Counter,
    /// Duplicate messages absorbed while the original was still buffered
    /// (`ingest.n_duplicate` when registered).
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

    /// The reorder tolerance in seconds.
    pub fn max_skew_secs(&self) -> i64 {
        self.max_skew
    }

    /// Number of currently buffered messages.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Current watermark: releases happen strictly below it, arrivals
    /// strictly below it are late. `None` until the first message.
    pub fn watermark(&self) -> Option<Timestamp> {
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
        let key: Key = (m.ts, m.router.clone(), m.code.clone(), m.detail.clone());
        let dup = self.buf.insert(key, m).is_some();
        if dup {
            self.n_duplicate.inc();
        }
        self.drain(out);
        !dup
    }

    /// Release everything below the current watermark.
    fn drain(&mut self, out: &mut Vec<RawMessage>) {
        let Some(w) = self.watermark() else { return };
        while let Some((key, _)) = self.buf.first_key_value() {
            if key.0 >= w {
                break;
            }
            if let Some((_, m)) = self.buf.pop_first() {
                out.push(m);
            }
        }
    }

    /// Release every buffered message (end of the feed), in order.
    pub fn flush(&mut self, out: &mut Vec<RawMessage>) {
        while let Some((_, m)) = self.buf.pop_first() {
            out.push(m);
        }
    }

    // ------------------------------------------------- checkpoint support --

    /// Copy the buffered messages, in release order, without draining
    /// (checkpointing must not disturb the live buffer).
    pub fn export_buffered(&self, out: &mut Vec<RawMessage>) {
        out.extend(self.buf.values().cloned());
    }

    /// Highest timestamp observed so far (`None` before any message).
    pub fn high_watermark_ts(&self) -> Option<Timestamp> {
        self.high
    }

    /// Rebuild a buffer from checkpointed state — tolerance, observed
    /// high timestamp, buffered messages, and counters — with the counters
    /// re-registered in `tel` and set to their checkpointed values.
    pub fn restore(
        max_skew_secs: i64,
        high: Option<Timestamp>,
        buffered: impl IntoIterator<Item = RawMessage>,
        n_late: usize,
        n_duplicate: usize,
        tel: &Telemetry,
    ) -> Self {
        let mut rb = ReorderBuffer::with_telemetry(max_skew_secs, tel);
        rb.high = high;
        rb.n_late.set(n_late as u64);
        rb.n_duplicate.set(n_duplicate as u64);
        for m in buffered {
            let key: Key = (m.ts, m.router.clone(), m.code.clone(), m.detail.clone());
            rb.buf.insert(key, m);
        }
        rb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(ts: i64, router: &str, detail: &str) -> RawMessage {
        RawMessage::new(Timestamp(ts), router, ErrorCode::from("A-1-X"), detail)
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
        let ids: Vec<(&str, &str)> = out
            .iter()
            .map(|m| (m.router.as_str(), m.detail.as_str()))
            .collect();
        assert_eq!(ids, vec![("r1", "a"), ("r1", "z"), ("r2", "b")]);
    }

    #[test]
    fn zero_skew_degenerates_to_passthrough_of_sorted_feeds() {
        let feed: Vec<RawMessage> = (0..20).map(|i| msg(i, "r1", &format!("m{i}"))).collect();
        let (out, rb) = release_all(0, feed.clone());
        assert_eq!(out, feed);
        assert_eq!(rb.n_late.get(), 0);
    }
}
