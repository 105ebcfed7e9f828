//! Sliding-window transaction construction and co-occurrence counting.
//!
//! §4.1.4: "we use a sliding window W. It starts with the first message and
//! slides message by message. Each time there is one transaction" whose
//! items are the message templates inside the window. Because association
//! is only meaningful between messages "close enough in time and at
//! related locations", windows are built **per router** — the same
//! constraint rule-based grouping later enforces (same router + spatial
//! match). One counting pass per window size serves every `(SPmin,
//! Confmin)` combination, which is what makes the Figure 6/7 sweeps cheap.

use sd_model::{RouterId, TemplateId, Timestamp};
use std::collections::HashMap;

/// One event in the mining stream: `(time, router, template)`.
pub type StreamItem = (Timestamp, RouterId, TemplateId);

/// Counts from one pass over the stream with one window size.
#[derive(Debug, Clone, Default)]
pub struct CoOccurrence {
    /// Total number of transactions (= number of messages).
    pub n_transactions: u64,
    /// Per-item transaction counts (transactions whose window contains the
    /// item).
    pub item_counts: HashMap<u32, u64>,
    /// Unordered pair counts, keyed `(min, max)`.
    pub pair_counts: HashMap<(u32, u32), u64>,
}

impl CoOccurrence {
    /// Support of a single template.
    pub fn support(&self, t: TemplateId) -> f64 {
        if self.n_transactions == 0 {
            return 0.0;
        }
        *self.item_counts.get(&t.0).unwrap_or(&0) as f64 / self.n_transactions as f64
    }

    /// Confidence of `x ⇒ y`.
    pub(crate) fn confidence(&self, x: TemplateId, y: TemplateId) -> Option<f64> {
        let sx = *self.item_counts.get(&x.0).unwrap_or(&0);
        if sx == 0 {
            return None;
        }
        let key = (x.0.min(y.0), x.0.max(y.0));
        let sxy = *self.pair_counts.get(&key).unwrap_or(&0);
        Some(sxy as f64 / sx as f64)
    }

    /// Count transactions over a time-sorted stream with window `w_secs`.
    /// Windows never span routers, so the stream is split per router and
    /// each router's stream counted in sorted router order.
    pub fn count(stream: &[StreamItem], w_secs: i64) -> CoOccurrence {
        // Split per router, preserving time order.
        let mut per_router: HashMap<u32, Vec<(Timestamp, u32)>> = HashMap::new();
        for &(ts, r, t) in stream {
            per_router.entry(r.0).or_default().push((ts, t.0));
        }
        let mut routers: Vec<(u32, Vec<(Timestamp, u32)>)> = per_router.into_iter().collect();
        routers.sort_unstable_by_key(|&(r, _)| r);
        let mut co = CoOccurrence::default();
        for (_, msgs) in &routers {
            co.count_router(msgs, w_secs);
        }
        co
    }

    /// Count one router's stream. A multiset of in-window templates is
    /// maintained incrementally; runs of anchors with an identical distinct
    /// set are flushed with a weight instead of re-enumerating pairs.
    fn count_router(&mut self, msgs: &[(Timestamp, u32)], w_secs: i64) {
        let n = msgs.len();
        let mut in_window: HashMap<u32, u32> = HashMap::new();
        let mut right = 0usize;
        let mut current: Vec<u32> = Vec::new(); // sorted distinct set
        let mut dirty = true;
        let mut pending: u64 = 0;

        for left in 0..n {
            let (t_left, _) = msgs[left];
            // Expand the right edge to cover [t_left, t_left + W].
            while right < n && msgs[right].0.seconds_since(t_left) <= w_secs {
                let e = in_window.entry(msgs[right].1).or_insert(0);
                *e += 1;
                if *e == 1 {
                    dirty = true;
                }
                right += 1;
            }
            if dirty {
                self.flush(&current, pending);
                pending = 0;
                current = {
                    let mut v: Vec<u32> = in_window.keys().copied().collect();
                    v.sort_unstable();
                    v
                };
                dirty = false;
            }
            pending += 1;
            // Remove the anchor message before the next iteration (windows
            // start at each successive message).
            if let Some(e) = in_window.get_mut(&msgs[left].1) {
                *e -= 1;
                if *e == 0 {
                    in_window.remove(&msgs[left].1);
                    dirty = true;
                }
            }
        }
        self.flush(&current, pending);
    }

    fn flush(&mut self, distinct: &[u32], weight: u64) {
        if weight == 0 || distinct.is_empty() {
            return;
        }
        self.n_transactions += weight;
        for (i, &a) in distinct.iter().enumerate() {
            *self.item_counts.entry(a).or_insert(0) += weight;
            for &b in &distinct[i + 1..] {
                *self.pair_counts.entry((a, b)).or_insert(0) += weight;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ts: i64, r: u32, t: u32) -> StreamItem {
        (Timestamp(ts), RouterId(r), TemplateId(t))
    }

    #[test]
    fn always_cooccurring_pair_has_high_confidence() {
        // Template 1 is always followed by template 2 within 5 s.
        let mut stream = Vec::new();
        for i in 0..100 {
            stream.push(s(i * 100, 0, 1));
            stream.push(s(i * 100 + 5, 0, 2));
        }
        let co = CoOccurrence::count(&stream, 10);
        assert_eq!(co.n_transactions, 200);
        let conf = co.confidence(TemplateId(1), TemplateId(2)).unwrap();
        assert!(conf > 0.95, "conf {conf}");
        // Reverse direction: only the windows anchored at template 1
        // contain both (windows look forward), so conf(2 => 1) is the
        // share of "2-containing" windows that were anchored at a 1 — one
        // half. This asymmetry is what Confmin = 0.8 exploits.
        let rev = co.confidence(TemplateId(2), TemplateId(1)).unwrap();
        assert!((rev - 0.5).abs() < 0.05, "rev {rev}");
    }

    #[test]
    fn different_routers_never_share_transactions() {
        let stream = vec![s(0, 0, 1), s(1, 1, 2), s(2, 0, 1), s(3, 1, 2)];
        let co = CoOccurrence::count(&stream, 100);
        assert_eq!(co.pair_counts.get(&(1, 2)), None);
    }

    #[test]
    fn window_size_gates_cooccurrence() {
        let mut stream = Vec::new();
        for i in 0..50 {
            stream.push(s(i * 1000, 0, 1));
            stream.push(s(i * 1000 + 35, 0, 2)); // 35 s lag
        }
        let narrow = CoOccurrence::count(&stream, 30);
        let wide = CoOccurrence::count(&stream, 40);
        assert_eq!(narrow.pair_counts.get(&(1, 2)), None);
        assert!(wide.pair_counts[&(1, 2)] as f64 / wide.n_transactions as f64 > 0.3);
    }

    #[test]
    fn supports_are_fractions_of_transactions() {
        let stream = vec![s(0, 0, 7), s(1, 0, 7), s(5000, 0, 8)];
        let co = CoOccurrence::count(&stream, 10);
        assert_eq!(co.n_transactions, 3);
        assert!((co.support(TemplateId(7)) - 2.0 / 3.0).abs() < 1e-9);
        assert!((co.support(TemplateId(8)) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(co.confidence(TemplateId(9), TemplateId(7)), None);
    }

    #[test]
    fn empty_stream() {
        let co = CoOccurrence::count(&[], 60);
        assert_eq!(co.n_transactions, 0);
        assert_eq!(co.support(TemplateId(0)), 0.0);
    }

    #[test]
    fn storm_of_identical_messages_counts_every_transaction() {
        // 1000 identical messages at 1 s spacing: the run-compression path
        // must still count 1000 transactions.
        let stream: Vec<StreamItem> = (0..1000).map(|i| s(i, 0, 3)).collect();
        let co = CoOccurrence::count(&stream, 60);
        assert_eq!(co.n_transactions, 1000);
        assert_eq!(*co.item_counts.get(&3).unwrap(), 1000);
    }
}
