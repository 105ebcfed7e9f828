//! The counter registry, span timers, and the [`Telemetry`] handle that
//! bundles them.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing atomic counter.
///
/// Handles are cheap to clone (an `Arc` bump) and safe to increment from
/// any thread. A counter is either *registered* — obtained from
/// [`Telemetry::counter`], visible in snapshots — or *detached*
/// (`Counter::detached`): it still counts, it just belongs to no
/// registry. Detached counters are what a [`Telemetry::disabled`] handle
/// hands out, so stats structs backed by counters keep working with
/// telemetry off.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter registered nowhere (see the type docs).
    pub(crate) fn detached() -> Self {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value (checkpoint restore only — counters are
    /// otherwise monotone).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Aggregated timing of one span path: how many times it ran and the
/// total wall-clock time spent inside it.
#[derive(Debug, Default)]
struct SpanCell {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// A resolved handle to one span path, cached by instrumented code so the
/// per-use cost is two `Instant` reads and two relaxed atomic adds.
///
/// Span paths are dotted (`learn.templates`, `stream.push`), which is how
/// the hierarchy is expressed: a parent span simply encloses its
/// children's paths lexically, and the exposition writer emits them in
/// sorted order so the tree reads top-down.
#[derive(Clone, Debug)]
pub struct SpanHandle {
    cell: Arc<SpanCell>,
    enabled: bool,
}

impl SpanHandle {
    /// A handle that records nothing (what disabled telemetry hands out).
    pub(crate) fn detached() -> Self {
        SpanHandle {
            cell: Arc::new(SpanCell::default()),
            enabled: false,
        }
    }

    /// Start timing; the returned guard records the duration on drop.
    /// On a disabled handle this is a no-op (no clock read).
    #[inline]
    pub fn start(&self) -> SpanGuard {
        SpanGuard {
            active: self
                .enabled
                .then(|| (Arc::clone(&self.cell), Instant::now())),
        }
    }
}

/// RAII guard returned by [`SpanHandle::start`]; records one timed call
/// into its span when dropped.
#[must_use = "a span guard times until it is dropped"]
pub struct SpanGuard {
    active: Option<(Arc<SpanCell>, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cell, start)) = self.active.take() {
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Aggregated statistics of one span path in a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStat {
    /// Number of completed timed calls.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub(crate) nanos: u64,
}

impl SpanStat {
    /// Total seconds across all calls.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    spans: Mutex<BTreeMap<String, Arc<SpanCell>>>,
}

/// The injectable telemetry handle (see the crate docs).
///
/// Cloning shares the underlying registry. Every constructor-injected
/// component of the pipeline takes one; the CLI creates a single enabled
/// handle when `--metrics-out` is given and threads it everywhere, while
/// library defaults use [`Telemetry::disabled`].
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Telemetry {
    /// A fresh enabled handle with its own empty registry.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// The no-op handle: spans don't time, counters are detached.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// The counter registered under `name` (dotted, e.g.
    /// `stream.n_input`), creating it at zero on first use. All handles
    /// cloned from the same telemetry share the same counter.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::detached();
        };
        let mut map = inner.counters.lock().expect("counter registry poisoned");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// The span timer registered under the dotted `path`, creating it on
    /// first use. Cache the handle; see [`SpanHandle`].
    pub fn span(&self, path: &str) -> SpanHandle {
        let Some(inner) = &self.inner else {
            return SpanHandle::detached();
        };
        let mut map = inner.spans.lock().expect("span registry poisoned");
        let cell = map.entry(path.to_owned()).or_default();
        SpanHandle {
            cell: Arc::clone(cell),
            enabled: true,
        }
    }

    /// One-shot convenience: start timing `path` right away (for coarse
    /// stage spans where caching the handle buys nothing).
    pub fn time(&self, path: &str) -> SpanGuard {
        self.span(path).start()
    }

    /// Point-in-time dump of every registered counter and span, sorted by
    /// name so snapshots are deterministic.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let spans = inner
            .spans
            .lock()
            .expect("span registry poisoned")
            .iter()
            .map(|(path, cell)| {
                (
                    path.clone(),
                    SpanStat {
                        calls: cell.calls.load(Ordering::Relaxed),
                        nanos: cell.nanos.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        Snapshot { counters, spans }
    }
}

/// A deterministic, name-sorted dump of one registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(path, stat)` for every registered span.
    pub spans: Vec<(String, SpanStat)>,
}

impl Snapshot {
    /// Value of the counter registered under `name`, if any.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Stats of the span registered under `path`, if any.
    pub fn span(&self, path: &str) -> Option<SpanStat> {
        self.spans
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
            .ok()
            .map(|i| self.spans[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_share() {
        let t = Telemetry::new();
        let a = t.counter("x.hits");
        let b = t.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(t.counter("x.hits").get(), 3);
        let snap = t.snapshot();
        assert_eq!(snap.counter("x.hits"), Some(3));
        assert_eq!(snap.counter("nope"), None);
    }

    #[test]
    fn disabled_counters_still_count_but_export_nothing() {
        let t = Telemetry::disabled();
        let c = t.counter("x");
        c.inc();
        c.inc();
        assert_eq!(c.get(), 2);
        assert!(t.snapshot().counters.is_empty());
        // Two requests for the same name are *independent* when disabled.
        assert_eq!(t.counter("x").get(), 0);
    }

    #[test]
    fn spans_time_and_count() {
        let t = Telemetry::new();
        let h = t.span("stage.a");
        for _ in 0..3 {
            let _g = h.start();
        }
        let snap = t.snapshot();
        let s = snap.span("stage.a").unwrap();
        assert_eq!(s.calls, 3);
        assert!(s.secs() >= 0.0);
        // Disabled handles record nothing.
        let d = Telemetry::disabled();
        let _g = d.time("x");
        drop(_g);
        assert!(d.snapshot().spans.is_empty());
    }

    #[test]
    fn snapshots_are_sorted_and_deterministic() {
        let t = Telemetry::new();
        t.counter("b");
        t.counter("a");
        t.span("z.s");
        t.span("a.s");
        let snap = t.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["a.s", "z.s"]);
    }
}
