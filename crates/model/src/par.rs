//! Scoped-thread parallel execution: the [`Parallelism`] knob shared by
//! every stage of the offline learner and the online digester, plus small
//! deterministic fan-out helpers built on `std::thread::scope`.
//!
//! Design rules the rest of the workspace relies on:
//!
//! * `threads == 1` never spawns — callers get the exact sequential code
//!   path, byte for byte.
//! * Results are always merged back in **input order**, so a helper's
//!   output is independent of scheduling; determinism then only requires
//!   that the caller's per-item work is itself deterministic.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count configuration for parallel pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// Worker threads to use; `1` selects the sequential path.
    pub threads: usize,
}

impl Default for Parallelism {
    /// One worker per available core (sequential if that cannot be
    /// determined).
    fn default() -> Self {
        Parallelism {
            threads: available_threads(),
        }
    }
}

impl Parallelism {
    /// Exactly the sequential path: no worker threads, no sharding.
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// A specific thread count (`0` is clamped to `1`).
    pub fn with_threads(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
        }
    }

    /// Whether this configuration runs sequentially.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }
}

/// Worker threads available on this machine (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Apply `f` to every item, returning results in input order. With
/// `threads == 1` (or ≤ 1 item) this is a plain sequential loop on the
/// calling thread; otherwise items are pulled from a shared work queue by
/// scoped worker threads.
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if par.is_sequential() || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let n_workers = par.threads.min(items.len());
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            tagged.extend(h.join().expect("parallel worker panicked"));
        }
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Split `items` into at most `threads` near-equal contiguous chunks and
/// apply `f(chunk_start, chunk)` to each, returning per-chunk results in
/// input order. With `threads == 1` `f` is called once on the whole slice
/// from the calling thread.
pub fn par_chunks<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    if par.is_sequential() || items.len() <= 1 {
        return vec![f(0, items)];
    }
    let n_chunks = par.threads.min(items.len());
    let chunk_len = items.len().div_ceil(n_chunks);
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk_len)
        .enumerate()
        .map(|(ci, c)| (ci * chunk_len, c))
        .collect();
    par_map(par, &chunks, |_, &(start, chunk)| f(start, chunk))
}

/// Run `f`, converting any panic into an `Err` carrying the rendered
/// panic payload. The payload is downcast to `String` / `&str` where
/// possible so injected-fault messages survive verbatim.
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map(Parallelism::with_threads(threads), &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sequential_runs_on_calling_thread() {
        let me = std::thread::current().id();
        let items = [1, 2, 3, 4];
        let out = par_map(Parallelism::sequential(), &items, |_, &x| {
            assert_eq!(std::thread::current().id(), me);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4, 5]);
    }

    #[test]
    fn chunks_cover_everything_once() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8, 200] {
            let chunks = par_chunks(Parallelism::with_threads(threads), &items, |start, c| {
                (start, c.to_vec())
            });
            let mut flat = Vec::new();
            for (start, c) in chunks {
                assert_eq!(flat.len(), start, "chunk starts are contiguous");
                flat.extend(c);
            }
            assert_eq!(flat, items);
        }
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        let p = Parallelism::with_threads(0);
        assert!(p.is_sequential());
        assert!(Parallelism::default().threads >= 1);
    }

    #[test]
    fn catch_panic_preserves_string_payloads() {
        assert_eq!(catch_panic(|| 7), Ok(7));
        let err = catch_panic(|| -> u32 { panic!("boom {}", 42) });
        assert_eq!(err, Err("boom 42".to_string()));
        let err = catch_panic(|| -> u32 { panic!("static str") });
        assert_eq!(err, Err("static str".to_string()));
    }
}
