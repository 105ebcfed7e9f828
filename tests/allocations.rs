//! Heap allocations on the batch hot path, counted by a global allocator
//! that tallies each thread's calls: parsing a line allocates only for a
//! text the line cache does not hold, and a batch of repeated lines
//! augments with allocations that grow with its distinct lines, not with
//! its length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use syslogdigest_repro::digest::augment_batch_isolated;
use syslogdigest_repro::digest::offline::{learn, OfflineConfig};
use syslogdigest_repro::model::{Parallelism, RawMessage, Timestamp};

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls made by the current thread (so tests running in parallel do not
/// see each other's allocations).
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_message_is_at_most_48_bytes() {
    if cfg!(target_pointer_width = "64") {
        assert!(std::mem::size_of::<RawMessage>() <= 48);
    }
}

/// Parsing allocates only for a text the line cache does not hold: a new
/// line once, a repeat (parsed or built) never, a text too long to cache
/// once every time, a rejected line never.
#[test]
fn parse_line_allocates_only_for_an_uncached_text() {
    // The first message on a thread also allocates the cache's table.
    let warm = "2010-01-10 00:00:15 warm-up WARM-0-UP first message on this thread";
    assert!(RawMessage::parse_line(warm).is_ok());
    let lines = [
        "2010-01-10 00:00:15 r1 LINK-3-UPDOWN Interface Serial1/5, changed state to down",
        "2010-01-10 00:00:15 r1 SYS-5-RESTART",
        "2010-01-10 00:00:15 r1 SYS-5-RELOAD ",
        "2010-01-10 00:00:15\u{a0} core-7.nyc SNMP-WARNING-linkDown caf\u{e9} \u{3000}x",
    ];
    for line in lines {
        let (m, n) = allocations(|| RawMessage::parse_line(line));
        assert!(m.is_ok(), "{line:?}");
        assert_eq!(n, 1, "new line {line:?}");
        let (again, n) = allocations(|| RawMessage::parse_line(line));
        assert_eq!(again, m, "{line:?}");
        assert_eq!(n, 0, "repeated line {line:?}");
    }
    // Built from its fields, a recent text is shared too.
    let m = RawMessage::parse_line(lines[0]).unwrap();
    let (built, n) = allocations(|| RawMessage::new(m.ts, m.router(), m.code(), m.detail()));
    assert_eq!(built, m);
    assert_eq!(n, 0, "RawMessage::new of a recent text");
    // A text over 1 KiB is never cached.
    let long = format!("2010-01-10 00:00:15 r1 LOG-6-LONG {}", "x".repeat(1100));
    for _ in 0..3 {
        let (m, n) = allocations(|| RawMessage::parse_line(&long));
        assert!(m.is_ok());
        assert_eq!(n, 1, "text over 1 KiB");
    }
    // A rejected line allocates nothing.
    let (m, n) = allocations(|| RawMessage::parse_line("2010-01-10 00:00:15 r1"));
    assert!(m.is_err());
    assert_eq!(n, 0);
}

#[test]
fn repeated_lines_augment_without_per_message_allocations() {
    let cfg = "hostname r1\n!\ninterface Serial1/5\n ip address 10.0.0.1 255.255.255.252\n";
    let train: Vec<RawMessage> = (0..30)
        .map(|i| {
            RawMessage::new(
                Timestamp(i),
                "r1",
                "LINK-3-UPDOWN",
                format!("Interface Serial1/{}, changed state to down", i % 20),
            )
        })
        .collect();
    let k = learn(&[cfg.to_owned()], &train, &OfflineConfig::dataset_a());
    // A known location, a known router with an unknown location, and a
    // router the dictionary does not know.
    let distinct = [
        RawMessage::new(
            Timestamp(0),
            "r1",
            "LINK-3-UPDOWN",
            "Interface Serial1/5, changed state to down",
        ),
        RawMessage::new(Timestamp(0), "r1", "SYS-5-RESTART", "System restarted"),
        RawMessage::new(
            Timestamp(0),
            "ghost",
            "LINK-3-UPDOWN",
            "Interface Serial1/5",
        ),
    ];
    let batch = |n: usize| -> Vec<RawMessage> {
        (0..n)
            .map(|i| {
                let mut m = distinct[i % distinct.len()].clone();
                m.ts = Timestamp(i as i64);
                m
            })
            .collect()
    };
    let (small, large) = (batch(300), batch(10_000));
    let par = Parallelism::sequential();
    let (small, n_small) = allocations(|| augment_batch_isolated(&k, &small, par));
    let (large, n_large) = allocations(|| augment_batch_isolated(&k, &large, par));
    assert_eq!(large.augmented.iter().flatten().count(), 10_000 * 2 / 3 + 1);
    assert_eq!(small.augmented.len(), 300);
    // The memo, the output vectors and one augmentation per distinct
    // line, whatever the batch length.
    assert_eq!(n_large, n_small, "allocations grew with the batch length");
    assert!(
        n_large <= 8 * distinct.len() + 8,
        "{n_large} allocations for {} distinct lines",
        distinct.len()
    );
}
