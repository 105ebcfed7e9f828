//! Heap allocations on the hot paths, counted by a global allocator that
//! tallies each thread's calls: parsing a line allocates only for a text
//! the line cache does not hold, sorting a batch allocates nothing, a
//! batch of repeated lines augments with allocations that grow with its
//! distinct lines, not with its length, and a warm stream digester
//! allocates nothing per line, push or chunk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use syslogdigest_repro::digest::offline::{learn, OfflineConfig};
use syslogdigest_repro::digest::{augment_batch_isolated, DomainKnowledge};
use syslogdigest_repro::digest::{FaultTolerantIngest, GroupingConfig};
use syslogdigest_repro::digest::{StreamConfig, StreamDigester};
use syslogdigest_repro::model::{sort_batch, Parallelism, RawMessage, Timestamp};
use syslogdigest_repro::telemetry::Telemetry;

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
fn a_message_is_32_bytes() {
    if cfg!(target_pointer_width = "64") {
        assert_eq!(std::mem::size_of::<RawMessage>(), 32);
    }
}

/// `sort_batch` sorts in place: no scratch buffer, whatever the order
/// it starts from.
#[test]
fn sort_batch_allocates_nothing() {
    let routers = ["r1", "r2", "core-7.nyc"];
    let codes = ["LINK-3-UPDOWN", "SYS-5-RESTART"];
    let mut batch: Vec<RawMessage> = (0..10_000u32)
        .map(|i| {
            let i = i as usize;
            let m = RawMessage::new(
                Timestamp((i / 7) as i64),
                routers[i % 3],
                codes[i % 2],
                format!("Interface Serial1/{}", i % 5),
            );
            if i.is_multiple_of(4) {
                m.with_gt((i % 9) as u32)
            } else {
                m
            }
        })
        .collect();
    // A fixed Fisher–Yates shuffle (64-bit LCG).
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..batch.len()).rev() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        batch.swap(i, (x >> 33) as usize % (i + 1));
    }
    let ((), n) = allocations(|| sort_batch(&mut batch));
    assert_eq!(n, 0, "sort_batch allocated");
    assert!(batch.windows(2).all(|w| w[0].canonical_cmp(&w[1]).is_le()));
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

/// Knowledge of one router, `r1`, with one interface, `Serial1/5`.
fn one_router_knowledge() -> DomainKnowledge {
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
    learn(&[cfg.to_owned()], &train, &OfflineConfig::dataset_a())
}

#[test]
fn repeated_lines_augment_without_per_message_allocations() {
    let k = one_router_knowledge();
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

/// Lines warmed up before the stream pins count. Two in three are kept,
/// so they take the open group's member list past 16,384 members to a
/// capacity of 32,768, and the lookback deque to its steady length (at
/// one line a second, the 3 h idle horizon holds about 7,200 kept ones).
/// Up to 21,000 more lines then fit without growing either.
const WARM_LINES: usize = 27_000;

/// Line `i` of a feed that repeats two lines, one a second: a flap on
/// `r1`'s `Serial1/5`, which the temporal stage keeps in one group that
/// never closes, and every third line one from a router the dictionary
/// does not know, which is dropped.
fn repeated_line(i: usize) -> RawMessage {
    let ts = Timestamp::from_ymd_hms(2010, 1, 10, 0, 0, 0).plus(i as i64);
    match i % 3 {
        2 => RawMessage::new(ts, "ghost", "LINK-3-UPDOWN", "Interface Serial1/5"),
        _ => RawMessage::new(
            ts,
            "r1",
            "LINK-3-UPDOWN",
            "Interface Serial1/5, changed state to down",
        ),
    }
}

/// A warm fault-tolerant ingest layer with no reorder slack, pushing
/// repeated lines that close no event, allocates as much for 1,000 lines
/// as for 10,000: parsing, the reorder buffer, augmentation and grouping
/// allocate nothing per line.
#[test]
fn a_warm_ingest_allocates_the_same_for_1k_and_10k_repeated_lines() {
    let k = one_router_knowledge();
    let (cfg, scfg) = (GroupingConfig::default(), StreamConfig::default());
    let mut ing = FaultTolerantIngest::with_telemetry(&k, cfg, scfg, 0, &Telemetry::disabled());
    let lines: Vec<String> = (0..WARM_LINES + 11_000)
        .map(|i| repeated_line(i).to_line())
        .collect();
    let mut push = |lines: &[String]| {
        let mut n_events = 0;
        for line in lines {
            n_events += ing.push_line(line).len();
        }
        n_events
    };
    assert_eq!(push(&lines[..WARM_LINES]), 0);
    let (events_1k, n_1k) = allocations(|| push(&lines[WARM_LINES..WARM_LINES + 1_000]));
    let (events_10k, n_10k) = allocations(|| push(&lines[WARM_LINES + 1_000..]));
    assert_eq!((events_1k, events_10k), (0, 0), "a line closed an event");
    assert_eq!(n_1k, n_10k, "allocations grew with the lines pushed");
}

/// A warm stream digester allocates as much for one `push_batch` of one
/// chunk as for one of ten chunks: a chunk reuses the digester's buffers.
/// The feed closes no event, so no allocation is an emitted event's.
#[test]
fn push_batch_allocates_the_same_for_1_and_10_chunks() {
    const CHUNK: usize = 1024;
    let k = one_router_knowledge();
    let (cfg, scfg) = (GroupingConfig::default(), StreamConfig::default());
    let mut sd = StreamDigester::with_telemetry(&k, cfg, scfg, &Telemetry::disabled());
    let msgs: Vec<RawMessage> = (0..WARM_LINES + 11 * CHUNK).map(repeated_line).collect();
    let (warm, rest) = msgs.split_at(WARM_LINES);
    assert!(sd.push_batch(warm).is_empty());
    let (one, n_one) = allocations(|| sd.push_batch(&rest[..CHUNK]));
    let (ten, n_ten) = allocations(|| sd.push_batch(&rest[CHUNK..]));
    assert!(one.is_empty() && ten.is_empty(), "a chunk closed an event");
    assert_eq!(n_one, n_ten, "allocations grew with the chunks pushed");
}
