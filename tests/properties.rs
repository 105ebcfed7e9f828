//! Property-based tests over the core data structures and grouping
//! invariants, with proptest-generated message streams.

use proptest::prelude::*;
use syslogdigest_repro::digest::augment_batch_isolated;
use syslogdigest_repro::digest::offline::{learn, OfflineConfig};
use syslogdigest_repro::digest::DomainKnowledge;
use syslogdigest_repro::digest::UnionFind;
use syslogdigest_repro::digest::{group, GroupingConfig};
use syslogdigest_repro::model::{
    sort_batch, ErrorCode, Interner, Parallelism, RawMessage, Timestamp,
};
use syslogdigest_repro::temporal::{count_groups, group_series, TemporalConfig};

// ---------------------------------------------------------------- model --

proptest! {
    /// Civil <-> epoch conversion roundtrips for any plausible instant.
    #[test]
    fn timestamp_civil_roundtrip(secs in -2_000_000_000i64..4_000_000_000i64) {
        let ts = Timestamp(secs);
        let (y, mo, d, h, mi, s) = ts.to_civil();
        let back = Timestamp::from_ymd_hms(y, mo, d, h, mi, s);
        prop_assert_eq!(back, ts);
    }

    /// Display -> parse roundtrips.
    #[test]
    fn timestamp_text_roundtrip(secs in 0i64..4_000_000_000i64) {
        let ts = Timestamp(secs);
        prop_assert_eq!(Timestamp::parse(&ts.to_string()), Some(ts));
    }

    /// Any message built from whitespace-free router/code fields survives
    /// the wire format.
    #[test]
    fn raw_message_wire_roundtrip(
        secs in 0i64..4_000_000_000i64,
        router in "[a-z][a-z0-9.]{0,12}",
        code in "[A-Z]{2,8}-[0-7]-[A-Z_]{2,12}",
        detail in "[ -~]{0,80}",
    ) {
        let detail = detail.trim().to_owned();
        let m = RawMessage::new(Timestamp(secs), router, ErrorCode::from(code.as_str()), detail);
        let line = m.to_line();
        let back = RawMessage::parse_line(&line).expect("parses");
        prop_assert_eq!(back.ts, m.ts);
        prop_assert_eq!(back.router(), m.router());
        prop_assert_eq!(back.code(), m.code());
        prop_assert_eq!(
            back.detail().split_whitespace().collect::<Vec<_>>(),
            m.detail().split_whitespace().collect::<Vec<_>>()
        );
    }

    /// The interner is a bijection over inserted names.
    #[test]
    fn interner_bijection(names in proptest::collection::vec("[a-z]{1,8}", 1..50)) {
        let mut it = Interner::new();
        let ids: Vec<u32> = names.iter().map(|n| it.intern(n)).collect();
        for (n, &id) in names.iter().zip(&ids) {
            prop_assert_eq!(it.resolve(id), n.as_str());
            prop_assert_eq!(it.get(n), Some(id));
        }
        // Distinct names got distinct ids.
        let mut uniq: Vec<&String> = names.iter().collect();
        uniq.sort();
        uniq.dedup();
        let mut uids: Vec<u32> = uniq.iter().map(|n| it.get(n).unwrap()).collect();
        uids.sort_unstable();
        uids.dedup();
        prop_assert_eq!(uids.len(), uniq.len());
    }
}

// ----------------------------------------------------------- union-find --

proptest! {
    /// Union-find yields a valid partition regardless of union order, and
    /// the group count decreases by exactly one per effective union.
    #[test]
    fn union_find_partition(
        n in 1usize..60,
        unions in proptest::collection::vec((0usize..60, 0usize..60), 0..80),
    ) {
        let mut uf = UnionFind::new(n);
        let mut effective = 0usize;
        for (a, b) in unions {
            if a < n && b < n && uf.union(a, b) {
                effective += 1;
            }
        }
        let (labels, count) = uf.groups();
        prop_assert_eq!(labels.len(), n);
        prop_assert_eq!(count, n - effective);
        for &l in &labels {
            prop_assert!(l < count);
        }
    }
}

// ------------------------------------------------------------- temporal --

proptest! {
    /// Group count never exceeds the series length, is at least 1 for
    /// nonempty input, and never increases when beta grows.
    #[test]
    fn ewma_group_count_bounds(
        gaps in proptest::collection::vec(1i64..5_000, 1..120),
        alpha in 0.0f64..0.9,
    ) {
        let mut ts = Vec::with_capacity(gaps.len());
        let mut cur = 0i64;
        for g in &gaps {
            cur += g;
            ts.push(Timestamp(cur));
        }
        let mut prev = usize::MAX;
        for beta in [1.5, 2.0, 3.0, 5.0, 8.0] {
            let cfg = TemporalConfig { alpha, beta, s_min: 1, s_max: 3 * 3600 };
            let n = count_groups(&ts, &cfg);
            prop_assert!(n >= 1 && n <= ts.len());
            prop_assert!(n <= prev, "beta {} gave {} > {}", beta, n, prev);
            prev = n;
        }
    }

    /// Group labels from group_series are non-decreasing along the series
    /// and contiguous from zero.
    #[test]
    fn ewma_group_labels_are_contiguous(
        gaps in proptest::collection::vec(1i64..20_000, 1..100),
    ) {
        let mut ts = Vec::new();
        let mut cur = 0i64;
        for g in &gaps {
            cur += g;
            ts.push(Timestamp(cur));
        }
        let cfg = TemporalConfig::dataset_a();
        let labels = group_series(&ts, &cfg);
        prop_assert_eq!(labels[0], 0);
        for w in labels.windows(2) {
            prop_assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
    }
}

// ------------------------------------------------------------- grouping --

/// A tiny fixed knowledge base for random-stream grouping properties.
fn tiny_knowledge() -> DomainKnowledge {
    let configs = vec![
        "hostname r0\n!\ninterface Serial1/0\n ip address 10.0.0.1 255.255.255.252\n description link to r1 Serial1/0\n".to_owned(),
        "hostname r1\n!\ninterface Serial1/0\n ip address 10.0.0.2 255.255.255.252\n description link to r0 Serial1/0\n".to_owned(),
        "hostname r2\n!\ninterface Serial2/0\n ip address 10.0.0.5 255.255.255.252\n".to_owned(),
    ];
    let mut train = Vec::new();
    for i in 0..40i64 {
        for r in ["r0", "r1", "r2"] {
            train.push(RawMessage::new(
                Timestamp(i * 50),
                r,
                ErrorCode::from("LINK-3-UPDOWN"),
                format!("Interface Serial{}/0, changed state to down", i % 25),
            ));
            train.push(RawMessage::new(
                Timestamp(i * 50 + 1),
                r,
                ErrorCode::from("LINEPROTO-5-UPDOWN"),
                format!(
                    "Line protocol on Interface Serial{}/0, changed state to down",
                    i % 25
                ),
            ));
        }
    }
    sort_batch(&mut train);
    let mut cfg = OfflineConfig::dataset_a();
    cfg.mine.sp_min = 0.0001;
    learn(&configs, &train, &cfg)
}

fn arbitrary_stream() -> impl Strategy<Value = Vec<RawMessage>> {
    proptest::collection::vec(
        (0i64..40_000, 0usize..3, 0usize..2, prop::bool::ANY),
        1..150,
    )
    .prop_map(|items| {
        let mut msgs: Vec<RawMessage> = items
            .into_iter()
            .map(|(ts, router, code, down)| {
                let routers = ["r0", "r1", "r2"];
                let state = if down { "down" } else { "up" };
                let (code, detail) = match code {
                    0 => (
                        "LINK-3-UPDOWN",
                        format!("Interface Serial1/0, changed state to {state}"),
                    ),
                    _ => (
                        "LINEPROTO-5-UPDOWN",
                        format!("Line protocol on Interface Serial1/0, changed state to {state}"),
                    ),
                };
                RawMessage::new(
                    Timestamp(ts),
                    routers[router],
                    ErrorCode::from(code),
                    detail,
                )
            })
            .collect();
        sort_batch(&mut msgs);
        msgs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grouping invariants on arbitrary streams: every message belongs to
    /// exactly one group, group count is within bounds, and stacking
    /// stages never increases the group count.
    #[test]
    fn grouping_invariants(stream in arbitrary_stream()) {
        let k = tiny_knowledge();
        let (batch, dropped) =
            augment_batch_isolated(&k, &stream, Parallelism::sequential()).split();
        prop_assert_eq!(dropped, 0);

        let mut prev = usize::MAX;
        for cfg in [
            GroupingConfig::t_only(),
            GroupingConfig::t_r(),
            GroupingConfig::default(),
        ] {
            let g = group(&k, &batch, &cfg);
            prop_assert_eq!(g.group_of.len(), batch.len());
            prop_assert!(g.n_groups <= batch.len().max(1));
            if !batch.is_empty() {
                prop_assert!(g.n_groups >= 1);
            }
            // Labels are dense.
            for &l in &g.group_of {
                prop_assert!(l < g.n_groups);
            }
            prop_assert!(g.n_groups <= prev);
            prev = g.n_groups;
        }
    }

    /// Scores are finite, positive, and additive over group members.
    #[test]
    fn scores_are_finite_and_additive(stream in arbitrary_stream()) {
        let k = tiny_knowledge();
        let (batch, _) = augment_batch_isolated(&k, &stream, Parallelism::sequential()).split();
        if batch.is_empty() {
            return Ok(());
        }
        let g = group(&k, &batch, &GroupingConfig::default());
        for members in g.members() {
            let whole = syslogdigest_repro::digest::score_group(&k, &batch, &members);
            prop_assert!(whole.is_finite() && whole > 0.0);
            let parts: f64 = members
                .iter()
                .map(|&i| syslogdigest_repro::digest::score_group(&k, &batch, &[i]))
                .sum();
            prop_assert!((whole - parts).abs() <= 1e-9 * whole.max(1.0));
        }
    }
}

// -------------------------------------------------------- reorder buffer --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Duplicate copies injected at arbitrary offsets within the skew
    /// window never change the released sequence, never register as late,
    /// and increment `n_duplicate` exactly once each.
    ///
    /// Construction keeps every duplicate absorbable by design: inter-
    /// arrival gaps are ≤ 2 s and a copy of message `i` is delivered at
    /// most 5 arrivals later, so at delivery the high watermark exceeds
    /// `ts_i` by at most 10 s — exactly the buffer's tolerance — and the
    /// original is still buffered when its copy arrives.
    #[test]
    fn reorder_buffer_absorbs_duplicates_exactly_once(
        deltas in proptest::collection::vec(0i64..=2, 5..80),
        dups in proptest::collection::vec((0usize..80, 1usize..=5), 0..20),
    ) {
        use syslogdigest_repro::digest::ReorderBuffer;

        // Clean feed with unique message identities.
        let mut ts = 0i64;
        let clean: Vec<RawMessage> = deltas
            .iter()
            .enumerate()
            .map(|(i, d)| {
                ts += d;
                RawMessage::new(
                    Timestamp(ts),
                    "r1",
                    ErrorCode::from("A-1-X"),
                    format!("m{i}"),
                )
            })
            .collect();

        let run = |feeds: &[Vec<RawMessage>]| {
            let mut rb = ReorderBuffer::new(10);
            let mut out = Vec::new();
            for batch in feeds {
                for m in batch {
                    rb.push(m.clone(), &mut out);
                }
            }
            rb.flush(&mut out);
            (out, rb.n_duplicate.get(), rb.n_late.get())
        };

        let clean_feed: Vec<Vec<RawMessage>> = clean.iter().map(|m| vec![m.clone()]).collect();
        let (clean_out, d0, l0) = run(&clean_feed);
        prop_assert_eq!(d0, 0);
        prop_assert_eq!(l0, 0);

        // Deliver a copy of message `i` right after arrival `i + offset`.
        let mut faulted = clean_feed;
        for &(i, offset) in &dups {
            let i = i % clean.len();
            let j = (i + offset).min(clean.len() - 1);
            faulted[j].push(clean[i].clone());
        }
        let (out, n_dup, n_late) = run(&faulted);
        prop_assert_eq!(&out, &clean_out, "duplicates changed the release");
        prop_assert_eq!(n_dup, dups.len() as u64);
        prop_assert_eq!(n_late, 0);
    }
}

// ---------------------------------------------------------------- order --

/// Up to 60 messages over four seconds, three routers (`r1\t` sorts
/// after `r1` field by field but before it in the joined text), two codes
/// and four details, so seconds hold lines sharing a router, a code or
/// the whole line; a quarter carry one of three ground-truth tags. Each
/// comes with a key that shuffles the batch.
fn order_batch() -> impl Strategy<Value = Vec<(RawMessage, u64)>> {
    let spec = (
        (0i64..4, 0usize..3, 0usize..2),
        (0usize..4, 0u32..12, 0u64..1 << 40),
    );
    proptest::collection::vec(spec, 0..60).prop_map(|specs| {
        specs
            .into_iter()
            .map(|((ts, r, c), (d, gt, key))| {
                let m = RawMessage::new(
                    Timestamp(ts),
                    ["r1", "r1\t", "r2"][r],
                    ["A-1-X", "B-1-X"][c],
                    ["", "a", "a b", "z"][d],
                );
                (if gt < 3 { m.with_gt(gt) } else { m }, key)
            })
            .collect()
    })
}

/// The messages of `batch` in the order of their shuffle keys.
fn shuffled(batch: &[(RawMessage, u64)]) -> Vec<RawMessage> {
    let mut keyed = batch.to_vec();
    keyed.sort_by_key(|&(_, key)| key);
    keyed.into_iter().map(|(m, _)| m).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// The in-place unstable `sort_batch` orders a batch exactly as a
    /// stable sort with the same comparator: the order is total, so the
    /// messages it ties are equal.
    #[test]
    fn sort_batch_equals_a_stable_sort_in_the_canonical_order(batch in order_batch()) {
        let mut stable = shuffled(&batch);
        stable.sort_by(|a, b| a.canonical_cmp(b).then(a.gt_event().cmp(&b.gt_event())));
        let mut sorted = shuffled(&batch);
        sort_batch(&mut sorted);
        prop_assert_eq!(sorted, stable);
    }

    /// A reorder buffer whose skew covers the batch's span releases a
    /// shuffle of distinct messages in `sort_batch`'s order: batch and
    /// stream see one sequence.
    #[test]
    fn sort_batch_equals_the_reorder_buffer_release_order(batch in order_batch()) {
        use syslogdigest_repro::digest::ReorderBuffer;

        let mut distinct: Vec<RawMessage> = batch.iter().map(|(m, _)| m.clone()).collect();
        sort_batch(&mut distinct);
        distinct.dedup_by(|a, b| a.canonical_cmp(b).is_eq());
        let keys = batch.iter().map(|&(_, key)| key);
        let feed = shuffled(&distinct.iter().cloned().zip(keys).collect::<Vec<_>>());

        let mut rb = ReorderBuffer::new(4);
        let mut out = Vec::new();
        for m in feed {
            prop_assert!(rb.push(m, &mut out));
        }
        rb.flush(&mut out);
        prop_assert_eq!(out, distinct);
    }
}
