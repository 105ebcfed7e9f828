//! Run-to-run determinism: learning and digesting the same input twice in
//! one process gives byte-identical knowledge and identical digests, on
//! both dataset presets and on arbitrary proptest-generated streams. Every
//! `HashMap` with the default hasher draws fresh SipHash keys, so the two
//! runs iterate their maps in different orders; output that followed hash
//! order would differ between them.

use proptest::prelude::*;
use syslogdigest_repro::digest::offline::{history, learn, OfflineConfig};
use syslogdigest_repro::digest::UnionFind;
use syslogdigest_repro::digest::{augment_batch_isolated, digest, Digest, DomainKnowledge};
use syslogdigest_repro::digest::{build_event, group, score_group, stage_edges, GroupingConfig};
use syslogdigest_repro::model::{sort_batch, ErrorCode, Parallelism, RawMessage, Timestamp};
use syslogdigest_repro::netsim::{Dataset, DatasetSpec};
use syslogdigest_repro::telemetry::Telemetry;
use syslogdigest_repro::temporal::calibrate;

/// The observable shape of a digest: each event's member indices (in
/// emission order) plus its score.
fn event_shape(d: &Digest) -> Vec<(Vec<usize>, f64)> {
    d.events
        .iter()
        .map(|e| (e.message_idxs.clone(), e.score))
        .collect()
}

/// The partition a digest's events make of the raw indices, as sorted
/// member lists in sorted order.
fn partition(d: &Digest) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = d.events.iter().map(|e| e.message_idxs.clone()).collect();
    groups.sort();
    groups
}

fn assert_runs_agree(spec: DatasetSpec, off: OfflineConfig) {
    let d = Dataset::generate(spec, &Telemetry::disabled());
    let k1 = learn(&d.configs, d.train(), &off);
    let k2 = learn(&d.configs, d.train(), &off);
    assert_eq!(
        k1.to_json().expect("knowledge serializes"),
        k2.to_json().expect("knowledge serializes"),
        "learned knowledge differs between runs"
    );
    let cfg = GroupingConfig::default();
    let (d1, d2) = (digest(&k1, d.online(), &cfg), digest(&k1, d.online(), &cfg));
    assert_eq!(d1.n_dropped, d2.n_dropped);
    assert_eq!(
        event_shape(&d1),
        event_shape(&d2),
        "digest differs between runs"
    );
}

#[test]
fn preset_a_learns_and_digests_alike_twice() {
    assert_runs_agree(
        DatasetSpec::preset_a().scaled(0.06),
        OfflineConfig::dataset_a(),
    );
}

#[test]
fn preset_b_learns_and_digests_alike_twice() {
    assert_runs_agree(
        DatasetSpec::preset_b().scaled(0.06),
        OfflineConfig::dataset_b(),
    );
}

/// The α/β calibration (Table 6) sums f64 ratios over the key-ordered
/// series of `history`; two runs must pick the same parameters.
#[test]
fn calibration_picks_alike_twice() {
    let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.05), &Telemetry::disabled());
    let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
    let pick = || {
        let series = history(&k, d.train()).series;
        calibrate(&series, &[0.0, 0.05, 0.2, 0.5], &[2.0, 5.0, 7.0], 0.03)
    };
    let (t1, t2) = (pick(), pick());
    assert_eq!(t1.alpha, t2.alpha);
    assert_eq!(t1.beta, t2.beta);
}

// ----------------------------------------------------- proptest streams --

/// A tiny fixed knowledge base (mirrors tests/properties.rs).
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `digest` equals its stages composed by hand (augment, `group`,
    /// then `build_event` with `score_group` per group, ranked by score,
    /// start and lowest member) and a second `digest` of the same stream:
    /// identical dropped count, partition and events.
    #[test]
    fn digest_equals_sequential_digest(stream in arbitrary_stream()) {
        let k = tiny_knowledge();
        let cfg = GroupingConfig::default();
        let base = digest(&k, &stream, &cfg);
        let (batch, dropped) =
            augment_batch_isolated(&k, &stream, Parallelism::sequential()).split();
        prop_assert_eq!(base.n_dropped, dropped);
        let mut composed: Vec<_> = group(&k, &batch, &cfg)
            .members()
            .iter()
            .map(|m| build_event(&k, &batch, m, score_group(&k, &batch, m)))
            .collect();
        composed.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(a.start.cmp(&b.start))
                .then(a.message_idxs.cmp(&b.message_idxs))
        });
        prop_assert_eq!(base.events.len(), composed.len());
        for (rank, (ev, c)) in base.events.iter().zip(&composed).enumerate() {
            prop_assert_eq!(ev.id, rank as u64 + 1);
            prop_assert_eq!(&ev.message_idxs, &c.message_idxs);
            prop_assert_eq!(ev.score.to_bits(), c.score.to_bits());
            prop_assert_eq!(ev.format_line(), c.format_line());
        }
        let mut grouped: Vec<Vec<usize>> = group(&k, &batch, &cfg)
            .members()
            .iter()
            .map(|m| m.iter().map(|&i| batch[i].idx).collect())
            .collect();
        grouped.sort();
        prop_assert_eq!(partition(&base), grouped);
        let again = digest(&k, &stream, &cfg);
        prop_assert_eq!(base.n_dropped, again.n_dropped);
        prop_assert_eq!(partition(&base), partition(&again));
        prop_assert_eq!(event_shape(&base), event_shape(&again));
    }

    /// Grouping a shared augmented batch twice gives the same labels and,
    /// down to its order, the same edge list; `group` is the union-find
    /// fold of `stage_edges`.
    #[test]
    fn grouping_repeats_and_folds_stage_edges(stream in arbitrary_stream()) {
        let k = tiny_knowledge();
        let cfg = GroupingConfig::default();
        let (batch, _) = augment_batch_isolated(&k, &stream, Parallelism::sequential()).split();
        let base = group(&k, &batch, &cfg);
        let again = group(&k, &batch, &cfg);
        prop_assert_eq!(base.n_groups, again.n_groups);
        prop_assert_eq!(&base.group_of, &again.group_of);

        let edges = stage_edges(&k, &batch, &cfg);
        prop_assert_eq!(&edges, &stage_edges(&k, &batch, &cfg));
        let mut uf = UnionFind::new(batch.len());
        for &(a, b, _) in &edges {
            uf.union(a, b);
        }
        prop_assert_eq!(uf.groups(), (base.group_of, base.n_groups));
    }
}
