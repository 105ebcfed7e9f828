//! Thread-count invariance of the parallel sharded pipeline: offline
//! learning must produce byte-identical knowledge and the online digest
//! an identical event partition for every thread count, on both dataset
//! presets and on arbitrary proptest-generated streams.

use proptest::prelude::*;
use syslogdigest_repro::digest::offline::{history, learn, OfflineConfig};
use syslogdigest_repro::digest::UnionFind;
use syslogdigest_repro::digest::{augment_batch_isolated, digest, Digest, DomainKnowledge};
use syslogdigest_repro::digest::{group, stage_edges, GroupingConfig};
use syslogdigest_repro::model::{sort_batch, ErrorCode, Parallelism, RawMessage, Timestamp};
use syslogdigest_repro::netsim::{Dataset, DatasetSpec};
use syslogdigest_repro::telemetry::Telemetry;
use syslogdigest_repro::temporal::calibrate;

fn with_threads(mut cfg: OfflineConfig, n: usize) -> OfflineConfig {
    cfg.par = Parallelism::with_threads(n);
    cfg
}

fn digest_cfg(n: usize) -> GroupingConfig {
    GroupingConfig {
        par: Parallelism::with_threads(n),
        ..GroupingConfig::default()
    }
}

/// The observable shape of a digest: each event's member indices (in
/// emission order) plus its score.
fn event_shape(d: &Digest) -> Vec<(Vec<usize>, f64)> {
    d.events
        .iter()
        .map(|e| (e.message_idxs.clone(), e.score))
        .collect()
}

fn assert_threads_invariant(spec: DatasetSpec, off: OfflineConfig) {
    let d = Dataset::generate(spec, &Telemetry::disabled());
    let k1 = learn(&d.configs, d.train(), &with_threads(off.clone(), 1));
    let j1 = k1.to_json().expect("knowledge serializes");
    for n in [2usize, 4, 8] {
        let kn = learn(&d.configs, d.train(), &with_threads(off.clone(), n));
        let jn = kn.to_json().expect("knowledge serializes");
        assert_eq!(j1, jn, "learned knowledge differs at {n} threads");
    }
    let base = digest(&k1, d.online(), &digest_cfg(1));
    for n in [2usize, 4, 8] {
        let dn = digest(&k1, d.online(), &digest_cfg(n));
        assert_eq!(base.n_dropped, dn.n_dropped);
        assert_eq!(
            event_shape(&base),
            event_shape(&dn),
            "digest differs at {n} threads"
        );
    }
}

#[test]
fn preset_a_is_thread_count_invariant() {
    assert_threads_invariant(
        DatasetSpec::preset_a().scaled(0.06),
        OfflineConfig::dataset_a(),
    );
}

#[test]
fn preset_b_is_thread_count_invariant() {
    assert_threads_invariant(
        DatasetSpec::preset_b().scaled(0.06),
        OfflineConfig::dataset_b(),
    );
}

/// The α/β calibration (Table 6) runs the parallel sweeps over the
/// key-ordered series merge of `history`; the picked parameters must not
/// depend on thread count.
#[test]
fn calibration_is_thread_count_invariant() {
    let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.05), &Telemetry::disabled());
    let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
    let pick = |n| {
        let par = Parallelism::with_threads(n);
        let series = history(&k, d.train(), par).series;
        calibrate(&series, &[0.0, 0.05, 0.2, 0.5], &[2.0, 5.0, 7.0], 0.03, par)
    };
    let (t1, t4) = (pick(1), pick(4));
    assert_eq!(t1.alpha, t4.alpha);
    assert_eq!(t1.beta, t4.beta);
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

    /// digest(threads = 1) == digest(threads = N) on arbitrary streams:
    /// identical dropped count, identical group labels, identically
    /// ordered events.
    #[test]
    fn digest_equals_sequential_digest(stream in arbitrary_stream()) {
        let k = tiny_knowledge();
        let base = digest(&k, &stream, &digest_cfg(1));
        for n in [2usize, 4, 8] {
            let dn = digest(&k, &stream, &digest_cfg(n));
            prop_assert_eq!(base.n_dropped, dn.n_dropped);
            prop_assert_eq!(&base.grouping.group_of, &dn.grouping.group_of);
            prop_assert_eq!(event_shape(&base), event_shape(&dn));
        }
    }

    /// The grouping stage alone is thread-count invariant on shared
    /// augmented batches, down to the order of its edge list, and `group`
    /// is the union-find fold of `stage_edges`.
    #[test]
    fn grouping_labels_are_thread_count_invariant(stream in arbitrary_stream()) {
        let k = tiny_knowledge();
        let (batch, _) = augment_batch_isolated(&k, &stream, Parallelism::sequential()).split();
        let base = group(&k, &batch, &digest_cfg(1));
        let par = group(&k, &batch, &digest_cfg(4));
        prop_assert_eq!(base.n_groups, par.n_groups);
        prop_assert_eq!(&base.group_of, &par.group_of);

        let edges = stage_edges(&k, &batch, &digest_cfg(1));
        prop_assert_eq!(&edges, &stage_edges(&k, &batch, &digest_cfg(4)));
        let mut uf = UnionFind::new(batch.len());
        for &(a, b, _) in &edges {
            uf.union(a, b);
        }
        prop_assert_eq!(uf.groups(), (base.group_of, base.n_groups));
    }
}
