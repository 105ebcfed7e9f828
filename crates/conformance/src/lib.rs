//! # sd-conformance
//!
//! Reference oracles and the differential conformance harness for the
//! SyslogDigest reproduction.
//!
//! Every optimized path in the workspace — the indexed zero-allocation
//! template matcher, the sharded learner, the run-compressed transaction
//! counter, the union-find grouping — is only ever tested against itself
//! elsewhere. This crate holds small, deliberately naive implementations
//! of each pipeline stage written straight from the paper's equations
//! (§4.1.1 sub-type trees, §4.1.3 EWMA interarrival clustering, §4.1.4
//! windowed pairwise rule mining, §4.2.1–§4.2.3 grouping), with none of
//! the production code's indexes, sharding, or incremental state:
//!
//! * `ref_templates` — recursive sub-type tree construction and a
//!   scan-every-template matcher;
//! * `ref_temporal` — the EWMA recurrence, re-derived;
//! * `ref_rules` — per-anchor window enumeration and threshold checks;
//! * `ref_grouping` — the three stage edge sets plus naive
//!   label-propagation connected components.
//!
//! [`diff::verify_dataset`] runs reference and optimized side by side on a
//! netsim-generated corpus and reports the **first divergence with full
//! provenance** (message seq, template ids, the decision that differed).
//! `golden` pins snapshot digests of ~6 seeds × clean/bounded/hostile
//! corpora, regenerated via `validate_conformance --bless`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod diff;
mod golden;
mod recovery;
mod ref_grouping;
mod ref_rules;
mod ref_templates;
mod ref_temporal;

pub use diff::{verify_dataset, Stage};
pub use golden::{
    compute_entry, default_golden_path, GoldenEntry, GoldenFile, GOLDEN_VERSION, VARIANTS,
};
pub use recovery::verify_recovery;
pub use ref_grouping::ref_edges;
pub use ref_rules::{ref_count, ref_mine, RefRule};
pub use ref_templates::{ref_learn, ref_match};
pub use ref_temporal::ref_group_series;
