//! # syslogdigest
//!
//! A reproduction of **SyslogDigest** — *"What Happened in my Network?
//! Mining Network Events from Router Syslogs"* (Qiu, Ge, Pei, Wang, Xu —
//! IMC 2010): a system that transforms massive, minimally structured
//! router syslog streams into a small number of prioritized, meaningful
//! network events.
//!
//! The crate mirrors the paper's Figure 1 architecture:
//!
//! * **Offline domain-knowledge learning** ([`offline::learn`]): message
//!   template learning (`sd-templates`), location learning from router
//!   configs (`sd-locations`), temporal pattern calibration
//!   (`sd-temporal`) and association rule mining (`sd-rules`), packaged
//!   into a serializable [`DomainKnowledge`] base.
//! * **Online processing** ([`digest`], or [`StreamDigester`] on a live
//!   feed: one engine): augment each raw message into Syslog+ form, group
//!   via the temporal, rule-based and cross-router stages (each link
//!   merges two groups, so stage order is irrelevant), prioritize with
//!   the §4.2.4 score, and present one line per event.
//!
//! ```
//! use sd_netsim::{Dataset, DatasetSpec};
//! use syslogdigest::offline::{learn, OfflineConfig};
//! use syslogdigest::{digest, GroupingConfig};
//! use sd_telemetry::Telemetry;
//!
//! let data = Dataset::generate(DatasetSpec::preset_a().scaled(0.05), &Telemetry::disabled());
//! let knowledge = learn(&data.configs, data.train(), &OfflineConfig::dataset_a());
//! let report = digest(&knowledge, data.online(), &GroupingConfig::default());
//! assert!(report.compression_ratio() < 0.2);
//! println!("{}", report.to_report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod augment;
mod baselines;
mod checkpoint;
mod envelope;
mod event;
mod grouping;
mod ingest;
mod knowledge;
mod metrics;
pub mod offline;
mod pipeline;
mod priority;
mod provenance;
mod quarantine;
mod reorder;
mod stream;
mod union_find;
mod viz;

pub use augment::{augment, augment_batch_isolated};
pub use baselines::{ewma_group_count, fixed_gap_group_count, severity_rank};
pub use checkpoint::{generation_path, CheckpointError, StreamSnapshot};
pub use event::{build_event, NetworkEvent};
pub use grouping::{group, stage_edges, GroupingConfig, CROSS_WINDOW_SECS};
pub use ingest::{FaultTolerantIngest, IngestStats};
pub use knowledge::{DomainKnowledge, UNKNOWN_TEMPLATE};
pub use metrics::{compression_table, evaluate_grouping, per_day_series, per_router_counts};
pub use offline::{history, learn, learn_instrumented, OfflineConfig};
pub use pipeline::{digest, digest_instrumented, Digest};
pub use priority::score_group;
pub use provenance::{EventProvenance, GroupProv, MergeCause};
pub use quarantine::{set_poison_marker, QuarantineRecord};
pub use reorder::ReorderBuffer;
pub use stream::{StreamConfig, StreamDigester, StreamStats};
pub use union_find::UnionFind;
pub use viz::{gini, snapshot};
