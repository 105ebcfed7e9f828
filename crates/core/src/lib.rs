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
//! * **Online processing** ([`pipeline::digest`]): augment each raw
//!   message into Syslog+ form, group via the temporal, rule-based and
//!   cross-router stages (merged through a union-find so stage order is
//!   irrelevant), prioritize with the §4.2.4 score, and present one line
//!   per event.
//!
//! ```
//! use sd_netsim::{Dataset, DatasetSpec};
//! use syslogdigest::offline::{learn, OfflineConfig};
//! use syslogdigest::pipeline::digest;
//! use syslogdigest::grouping::GroupingConfig;
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

pub mod augment;
pub mod baselines;
pub mod checkpoint;
pub mod envelope;
pub mod event;
pub mod grouping;
pub mod ingest;
pub mod knowledge;
pub mod metrics;
pub mod offline;
pub mod pipeline;
pub mod priority;
pub mod provenance;
pub mod quarantine;
pub mod reorder;
pub mod stream;
pub mod union_find;
pub mod viz;

pub use augment::{augment, augment_batch_isolated, IsolatedAugment};
pub use checkpoint::{
    generation_path, CheckpointError, RecoveryReport, StreamSnapshot, SNAPSHOT_VERSION,
};
pub use envelope::{ArtifactError, ArtifactKind, EnvelopeError, ENVELOPE_MAGIC};
pub use event::{build_event, label_for, NetworkEvent};
pub use grouping::{group, stage_edges, GroupingConfig, GroupingResult};
pub use ingest::{FaultTolerantIngest, IngestStats};
pub use knowledge::{DomainKnowledge, KNOWLEDGE_VERSION, UNKNOWN_TEMPLATE};
pub use metrics::{
    compression_table, evaluate_grouping, gt_quality, per_day_series, per_router_counts, DayStats,
    GtQuality,
};
pub use offline::{history, learn, learn_instrumented, History, OfflineConfig};
pub use pipeline::{digest, digest_instrumented, Digest};
pub use priority::score_group;
pub use provenance::{CloseReason, EventProvenance, GroupProv, MergeCause};
pub use quarantine::{set_poison_marker, QuarantineRecord};
pub use reorder::ReorderBuffer;
pub use stream::{StreamConfig, StreamDigester, StreamStats};
