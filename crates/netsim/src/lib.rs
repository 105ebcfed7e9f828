//! # sd-netsim
//!
//! The synthetic-network substrate for the SyslogDigest reproduction. The
//! paper evaluates on proprietary syslog from two AT&T backbones; this
//! crate stands in for those networks end to end:
//!
//! * [`topology`] — routers with the full Figure 3 location hierarchy
//!   (slots, ports, physical and logical interfaces, bundles, controllers),
//!   links, BGP sessions, and an IPTV PIM overlay with protection paths;
//! * [`config`] — per-router configuration files, the location learner's
//!   only input;
//! * [`grammar`] — every message template the simulator can emit, doubling
//!   as the §5.2.1 ground truth;
//! * [`events`] — ground-truth network conditions and their multi-router
//!   syslog cascades, each message tagged with its event id;
//! * [`workload`] — Poisson event scheduling with heavy-tailed target
//!   selection, activation weeks and scheduled decorrelations;
//! * [`dataset`] — presets "A" (ISP, V1) and "B" (IPTV, V2) with the
//!   paper's 12-week training + 2-week online windows;
//! * [`scenario`] — deterministic reconstructions of Table 2, Figures 4–5
//!   and the §6.1 dual-failure case study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod corpus;
pub mod dataset;
pub mod events;
pub mod faults;
pub mod grammar;
pub mod iofaults;
pub mod ip;
pub mod scenario;
pub mod topology;
pub mod workload;

pub use corpus::{Corpus, GOLDEN_SCALE, GOLDEN_SEEDS};
pub use dataset::{Dataset, DatasetSpec};
pub use events::{EventKind, EventSim, GtEvent};
pub use faults::{inject, FaultReport, FaultSpec};
pub use grammar::{poison_message, Grammar, GrammarTemplate, VarKind, POISON_MARKER};
pub use iofaults::{apply_fault, corrupt_file, StorageFault, STORAGE_FAULT_KINDS};
pub use topology::{TopoSpec, Topology};
pub use workload::{Workload, WorkloadSpec};
