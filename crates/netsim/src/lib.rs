//! # sd-netsim
//!
//! The synthetic-network substrate for the SyslogDigest reproduction. The
//! paper evaluates on proprietary syslog from two AT&T backbones; this
//! crate stands in for those networks end to end:
//!
//! * `topology` — routers with the full Figure 3 location hierarchy
//!   (slots, ports, physical and logical interfaces, bundles, controllers),
//!   links, BGP sessions, and an IPTV PIM overlay with protection paths;
//! * [`config`] — per-router configuration files, the location learner's
//!   only input;
//! * `grammar` — every message template the simulator can emit, doubling
//!   as the §5.2.1 ground truth;
//! * `events` — ground-truth network conditions and their multi-router
//!   syslog cascades, each message tagged with its event id;
//! * [`workload`] — Poisson event scheduling with heavy-tailed target
//!   selection, activation weeks and scheduled decorrelations;
//! * `dataset` — presets "A" (ISP, V1) and "B" (IPTV, V2) with the
//!   paper's 12-week training + 2-week online windows;
//! * `scenario` — deterministic reconstructions of Table 2 and
//!   Figures 4–5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod config;
mod corpus;
mod dataset;
mod events;
mod faults;
mod grammar;
mod iofaults;
mod ip;
mod scenario;
mod topology;
pub mod workload;

pub use corpus::{Corpus, GOLDEN_SCALE, GOLDEN_SEEDS};
pub use dataset::{Dataset, DatasetSpec};
pub use events::EventSim;
pub use faults::{inject, FaultSpec};
pub use grammar::{poison_message, Grammar, POISON_MARKER};
pub use iofaults::{apply_fault, StorageFault};
pub use scenario::{fig4_controller, fig5_tcp_badauth, toy_table2_messages, toy_topology};
pub use topology::{TopoSpec, Topology};
pub use workload::{Workload, WorkloadSpec};
