//! # sd-telemetry
//!
//! The unified observability layer of SyslogDigest: the digester is an
//! operator-facing system (§6 of the paper deploys it on two tier-1
//! networks), so the pipeline itself must be inspectable. This crate is
//! deliberately **dependency-free** (std only) and holds counters, spans
//! and their exposition, all cheap enough to leave compiled into the hot
//! path:
//!
//! * [`Telemetry`] — a cloneable handle bundling an atomic
//!   [`Counter`] registry and hierarchical [`SpanHandle`] timers.
//!   There is no process-wide handle: library code takes a handle (or
//!   constructs a disabled one) and binaries create their own. A
//!   [`Telemetry::disabled`] handle costs nothing — span
//!   timing is skipped entirely and counters degrade to detached atomics
//!   (they still count, so stats views stay correct; they just are not
//!   exported).
//! * [`Snapshot`] / [`Snapshot::to_prometheus`] — a point-in-time dump
//!   of every registered counter and span, and its rendering in the
//!   Prometheus text exposition format (`--metrics-out`).
//!   [`validate_exposition`] is the line-format checker CI runs against
//!   emitted files.
//!
//! JSON output lives with its callers, encoded by the vendored
//! `serde_json`: `--trace` provenance records in the core crate
//! (`EventProvenance::to_json`), `--log-format` diagnostics and the JSONL
//! sidecars in the CLI.
//!
//! Telemetry is strictly *observational*: attaching a handle, enabling
//! tracing, or changing thread counts never changes any digest output —
//! the workspace's neutrality tests assert byte-identical results with
//! telemetry on and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod prometheus;
mod registry;

pub use prometheus::validate_exposition;
pub use registry::{Counter, Snapshot, SpanHandle, Telemetry};
