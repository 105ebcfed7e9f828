//! # sd-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! SyslogDigest paper against the synthetic substrate. Each experiment is
//! a binary (`cargo run --release -p sd-bench --bin exp_<id>`) built on
//! the shared [`ctx::Ctx`]; `run_all` executes the complete evaluation.
//! The `validate_conformance` and `validate_telemetry` binaries are CI
//! gates. Throughput is measured by the end-to-end benchmark in
//! `e2ebench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod experiments;
