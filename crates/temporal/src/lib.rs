//! # sd-temporal
//!
//! Temporal pattern mining for SyslogDigest: the per-series EWMA
//! interarrival model with `Smin`/`Smax` clamps (§4.1.3 / §4.2.1) and the
//! offline α/β calibration sweeps behind Figures 10–11 and Table 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod calibrate;
mod ewma;

pub use calibrate::{calibrate, compression_ratio, sweep_alpha, sweep_beta, SeriesSet};
pub use ewma::{count_groups, group_series, EwmaTracker, TemporalConfig};
