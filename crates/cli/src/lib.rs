//! # sd-cli
//!
//! Library backing the `sdigest` command-line tool. All subcommand logic
//! lives here (testable without spawning processes); `main.rs` only parses
//! `std::env::args` and dispatches.
//!
//! ```text
//! sdigest generate --dataset A --scale 0.2 --out corpus/
//! sdigest learn    --configs corpus/configs --log corpus/syslog.log \
//!                  --profile A --out knowledge.json
//! sdigest digest   --knowledge knowledge.json --log corpus/syslog.log --top 20
//! sdigest stats    --log corpus/syslog.log
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod args;
mod commands;
mod output;

pub use args::Parsed;
pub use commands::{dispatch, usage};
pub use output::LogFormat;
