//! # sd-rules
//!
//! Association-rule mining over syslog template streams (§4.1.4): per-router
//! sliding-window [`transactions::CoOccurrence`] counting, pairwise
//! support/confidence [`mine()`]-ing into a [`RuleSet`], and the weekly
//! conservative add/delete [`RuleBase`] maintenance behind Figures 8–9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod mine;
mod transactions;
mod update;

pub use mine::{coverage, mine, MineConfig, Rule, RuleSet};
pub use transactions::{CoOccurrence, StreamItem};
pub use update::{RuleBase, UpdateStats};
