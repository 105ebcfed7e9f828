//! # sd-model
//!
//! Shared data model for the SyslogDigest reproduction: second-granularity
//! [`Timestamp`]s, vendor-specific [`ErrorCode`]s, raw [`RawMessage`]s and
//! their wire format, the augmented [`SyslogPlus`] form, and the dense id
//! types ([`RouterId`], [`TemplateId`], [`LocationId`]) minted by the
//! learning components.
//!
//! Everything here is deliberately free of mining logic — it is the
//! vocabulary the other crates speak.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod augmented;
mod errorcode;
mod fnv;
mod fxhash;
mod intern;
mod message;
pub mod par;
mod time;
mod tokens;

pub use augmented::{LocationId, LocationLevel, RouterId, SyslogPlus, TemplateId};
pub use errorcode::{ErrorCode, Severity};
pub use fnv::Fnv;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::Interner;
pub use message::{sort_batch, GroundTruthId, MalformedReport, ParseError, RawMessage, Vendor};
pub use par::{catch_panic, Parallelism};
pub use time::{Timestamp, DAY, WEEK};
pub use tokens::TokenScratch;
