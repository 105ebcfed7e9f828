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

pub mod augmented;
pub mod errorcode;
pub mod fnv;
pub mod fxhash;
pub mod intern;
pub mod message;
pub mod par;
pub mod sorted_map;
pub mod time;
pub mod tokens;

pub use augmented::{LocationId, LocationLevel, RouterId, SyslogPlus, TemplateId};
pub use errorcode::{ErrorCode, Severity};
pub use fnv::Fnv;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::Interner;
pub use message::{sort_batch, GroundTruthId, MalformedReport, ParseError, RawMessage, Vendor};
pub use par::{catch_panic, par_chunks, par_chunks_isolated, par_map, Parallelism};
pub use sorted_map::SortedMap;
pub use time::{Timestamp, DAY, HOUR, MINUTE, WEEK};
pub use tokens::TokenScratch;
