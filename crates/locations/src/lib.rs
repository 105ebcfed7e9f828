//! # sd-locations
//!
//! Location knowledge for SyslogDigest (§4.1.2): parse router configs into
//! a [`LocationDictionary`] holding the Figure 3 hierarchy (router → slot →
//! port → physical interface → logical interface, plus bundles and LSP
//! paths), interface↔IP mappings and cross-router link relationships;
//! then [`extract()`] verified locations from live messages and answer the
//! §4.2 *spatial matching* and cross-router relatedness queries the
//! grouping stages rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dict;
mod extract;
mod names;
mod parse;

pub use dict::LocationDictionary;
pub use extract::{extract, extract_with};
pub use names::{parse_iface_name, parse_ip_token};
pub use parse::parse_config;
