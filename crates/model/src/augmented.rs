//! Augmented messages ("Syslog+") and the shared id types that the
//! template/location learners mint.

use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Dense id of a learned message template (minted by the template learner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TemplateId(pub u32);

/// Dense id of an interned router name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouterId(pub u32);

/// Dense id of a location in the location dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LocationId(pub u32);

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for LocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Level of a location in the Figure 3 hierarchy.
///
/// `depth()` grows downwards from the router; prioritization weighs an
/// event at a *higher* level (smaller depth) more heavily, one order of
/// magnitude per level (§4.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LocationLevel {
    /// The router chassis itself.
    Router,
    /// A slot / linecard.
    Slot,
    /// A physical port on a linecard.
    Port,
    /// A physical layer-3 interface.
    PhysInterface,
    /// A logical layer-3 (sub-)interface.
    LogInterface,
    /// A logical multilink / bundle aggregating physical interfaces.
    Bundle,
    /// A cross-router path object (link, BGP session, tunnel).
    Path,
}

impl LocationLevel {
    /// Depth below the router in the physical hierarchy.
    ///
    /// Logical objects are assigned the depth of the physical level they
    /// aggregate to: a bundle behaves like a physical interface, a path
    /// spans routers and therefore sits just below the router level.
    pub fn depth(self) -> u8 {
        match self {
            LocationLevel::Router => 0,
            LocationLevel::Path => 1,
            LocationLevel::Slot => 1,
            LocationLevel::Port => 2,
            LocationLevel::PhysInterface | LocationLevel::Bundle => 3,
            LocationLevel::LogInterface => 4,
        }
    }

    /// The §4.2.4 importance weight: ×10 per level above the deepest.
    pub fn weight(self) -> f64 {
        let max_depth = LocationLevel::LogInterface.depth();
        10f64.powi(i32::from(max_depth - self.depth()))
    }
}

impl fmt::Display for LocationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LocationLevel::Router => "router",
            LocationLevel::Slot => "slot",
            LocationLevel::Port => "port",
            LocationLevel::PhysInterface => "interface",
            LocationLevel::LogInterface => "subinterface",
            LocationLevel::Bundle => "bundle",
            LocationLevel::Path => "path",
        };
        f.write_str(s)
    }
}

/// A Syslog+ message: a raw message augmented with its learned template and
/// parsed locations (§3.1 step 3).
///
/// It references the raw batch by index instead of owning the text, so the
/// online pipeline never copies message bodies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyslogPlus {
    /// Index of the raw message in its batch.
    pub idx: usize,
    /// Timestamp copied out of the raw message (hot field for grouping).
    pub ts: Timestamp,
    /// Interned originating router.
    pub router: RouterId,
    /// Matched template, or `None` when no learned template matches
    /// (unmatched messages fall back to per-error-code handling).
    pub template: Option<TemplateId>,
    /// Locations extracted from the message and verified against the
    /// dictionary, most specific first. Shared: repeats of one line point
    /// at one slice, so augmenting a repeat allocates nothing.
    pub locations: Arc<[LocationId]>,
}

impl SyslogPlus {
    /// The primary (most specific) location, if any was extracted.
    pub fn primary_location(&self) -> Option<LocationId> {
        self.locations.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_scale_by_ten_per_level() {
        assert_eq!(LocationLevel::LogInterface.weight(), 1.0);
        assert_eq!(LocationLevel::PhysInterface.weight(), 10.0);
        assert_eq!(LocationLevel::Bundle.weight(), 10.0);
        assert_eq!(LocationLevel::Port.weight(), 100.0);
        assert_eq!(LocationLevel::Slot.weight(), 1_000.0);
        assert_eq!(LocationLevel::Path.weight(), 1_000.0);
        assert_eq!(LocationLevel::Router.weight(), 10_000.0);
    }

    #[test]
    fn router_outranks_everything() {
        for lvl in [
            LocationLevel::Slot,
            LocationLevel::Port,
            LocationLevel::PhysInterface,
            LocationLevel::LogInterface,
            LocationLevel::Bundle,
            LocationLevel::Path,
        ] {
            assert!(LocationLevel::Router.weight() > lvl.weight(), "{lvl}");
        }
    }

    #[test]
    fn primary_location_is_first() {
        let sp = SyslogPlus {
            idx: 0,
            ts: Timestamp(0),
            router: RouterId(1),
            template: Some(TemplateId(7)),
            locations: Arc::from([LocationId(5), LocationId(2)]),
        };
        assert_eq!(sp.primary_location(), Some(LocationId(5)));
    }
}
