//! Syslog message type ("error code") handling.
//!
//! The error code is the only semi-structured field in a raw router syslog
//! message. Its shape is vendor-specific:
//!
//! * vendor **V1** (Cisco-style): `FACILITY-<severity digit>-MNEMONIC`,
//!   e.g. `LINK-3-UPDOWN`, `SYS-1-CPURISINGTHRESHOLD`;
//! * vendor **V2** (ALU-style): `FACILITY-SEVERITYWORD-name`,
//!   e.g. `SNMP-WARNING-linkDown`, `SVCMGR-MAJOR-sapPortStateChangeProcessed`.
//!
//! The paper stresses that the vendor-assigned severity must **not** be used
//! for event ranking (§2); we still parse it so the severity-baseline ranker
//! and filtering-by-level can be implemented and compared against.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A message type / error code, stored verbatim.
///
/// Codes are compared byte-for-byte; [`Severity::of_code`] reads the
/// vendor severity out of a code's text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ErrorCode(pub String);

/// Vendor-assigned severity of a message, normalized across vendors.
///
/// V1 encodes severity as a digit 0..=7 (smaller = more severe, syslog
/// convention); V2 uses words. `rank()` maps both onto the V1 numeric scale
/// so they can be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Numeric severity level (vendor V1), 0 = emergency .. 7 = debug.
    Level(u8),
    /// `CRITICAL` (V2).
    Critical,
    /// `MAJOR` (V2).
    Major,
    /// `MINOR` (V2).
    Minor,
    /// `WARNING` (V2).
    Warning,
    /// `INFO` (V2).
    Info,
}

impl Severity {
    /// Severity on the numeric 0 (worst) .. 7 (chattiest) scale.
    pub fn rank(self) -> u8 {
        match self {
            Severity::Level(n) => n.min(7),
            Severity::Critical => 2,
            Severity::Major => 3,
            Severity::Minor => 4,
            Severity::Warning => 5,
            Severity::Info => 6,
        }
    }

    /// The vendor severity embedded in the middle segment of error code
    /// `code`, if recognized.
    pub fn of_code(code: &str) -> Option<Severity> {
        let mid = code.split('-').nth(1)?;
        if let Ok(n) = mid.parse::<u8>() {
            if n <= 7 {
                return Some(Severity::Level(n));
            }
            return None;
        }
        match mid {
            "CRITICAL" => Some(Severity::Critical),
            "MAJOR" => Some(Severity::Major),
            "MINOR" => Some(Severity::Minor),
            "WARNING" => Some(Severity::Warning),
            "INFO" => Some(Severity::Info),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Level(n) => write!(f, "{n}"),
            Severity::Critical => write!(f, "CRITICAL"),
            Severity::Major => write!(f, "MAJOR"),
            Severity::Minor => write!(f, "MINOR"),
            Severity::Warning => write!(f, "WARNING"),
            Severity::Info => write!(f, "INFO"),
        }
    }
}

impl ErrorCode {
    /// Build a vendor-V1 code `FACILITY-<level>-MNEMONIC`.
    pub fn v1(facility: &str, level: u8, mnemonic: &str) -> Self {
        ErrorCode(format!("{facility}-{level}-{mnemonic}"))
    }

    /// Build a vendor-V2 code `FACILITY-SEVERITYWORD-name`.
    pub fn v2(facility: &str, severity: &str, name: &str) -> Self {
        ErrorCode(format!("{facility}-{severity}-{name}"))
    }

    /// The raw code text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for ErrorCode {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ErrorCode {
    fn from(s: &str) -> Self {
        ErrorCode(s.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_code_decomposes() {
        let c = ErrorCode::v1("LINK", 3, "UPDOWN");
        assert_eq!(c.as_str(), "LINK-3-UPDOWN");
        assert_eq!(Severity::of_code(c.as_str()), Some(Severity::Level(3)));
    }

    #[test]
    fn v2_code_decomposes() {
        let c = ErrorCode::v2("SVCMGR", "MAJOR", "sapPortStateChangeProcessed");
        assert_eq!(Severity::of_code(c.as_str()), Some(Severity::Major));
        assert_eq!(Severity::of_code(c.as_str()).unwrap().rank(), 3);
    }

    #[test]
    fn severity_ranks_are_comparable_across_vendors() {
        // V1 level 1 (alert) is more severe than V2 MAJOR.
        assert!(Severity::Level(1).rank() < Severity::Major.rank());
        // V2 WARNING is less severe than V1 level 3 (error).
        assert!(Severity::Warning.rank() > Severity::Level(3).rank());
        // Out-of-range levels clamp.
        assert_eq!(Severity::Level(200).rank(), 7);
    }

    #[test]
    fn unknown_middle_segment_has_no_severity() {
        assert_eq!(Severity::of_code("SNMP-ODD-linkDown"), None);
        assert_eq!(Severity::of_code("SNMP-42-linkDown"), None);
        assert_eq!(Severity::of_code("PLAIN"), None);
    }
}
