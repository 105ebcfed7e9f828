//! Minimal civil-time handling for syslog timestamps.
//!
//! Router syslogs in the paper carry second-granularity timestamps of the
//! form `2010-01-10 00:00:15`, with all router clocks NTP-synchronized.
//! We therefore model time as plain Unix seconds and provide exact
//! civil-date conversions (Howard Hinnant's `days_from_civil` algorithm)
//! so no external date crate is needed.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Seconds in one minute.
pub(crate) const MINUTE: i64 = 60;
/// Seconds in one hour.
pub(crate) const HOUR: i64 = 3600;
/// Seconds in one day.
pub const DAY: i64 = 86_400;
/// Seconds in one week.
pub const WEEK: i64 = 7 * DAY;

/// A second-granularity point in time (Unix seconds, UTC).
///
/// Ordering, arithmetic and formatting match what the paper's pipeline
/// needs: messages are sorted by timestamp, interarrival gaps are computed
/// by subtraction, and digests print `YYYY-MM-DD HH:MM:SS`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Construct from a civil date and time-of-day (UTC).
    ///
    /// `month` is 1..=12 and `day` 1..=31; out-of-range fields are the
    /// caller's bug and will simply produce the arithmetically shifted
    /// instant (same behaviour as `timegm`).
    pub fn from_ymd_hms(year: i32, month: u32, day: u32, h: u32, m: u32, s: u32) -> Self {
        let days = days_from_civil(year, month, day);
        Timestamp(days * DAY + i64::from(h) * HOUR + i64::from(m) * MINUTE + i64::from(s))
    }

    /// The civil `(year, month, day, hour, minute, second)` of this instant.
    pub fn to_civil(self) -> (i32, u32, u32, u32, u32, u32) {
        let days = self.0.div_euclid(DAY);
        let secs = self.0.rem_euclid(DAY);
        let (y, mo, d) = civil_from_days(days);
        let h = (secs / HOUR) as u32;
        let mi = ((secs % HOUR) / MINUTE) as u32;
        let s = (secs % MINUTE) as u32;
        (y, mo, d, h, mi, s)
    }

    /// Seconds elapsed since `earlier` (negative if `self` is earlier).
    pub fn seconds_since(self, earlier: Timestamp) -> i64 {
        self.0 - earlier.0
    }

    /// This instant shifted forward by `secs` seconds.
    #[must_use]
    pub fn plus(self, secs: i64) -> Timestamp {
        Timestamp(self.0 + secs)
    }

    /// The midnight at the start of this instant's civil day.
    pub fn start_of_day(self) -> Timestamp {
        Timestamp(self.0.div_euclid(DAY) * DAY)
    }

    /// Zero-based day index relative to `epoch_start` (used to bucket a
    /// multi-day run into per-day series, as in Figure 12).
    pub fn day_index(self, epoch_start: Timestamp) -> i64 {
        (self.0 - epoch_start.0).div_euclid(DAY)
    }

    /// Parse `YYYY-MM-DD HH:MM:SS`. Returns `None` on any malformation.
    pub fn parse(text: &str) -> Option<Self> {
        let (date, time) = text.trim().split_once(' ')?;
        Self::parse_fields(date, time)
    }

    /// Parse a `YYYY-MM-DD` date field and an `HH:MM:SS` time field
    /// given separately, with no trimming: [`Timestamp::parse`] of
    /// `text` is this function on the two halves of `text.trim()` around
    /// its first space.
    pub(crate) fn parse_fields(date: &str, time: &str) -> Option<Self> {
        let mut dit = date.split('-');
        let year: i32 = dit.next()?.parse().ok()?;
        let month: u32 = dit.next()?.parse().ok()?;
        let day: u32 = dit.next()?.parse().ok()?;
        if dit.next().is_some() {
            return None;
        }
        let mut tit = time.split(':');
        let h: u32 = tit.next()?.parse().ok()?;
        let m: u32 = tit.next()?.parse().ok()?;
        let s: u32 = tit.next()?.parse().ok()?;
        if tit.next().is_some() || month == 0 || month > 12 || day == 0 || day > 31 {
            return None;
        }
        if h > 23 || m > 59 || s > 59 {
            return None;
        }
        Some(Self::from_ymd_hms(year, month, day, h, m, s))
    }

    /// Parse exactly the canonical 19 bytes `YYYY-MM-DD HH:MM:SS` (ASCII
    /// digits, fixed width), digit by digit, with the range checks of
    /// [`Timestamp::parse_fields`]. `None` for any other spelling and for
    /// an out-of-range field; wherever this accepts, `parse_fields` of
    /// the two halves accepts with the same instant.
    pub(crate) fn parse_canonical(b: &[u8]) -> Option<Self> {
        let b: &[u8; 19] = b.try_into().ok()?;
        if b[4] != b'-' || b[7] != b'-' || b[10] != b' ' || b[13] != b':' || b[16] != b':' {
            return None;
        }
        let digit = |i: usize| {
            let d = b[i].wrapping_sub(b'0');
            (d < 10).then_some(u32::from(d))
        };
        let two = |i: usize| Some(digit(i)? * 10 + digit(i + 1)?);
        let year = two(0)? * 100 + two(2)?;
        let (month, day, h, m, s) = (two(5)?, two(8)?, two(11)?, two(14)?, two(17)?);
        if month == 0 || month > 12 || day == 0 || day > 31 || h > 23 || m > 59 || s > 59 {
            return None;
        }
        Some(Self::from_ymd_hms(year as i32, month, day, h, m, s))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi, s) = self.to_civil();
        write!(f, "{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }
}

/// Days from 1970-01-01 to the given civil date (proleptic Gregorian).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Timestamp::from_ymd_hms(1970, 1, 1, 0, 0, 0).0, 0);
    }

    #[test]
    fn paper_example_timestamp_roundtrips() {
        let ts = Timestamp::from_ymd_hms(2010, 1, 10, 0, 0, 15);
        assert_eq!(ts.to_string(), "2010-01-10 00:00:15");
        assert_eq!(Timestamp::parse("2010-01-10 00:00:15"), Some(ts));
    }

    #[test]
    fn civil_roundtrip_across_leap_years() {
        for &(y, m, d) in &[
            (2000, 2, 29),
            (2009, 12, 31),
            (2010, 1, 1),
            (1999, 3, 1),
            (2100, 2, 28),
            (1969, 12, 31),
        ] {
            let ts = Timestamp::from_ymd_hms(y, m, d, 23, 59, 59);
            let (yy, mm, dd, h, mi, s) = ts.to_civil();
            assert_eq!((yy, mm, dd, h, mi, s), (y, m, d, 23, 59, 59));
        }
    }

    #[test]
    fn day_arithmetic() {
        let start = Timestamp::from_ymd_hms(2009, 12, 1, 0, 0, 0);
        let later = Timestamp::from_ymd_hms(2009, 12, 3, 5, 0, 0);
        assert_eq!(later.day_index(start), 2);
        assert_eq!(
            later.start_of_day(),
            Timestamp::from_ymd_hms(2009, 12, 3, 0, 0, 0)
        );
        assert_eq!(later.seconds_since(start), 2 * DAY + 5 * HOUR);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "2010-01-10",
            "2010-01-10 00:00",
            "2010-13-10 00:00:15",
            "2010-01-32 00:00:15",
            "2010-01-10 24:00:15",
            "2010-01-10 00:61:15",
            "2010-01-10 00:00:75",
            "2010-01-10-2 00:00:00",
            "x010-01-10 00:00:15",
        ] {
            assert!(Timestamp::parse(bad).is_none(), "should reject {bad:?}");
        }
    }

    #[test]
    fn negative_times_before_epoch() {
        let ts = Timestamp::from_ymd_hms(1969, 12, 31, 23, 59, 59);
        assert_eq!(ts.0, -1);
        assert_eq!(ts.to_string(), "1969-12-31 23:59:59");
    }
}
