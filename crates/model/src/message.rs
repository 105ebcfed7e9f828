//! Raw syslog messages and their wire format.

use crate::errorcode::ErrorCode;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Router vendor family, as in Table 1 of the paper.
///
/// The two operational networks studied use different vendors with very
/// different message grammars; everything downstream of parsing is
/// vendor-independent (that is the point of the system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// Cisco-style: numeric severities, `Interface X, changed state to down`.
    V1,
    /// ALU-style: word severities, `Interface X is not operational`.
    V2,
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vendor::V1 => write!(f, "V1"),
            Vendor::V2 => write!(f, "V2"),
        }
    }
}

/// Identifier of a ground-truth network condition in the simulator.
///
/// Real syslog obviously has no such field; the generator attaches it so
/// the reproduction can score grouping quality quantitatively (the paper
/// validated groups manually with domain experts).
pub type GroundTruthId = u64;

/// One raw router syslog message (Table 1 fields).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawMessage {
    /// NTP-synchronized generation time, 1 s granularity.
    pub ts: Timestamp,
    /// Name of the originating router.
    pub router: String,
    /// Message type / error code.
    pub code: ErrorCode,
    /// Free-form detailed message text.
    pub detail: String,
    /// Simulator-only ground-truth tag; `None` for messages parsed from text
    /// and for simulated background noise that belongs to no event.
    pub gt_event: Option<GroundTruthId>,
}

/// Why a wire-format line failed to parse (see [`RawMessage::parse_line`]).
///
/// Real feeds truncate and garble lines (UDP loss, relay restarts, disk
/// corruption); callers need to know *what* was wrong — to report the
/// first few offenders with line numbers — without the parser allocating
/// an error message per good line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParseError {
    /// The line is empty or whitespace-only (skippable, not corruption).
    Blank,
    /// The line ended before the named field.
    Missing(&'static str),
    /// The named field was present but empty.
    Empty(&'static str),
    /// The first two fields do not form a `YYYY-MM-DD HH:MM:SS` timestamp.
    BadTimestamp,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Blank => write!(f, "blank line"),
            ParseError::Missing(field) => write!(f, "truncated line: missing {field}"),
            ParseError::Empty(field) => write!(f, "empty {field} field"),
            ParseError::BadTimestamp => write!(f, "malformed timestamp"),
        }
    }
}

impl std::error::Error for ParseError {}

impl RawMessage {
    /// Construct a message with no ground-truth tag.
    pub fn new(
        ts: Timestamp,
        router: impl Into<String>,
        code: ErrorCode,
        detail: impl Into<String>,
    ) -> Self {
        RawMessage {
            ts,
            router: router.into(),
            code,
            detail: detail.into(),
            gt_event: None,
        }
    }

    /// Attach a ground-truth event id (builder style).
    #[must_use]
    pub fn with_gt(mut self, gt: GroundTruthId) -> Self {
        self.gt_event = Some(gt);
        self
    }

    /// Render the single-line wire format:
    /// `YYYY-MM-DD HH:MM:SS <router> <code> <detail...>`.
    ///
    /// Router names and error codes never contain whitespace, which makes
    /// the format unambiguous; the ground-truth tag is deliberately *not*
    /// serialized (it does not exist on the wire).
    pub fn to_line(&self) -> String {
        format!("{} {} {} {}", self.ts, self.router, self.code, self.detail)
    }

    /// Parse the wire format produced by [`RawMessage::to_line`].
    ///
    /// Returns a structured [`ParseError`] for blank lines or lines that
    /// do not carry all four fields — callers decide whether that is an
    /// error or skippable noise, and can report *why* a line was bad.
    pub fn parse_line(line: &str) -> Result<Self, ParseError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.trim().is_empty() {
            return Err(ParseError::Blank);
        }
        // Timestamp occupies the first two whitespace-separated fields.
        let mut parts = line.splitn(5, ' ');
        let date = parts.next().ok_or(ParseError::Missing("date"))?;
        let time = parts.next().ok_or(ParseError::Missing("time"))?;
        let router = parts.next().ok_or(ParseError::Missing("router"))?;
        let code = parts.next().ok_or(ParseError::Missing("code"))?;
        let detail = parts.next().unwrap_or("");
        if router.is_empty() {
            return Err(ParseError::Empty("router"));
        }
        if code.is_empty() {
            return Err(ParseError::Empty("code"));
        }
        // Equal to `Timestamp::parse` of `"{date} {time}"`: its trim can
        // only reach the date's leading and the time's trailing whitespace.
        let ts = Timestamp::parse_fields(date.trim_start(), time.trim_end())
            .ok_or(ParseError::BadTimestamp)?;
        Ok(RawMessage {
            ts,
            router: router.to_owned(),
            code: ErrorCode::from(code),
            detail: detail.to_owned(),
            gt_event: None,
        })
    }
}

impl fmt::Display for RawMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Sort a batch of messages by `(timestamp, router, code)`.
///
/// All mining components assume time-ordered input; the secondary keys make
/// the order deterministic for equal timestamps so experiments are exactly
/// reproducible from a seed.
pub fn sort_batch(batch: &mut [RawMessage]) {
    batch.sort_by(|a, b| {
        a.ts.cmp(&b.ts)
            .then_with(|| a.router.cmp(&b.router))
            .then_with(|| a.code.cmp(&b.code))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `parse_line` as it was before it parsed the timestamp fields in
    /// place: the reference the rewritten parser must agree with.
    fn parse_line_reference(line: &str) -> Result<RawMessage, ParseError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.trim().is_empty() {
            return Err(ParseError::Blank);
        }
        let mut parts = line.splitn(5, ' ');
        let date = parts.next().ok_or(ParseError::Missing("date"))?;
        let time = parts.next().ok_or(ParseError::Missing("time"))?;
        let router = parts.next().ok_or(ParseError::Missing("router"))?;
        let code = parts.next().ok_or(ParseError::Missing("code"))?;
        let detail = parts.next().unwrap_or("");
        if router.is_empty() {
            return Err(ParseError::Empty("router"));
        }
        if code.is_empty() {
            return Err(ParseError::Empty("code"));
        }
        let ts =
            timestamp_parse_reference(&format!("{date} {time}")).ok_or(ParseError::BadTimestamp)?;
        Ok(RawMessage {
            ts,
            router: router.to_owned(),
            code: ErrorCode::from(code),
            detail: detail.to_owned(),
            gt_event: None,
        })
    }

    /// `Timestamp::parse` as it was before `parse_fields` was split out.
    fn timestamp_parse_reference(text: &str) -> Option<Timestamp> {
        let text = text.trim();
        let (date, time) = text.split_once(' ')?;
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
        Some(Timestamp::from_ymd_hms(year, month, day, h, m, s))
    }

    /// Whitespace a field can carry around it, Unicode included.
    const WS: &[&str] = &[
        "", "", " ", "\t", "\r", "\n", "\u{b}", "\u{a0}", "\u{3000}", "\u{2028}", " \t",
    ];
    /// Date and time spellings near the accept/reject boundary.
    const DATES: &[&str] = &[
        "2010-01-10",
        "2010-1-9",
        "+2010-01-10",
        "+010-01-10",
        "2010-13-10",
        "2010-01-+1",
        "2010-01-1x",
        "2010-01",
        "",
        "r1",
    ];
    const TIMES: &[&str] = &[
        "00:00:15", "23:59:59", "24:00:00", "+0:00:15", "00:0+:15", "00:00", "", "r1",
    ];
    /// Field-ish and whitespace-ish pieces for the rest of a line.
    const PIECES: &[&str] = &[
        "r1",
        "LINK-3-UPDOWN",
        "detail",
        " ",
        " ",
        " ",
        "\t",
        "\r",
        "\n",
        "\u{a0}",
        "\u{3000}",
        "-",
        ":",
        "7",
    ];

    /// `<ws>DATE<ws> <ws>TIME<ws> rest…`, with each part drawn from the
    /// tables above, so leading, trailing and Unicode whitespace meet
    /// every date and time spelling.
    fn line_strategy() -> impl Strategy<Value = String> {
        (
            (0..WS.len(), 0..DATES.len(), 0..WS.len()),
            (0..WS.len(), 0..TIMES.len(), 0..WS.len()),
            (
                proptest::collection::vec(0..PIECES.len(), 0..10),
                "[ -~]{0,6}",
            ),
        )
            .prop_map(|((w0, d, w1), (w2, t, w3), (rest, junk))| {
                let rest: String = rest.iter().map(|&i| PIECES[i]).collect();
                format!(
                    "{}{}{} {}{}{} {rest}{junk}",
                    WS[w0], DATES[d], WS[w1], WS[w2], TIMES[t], WS[w3]
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        #[test]
        fn parse_line_matches_reference(line in line_strategy()) {
            // The whole line and every prefix ending on a char boundary
            // (truncated lines).
            for (cut, _) in line.char_indices().chain([(line.len(), ' ')]) {
                let l = &line[..cut];
                prop_assert_eq!(RawMessage::parse_line(l), parse_line_reference(l), "line {:?}", l);
            }
        }
    }

    #[test]
    fn parse_line_matches_reference_on_edge_cases() {
        for line in [
            "2010-01-10 00:00:15 r1 C-1-X detail",
            "\t2010-01-10 00:00:15 r1 C-1-X detail",
            "\u{3000}2010-01-10 00:00:15\t r1 C-1-X",
            "2010-01-10 00:00:15\u{a0} r1 C-1-X d\r\n",
            "2010-01-10\t 00:00:15 r1 C-1-X d",
            "2010-01-10 \t00:00:15 r1 C-1-X d",
            " 2010-01-10 00:00:15 r1 C-1-X d",
            "2010-01-10  00:00:15 r1 C-1-X d",
            "\t 00:00:15 r1 C-1-X d",
            "2010-01-10 \t r1 C-1-X d",
            "2010-01-10 00:00:15  C-1-X d",
            "2010-01-10 00:00:15 r1  d",
            "2010-01-10 00:00:15 r1 C-1-X",
            "2010-01-10 00:00:15 r1",
            "2010-01-10 00:00:15",
            "2010-01-10",
            "+2010-+1-+9 +0:+0:+0 r1 C d",
            "2010-01-10 00:00:60 r1 C d",
            "+010-01-10 00:00:15 r1 C d",
            "2010-01-10 00:0+:15 r1 C d",
            "2010-01-1x 00:00:15 r1 C d",
            "0000-00-00 00:00:00 r1 C d",
            "9999-12-31 23:59:59 r1 C d",
            "2010-02-31 00:00:00 r1 C d",
            "\r\n",
            " \u{3000} ",
        ] {
            assert_eq!(
                RawMessage::parse_line(line),
                parse_line_reference(line),
                "line {line:?}"
            );
        }
    }

    fn sample() -> RawMessage {
        RawMessage::new(
            Timestamp::from_ymd_hms(2010, 1, 10, 0, 0, 15),
            "r1",
            ErrorCode::v1("LINEPROTO", 5, "UPDOWN"),
            "Line protocol on Interface Serial13/0.10/20:0, changed state to down",
        )
    }

    #[test]
    fn wire_roundtrip() {
        let m = sample();
        let line = m.to_line();
        assert_eq!(
            line,
            "2010-01-10 00:00:15 r1 LINEPROTO-5-UPDOWN Line protocol on Interface \
             Serial13/0.10/20:0, changed state to down"
        );
        let back = RawMessage::parse_line(&line).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn gt_tag_is_not_serialized_to_wire() {
        let m = sample().with_gt(42);
        let back = RawMessage::parse_line(&m.to_line()).unwrap();
        assert_eq!(back.gt_event, None);
    }

    #[test]
    fn parse_rejects_garbage_with_reasons() {
        assert_eq!(RawMessage::parse_line(""), Err(ParseError::Blank));
        assert_eq!(RawMessage::parse_line("   \n"), Err(ParseError::Blank));
        assert_eq!(
            RawMessage::parse_line("2010-01-10 00:00:15 r1"),
            Err(ParseError::Missing("code"))
        );
        assert_eq!(
            RawMessage::parse_line("2010-01-10"),
            Err(ParseError::Missing("time"))
        );
        assert_eq!(
            RawMessage::parse_line("not a timestamp r1 CODE detail"),
            Err(ParseError::BadTimestamp)
        );
        // Errors render as human-readable reasons for malformed-line reports.
        assert_eq!(
            ParseError::Missing("code").to_string(),
            "truncated line: missing code"
        );
        assert_eq!(ParseError::BadTimestamp.to_string(), "malformed timestamp");
    }

    #[test]
    fn empty_detail_is_allowed() {
        let line = "2010-01-10 00:00:15 r1 SYS-5-RESTART";
        let m = RawMessage::parse_line(line).unwrap();
        assert_eq!(m.detail, "");
    }

    #[test]
    fn sort_is_deterministic() {
        let t = Timestamp::from_ymd_hms(2010, 1, 10, 0, 0, 0);
        let mut batch = vec![
            RawMessage::new(t, "r2", ErrorCode::from("B-1-X"), "x"),
            RawMessage::new(t, "r1", ErrorCode::from("B-1-X"), "x"),
            RawMessage::new(t.plus(-5), "r9", ErrorCode::from("A-1-X"), "x"),
            RawMessage::new(t, "r1", ErrorCode::from("A-1-X"), "x"),
        ];
        sort_batch(&mut batch);
        assert_eq!(batch[0].router, "r9");
        assert_eq!(batch[1].router, "r1");
        assert_eq!(batch[1].code.as_str(), "A-1-X");
        assert_eq!(batch[2].code.as_str(), "B-1-X");
        assert_eq!(batch[3].router, "r2");
    }
}
