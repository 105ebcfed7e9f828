//! Raw syslog messages and their wire format.

use crate::fxhash::FxHasher;
use crate::time::Timestamp;
use serde::{de_field, DeError, Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;
use std::num::NonZeroU32;
use std::sync::Arc;

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
/// validated groups manually with domain experts). Every id but
/// `u32::MAX` can tag a message.
pub type GroundTruthId = u32;

/// One raw router syslog message (Table 1 fields).
///
/// Router, code and detail live in one shared text, `"router code
/// detail"`, with the router's and the code's byte lengths beside it
/// (`u16` each, so either is under 64 KiB) and the 4-byte ground-truth
/// tag: a message is 32 bytes, and the fields are read through
/// [`router`](Self::router), [`code`](Self::code),
/// [`detail`](Self::detail) and [`gt_event`](Self::gt_event). Because the
/// lengths delimit the fields, any field may hold spaces. Every
/// constructor takes the text from a bounded per-thread cache of recent
/// lines, so a line repeated while its text is still cached allocates
/// nothing and shares the first copy; cloning a message bumps a reference
/// count. Equality and every order compare the fields one by one, never
/// the joined text: a field holding a byte below space (`"r1\t"` against
/// `"r1"`) sorts differently from the text (see
/// [`canonical_cmp`](Self::canonical_cmp)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawMessage {
    /// NTP-synchronized generation time, 1 s granularity.
    pub ts: Timestamp,
    /// `router`, a space, `code`, a space, `detail`, from [`share`].
    text: Arc<str>,
    router_len: u16,
    code_len: u16,
    /// The ground-truth tag plus one, so that an untagged message (`None`)
    /// takes no more room than a tagged one.
    gt: Option<NonZeroU32>,
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
    /// The named field is 64 KiB or longer, more than a message stores.
    TooLong(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Blank => write!(f, "blank line"),
            ParseError::Missing(field) => write!(f, "truncated line: missing {field}"),
            ParseError::Empty(field) => write!(f, "empty {field} field"),
            ParseError::BadTimestamp => write!(f, "malformed timestamp"),
            ParseError::TooLong(field) => write!(f, "{field} field of 64 KiB or more"),
        }
    }
}

impl std::error::Error for ParseError {}

/// How many malformed lines a [`MalformedReport`] keeps verbatim.
pub(crate) const MALFORMED_SAMPLES: usize = 5;

/// The malformed lines of a feed: how many there were, and the first
/// `MALFORMED_SAMPLES` with line numbers and reasons, so operators see
/// *why* lines were rejected, not only how many.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MalformedReport {
    /// Non-blank lines that failed to parse.
    pub count: usize,
    /// First few `(1-based line number, reason)` pairs.
    pub samples: Vec<(usize, String)>,
}

impl MalformedReport {
    /// Count malformed line `line_no`, keeping it as a sample while fewer
    /// than `MALFORMED_SAMPLES` are kept.
    pub fn record(&mut self, line_no: usize, err: &ParseError) {
        self.count += 1;
        if self.samples.len() < MALFORMED_SAMPLES {
            self.samples.push((line_no, err.to_string()));
        }
    }
}

impl fmt::Display for MalformedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} malformed", self.count)?;
        if !self.samples.is_empty() {
            let shown: Vec<String> = self
                .samples
                .iter()
                .map(|(n, why)| format!("line {n}: {why}"))
                .collect();
            write!(f, " (first: {})", shown.join("; "))?;
        }
        Ok(())
    }
}

impl RawMessage {
    /// Construct a message with no ground-truth tag.
    ///
    /// # Panics
    /// If the router or the code is 64 KiB or longer.
    pub fn new(
        ts: Timestamp,
        router: impl AsRef<str>,
        code: impl AsRef<str>,
        detail: impl AsRef<str>,
    ) -> Self {
        let (router, code, detail) = (router.as_ref(), code.as_ref(), detail.as_ref());
        RawMessage::from_text(
            ts,
            share_joined(router, code, detail),
            router.len(),
            code.len(),
        )
    }

    /// A message over `text`, `"router code detail"`, whose router and
    /// code are `router_len` and `code_len` bytes long.
    fn from_text(ts: Timestamp, text: Arc<str>, router_len: usize, code_len: usize) -> Self {
        RawMessage {
            ts,
            text,
            router_len: u16::try_from(router_len).expect("router name under 64 KiB"),
            code_len: u16::try_from(code_len).expect("error code under 64 KiB"),
            gt: None,
        }
    }

    /// A message at `ts` with the fields [`split_fields`] found in `rest`,
    /// the line after its timestamp. When `rest` is already the joined
    /// text (a detail follows the code) it is shared in place; otherwise
    /// the fields are joined first.
    fn from_rest(ts: Timestamp, rest: &str, (router, code, detail): (&str, &str, &str)) -> Self {
        let text = if router.len() + code.len() + detail.len() + 2 == rest.len() {
            share(rest)
        } else {
            share_joined(router, code, detail)
        };
        RawMessage::from_text(ts, text, router.len(), code.len())
    }

    /// Name of the originating router.
    pub fn router(&self) -> &str {
        &self.text[..self.router_len as usize]
    }

    /// Message type / error code, as written; [`ErrorCode::from`] makes
    /// an owned [`ErrorCode`] of it.
    ///
    /// [`ErrorCode`]: crate::ErrorCode
    /// [`ErrorCode::from`]: crate::ErrorCode
    pub fn code(&self) -> &str {
        let start = self.router_len as usize + 1;
        &self.text[start..start + self.code_len as usize]
    }

    /// Free-form detailed message text.
    pub fn detail(&self) -> &str {
        &self.text[self.router_len as usize + self.code_len as usize + 2..]
    }

    /// Router, code and detail joined by single spaces: the line after its
    /// timestamp. With the lengths of [`router`](Self::router) and
    /// [`code`](Self::code) it determines all three fields, so it serves
    /// as one lookup key for them. Messages built from the same recent
    /// line share this text; messages whose fields split it differently
    /// (router `a b` and code `c`, router `a` and code `b c`) may share it
    /// too, and still compare unequal.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The canonical order of messages: by timestamp, then router, code
    /// and detail, each compared as a field, never the joined text.
    /// [`sort_batch`] and the reorder buffer both order by it, so a batch
    /// and a stream of the same distinct messages see one sequence. It
    /// ignores the ground-truth tag: messages equal under it carry the
    /// same line.
    pub fn canonical_cmp(&self, other: &Self) -> Ordering {
        self.ts
            .cmp(&other.ts)
            .then_with(|| self.router().cmp(other.router()))
            .then_with(|| self.code().cmp(other.code()))
            .then_with(|| self.detail().cmp(other.detail()))
    }

    /// Simulator-only ground-truth tag; `None` for messages parsed from
    /// text and for simulated background noise that belongs to no event.
    pub fn gt_event(&self) -> Option<GroundTruthId> {
        self.gt.map(|g| g.get() - 1)
    }

    /// Attach a ground-truth event id (builder style).
    ///
    /// # Panics
    /// If `gt` is `u32::MAX`.
    #[must_use]
    pub fn with_gt(mut self, gt: GroundTruthId) -> Self {
        self.gt = Some(tag(gt).expect("ground-truth id below u32::MAX"));
        self
    }

    /// Render the single-line wire format:
    /// `YYYY-MM-DD HH:MM:SS <router> <code> <detail...>`.
    ///
    /// Router names and error codes never contain whitespace, which makes
    /// the format unambiguous; the ground-truth tag is deliberately *not*
    /// serialized (it does not exist on the wire).
    pub fn to_line(&self) -> String {
        format!("{} {}", self.ts, self.text)
    }

    /// Parse the wire format produced by [`RawMessage::to_line`].
    ///
    /// Returns a structured [`ParseError`] for blank lines or lines that
    /// do not carry all four fields — callers decide whether that is an
    /// error or skippable noise, and can report *why* a line was bad.
    ///
    /// A line that starts with the canonical 20 bytes
    /// `YYYY-MM-DD HH:MM:SS ` (as `to_line` writes them) has its timestamp
    /// read in place and only router, code and detail split off; every
    /// other line takes the general path, which trims and splits the
    /// timestamp fields and gives the same result on canonical lines.
    pub fn parse_line(line: &str) -> Result<Self, ParseError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some(ts) = line
            .as_bytes()
            .get(..20)
            .filter(|b| b[19] == b' ')
            .and_then(|b| Timestamp::parse_canonical(&b[..19]))
        {
            let rest = &line[20..];
            return Ok(RawMessage::from_rest(ts, rest, split_fields(rest)?));
        }
        if line.trim().is_empty() {
            return Err(ParseError::Blank);
        }
        // Timestamp occupies the first two whitespace-separated fields.
        let mut parts = line.splitn(3, ' ');
        let date = parts.next().ok_or(ParseError::Missing("date"))?;
        let time = parts.next().ok_or(ParseError::Missing("time"))?;
        let rest = parts.next().ok_or(ParseError::Missing("router"))?;
        let fields = split_fields(rest)?;
        // Equal to `Timestamp::parse` of `"{date} {time}"`: its trim can
        // only reach the date's leading and the time's trailing whitespace.
        let ts = Timestamp::parse_fields(date.trim_start(), time.trim_end())
            .ok_or(ParseError::BadTimestamp)?;
        Ok(RawMessage::from_rest(ts, rest, fields))
    }
}

/// The persisted form is the map `{ts, router, code, detail, gt_event}`,
/// as it was while the fields were stored apart, so checkpoints keep
/// their bytes.
impl Serialize for RawMessage {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("ts".to_owned(), self.ts.to_value()),
            ("router".to_owned(), self.router().to_value()),
            ("code".to_owned(), self.code().to_value()),
            ("detail".to_owned(), self.detail().to_value()),
            ("gt_event".to_owned(), self.gt_event().to_value()),
        ])
    }
}

impl Deserialize for RawMessage {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let ts = de_field(v, "ts")?;
        let router = de_str(v, "router")?;
        let code = de_str(v, "code")?;
        let detail = de_str(v, "detail")?;
        for (name, field) in [("router", router), ("code", code)] {
            if u16::try_from(field.len()).is_err() {
                return Err(DeError(format!("`{name}` of 64 KiB or more")));
            }
        }
        let gt = de_field::<Option<GroundTruthId>>(v, "gt_event")?
            .map(|id| tag(id).ok_or_else(|| DeError(format!("`gt_event` {id} out of range"))))
            .transpose()?;
        Ok(RawMessage {
            gt,
            ..RawMessage::new(ts, router, code, detail)
        })
    }
}

/// How a message stores ground-truth id `id`: `None` for `u32::MAX`,
/// which no message can carry.
fn tag(id: GroundTruthId) -> Option<NonZeroU32> {
    NonZeroU32::new(id.wrapping_add(1))
}

/// String field `name` of map `v`, borrowed, with [`de_field`]'s errors.
fn de_str<'v>(v: &'v Value, name: &str) -> Result<&'v str, DeError> {
    match v.get_field(name) {
        Some(Value::Str(s)) => Ok(s),
        Some(other) => Err(DeError::unexpected("string", other)),
        None => Err(DeError(format!("missing field `{name}`"))),
    }
}

/// Slots in each thread's line cache.
const LINE_CACHE_SLOTS: usize = 4096;
/// Longest text the line cache keeps, in bytes.
const LINE_CACHE_MAX_TEXT: usize = 1024;

/// The texts of recent messages, so that a repeated line shares the text
/// of its first copy instead of allocating its own.
///
/// Direct-mapped: a text hashes to one slot, a hit clones the slot's
/// `Arc`, and a miss allocates the text and evicts what the slot held.
/// The table never probes or grows, so it holds at most its slot count of
/// texts of at most [`LINE_CACHE_MAX_TEXT`] bytes each; longer texts are
/// never kept. The hash is the unkeyed Fx: chosen colliding lines can
/// only force misses, and a miss costs the one allocation every line
/// would cost without the cache.
struct LineCache {
    slots: RefCell<Box<[Option<Arc<str>>]>>,
    /// Where [`share_joined`] joins fields, reused across messages; it
    /// holds any text the cache keeps without growing.
    join: RefCell<String>,
}

impl LineCache {
    /// An empty cache of `n` slots, a power of two.
    fn with_slots(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        LineCache {
            slots: RefCell::new(vec![None; n].into_boxed_slice()),
            join: RefCell::new(String::with_capacity(LINE_CACHE_MAX_TEXT)),
        }
    }

    /// `text` as the cached copy, or a new one that takes its slot.
    fn share(&self, text: &str) -> Arc<str> {
        if text.len() > LINE_CACHE_MAX_TEXT {
            return Arc::from(text);
        }
        let mut h = FxHasher::default();
        h.write(text.as_bytes());
        let mut slots = self.slots.borrow_mut();
        let mask = slots.len() - 1;
        let slot = &mut slots[h.finish() as usize & mask];
        match slot {
            Some(cached) if **cached == *text => Arc::clone(cached),
            _ => Arc::clone(slot.insert(Arc::from(text))),
        }
    }
}

thread_local! {
    static LINE_CACHE: LineCache = LineCache::with_slots(LINE_CACHE_SLOTS);
}

/// The one source of message text: `text` through this thread's
/// [`LineCache`], or an unshared copy while the thread tears down.
fn share(text: &str) -> Arc<str> {
    LINE_CACHE
        .try_with(|cache| cache.share(text))
        .unwrap_or_else(|_| Arc::from(text))
}

/// `"router code detail"`, joined in the line cache's reused buffer and
/// then [`share`]d. A text too long to cache is joined in its own buffer,
/// so the reused one stays small.
fn share_joined(router: &str, code: &str, detail: &str) -> Arc<str> {
    let join = |buf: &mut String| {
        buf.clear();
        buf.push_str(router);
        buf.push(' ');
        buf.push_str(code);
        buf.push(' ');
        buf.push_str(detail);
    };
    let len = router.len() + code.len() + detail.len() + 2;
    if len <= LINE_CACHE_MAX_TEXT {
        if let Ok(text) = LINE_CACHE.try_with(|cache| {
            let mut buf = cache.join.borrow_mut();
            join(&mut buf);
            share(&buf)
        }) {
            return text;
        }
    }
    let mut buf = String::with_capacity(len);
    join(&mut buf);
    share(&buf)
}

/// Split `<router> <code> <detail...>`, the part of a line after its
/// timestamp, and require a non-empty router and code, each under 64 KiB.
fn split_fields(rest: &str) -> Result<(&str, &str, &str), ParseError> {
    let mut parts = rest.splitn(3, ' ');
    let router = parts.next().unwrap_or("");
    let code = parts.next().ok_or(ParseError::Missing("code"))?;
    let detail = parts.next().unwrap_or("");
    if router.is_empty() {
        return Err(ParseError::Empty("router"));
    }
    if code.is_empty() {
        return Err(ParseError::Empty("code"));
    }
    // `RawMessage` stores the two lengths as `u16`.
    if u16::try_from(router.len()).is_err() {
        return Err(ParseError::TooLong("router"));
    }
    if u16::try_from(code.len()).is_err() {
        return Err(ParseError::TooLong("code"));
    }
    Ok((router, code, detail))
}

impl fmt::Display for RawMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Sort a batch of messages in place into the
/// [canonical order](RawMessage::canonical_cmp), ties broken by the
/// ground-truth tag.
///
/// All mining components assume time-ordered input; the secondary keys make
/// the order deterministic for equal timestamps so experiments are exactly
/// reproducible from a seed. The order is total: messages it ties are
/// equal, so the unstable sort, which allocates nothing, gives what a
/// stable one would, and a batch sorts the same whatever its file order.
pub fn sort_batch(batch: &mut [RawMessage]) {
    batch.sort_unstable_by(|a, b| a.canonical_cmp(b).then(a.gt.cmp(&b.gt)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorCode;
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
        Ok(RawMessage::new(ts, router, code, detail))
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
        // Fixed-width near-misses of the canonical prefix.
        "2010-01-10T00:00:15",
        "2010/01/10",
        "20100-01-10",
        "\u{ff12}\u{ff10}\u{ff11}\u{ff10}-01-10",
        "2010-01-1\u{ff10}",
        "2010-00-10",
        "0000-12-31",
    ];
    const TIMES: &[&str] = &[
        "00:00:15",
        "23:59:59",
        "24:00:00",
        "+0:00:15",
        "00:0+:15",
        "00:00",
        "",
        "r1",
        // Fixed-width near-misses of the canonical prefix.
        "00:00:15\t",
        "00:00:15 ",
        "00-00-15",
        "00:00:1\u{ff15}",
        "00:60:00",
        "000:00:15",
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
        "r1 ",
        "r1 LINK-3-UPDOWN",
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

    /// `DATE TIME rest…` with single spaces and no other whitespace, so
    /// every canonical date and time meets the in-place timestamp read.
    fn near_canonical_strategy() -> impl Strategy<Value = String> {
        (
            0..DATES.len(),
            0..TIMES.len(),
            proptest::collection::vec(0..PIECES.len(), 0..6),
        )
            .prop_map(|(d, t, rest)| {
                let rest: String = rest.iter().map(|&i| PIECES[i]).collect();
                format!("{} {} {rest}", DATES[d], TIMES[t])
            })
    }

    /// Messages `to_line` writes with a canonical timestamp: years 0000
    /// to 9999, router and code without spaces, and a detail of printable
    /// ASCII, tabs and a few non-ASCII characters.
    fn message_strategy() -> impl Strategy<Value = RawMessage> {
        let lo = Timestamp::from_ymd_hms(0, 1, 1, 0, 0, 0).0;
        let hi = Timestamp::from_ymd_hms(9999, 12, 31, 23, 59, 59).0;
        (
            lo..=hi,
            "[a-z0-9.-]{1,12}",
            "[A-Z0-9_-]{1,20}",
            "[ -~\t\u{a0}\u{e9}\u{3000}]{0,40}",
        )
            .prop_map(|(ts, router, code, detail)| {
                RawMessage::new(Timestamp(ts), router, ErrorCode(code), detail)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        #[test]
        fn parse_line_matches_reference_near_canonical(line in near_canonical_strategy()) {
            for (cut, _) in line.char_indices().chain([(line.len(), ' ')]) {
                let l = &line[..cut];
                prop_assert_eq!(RawMessage::parse_line(l), parse_line_reference(l), "line {:?}", l);
            }
        }

        #[test]
        fn to_line_parses_back_through_the_canonical_prefix(m in message_strategy()) {
            let line = m.to_line();
            let b = line.as_bytes();
            prop_assert_eq!(b[19], b' ');
            prop_assert_eq!(Timestamp::parse_canonical(&b[..19]), Some(m.ts));
            prop_assert_eq!(RawMessage::parse_line(&line), Ok(m));
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
            "2010-01-10T00:00:15 r1 C d",
            "2010/01/10 00:00:15 r1 C d",
            "20100-01-10 00:00:15 r1 C d",
            "\u{ff12}010-01-10 00:00:15 r1 C d",
            "2010-01-10 00:00:1\u{ff15} r1 C d",
            "2010-01-10 00:00:15\tr1 C d",
            "2010-01-10 00:00:15\t r1 C d",
            "2010-01-10 00:00:15  r1 C d",
            "2010-01-10 00:00:15 r1 ",
            "2010-01-10 00:00:15 ",
            "2010-01-10 00:00:15 r1 C",
            "2010-01-10 24:00:00 r1",
            "2010-01-10 24:00:00 r1 C d",
            "2010-01-32 00:00:00 r1 C d",
            "2010-01-10 00:00:15 r1 C d\r",
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
        assert_eq!(back.gt_event(), None);
    }

    /// Any field text, spaces, tabs and multibyte characters included.
    fn field() -> impl Strategy<Value = String> {
        "[ \ta-z0-9\u{e9}\u{3000}\u{1F600}]{0,12}"
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]
        #[test]
        fn fields_survive_new_and_serde(
            ts in i64::MIN..i64::MAX,
            router in field(),
            code in field(),
            detail in field(),
            tagged in prop::bool::ANY,
            gt in 0..u32::MAX,
        ) {
            let mut m = RawMessage::new(Timestamp(ts), &router, &code, &detail);
            if tagged {
                m = m.with_gt(gt);
            }
            prop_assert_eq!(m.gt_event(), tagged.then_some(gt));
            prop_assert_eq!(m.router(), router.as_str());
            prop_assert_eq!(m.code(), code.as_str());
            prop_assert_eq!(m.detail(), detail.as_str());
            prop_assert_eq!(m.text(), format!("{router} {code} {detail}"));
            let json = serde_json::to_string(&m).unwrap();
            let back: RawMessage = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back.router(), router.as_str());
            prop_assert_eq!(back.code(), code.as_str());
            prop_assert_eq!(back.detail(), detail.as_str());
            prop_assert_eq!(back, m);
        }
    }

    /// The persisted form is the five-field map, pinned so checkpoint
    /// bytes do not move between builds.
    #[test]
    fn message_persists_as_pinned_json() {
        let m = sample().with_gt(42);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(
            json,
            r#"{"ts":1263081615,"router":"r1","code":"LINEPROTO-5-UPDOWN","#.to_owned()
                + r#""detail":"Line protocol on Interface Serial13/0.10/20:0, changed "#
                + r#"state to down","gt_event":42}"#
        );
        assert_eq!(serde_json::from_str::<RawMessage>(&json).unwrap(), m);
        // A missing field is named.
        let err = serde_json::from_str::<RawMessage>(r#"{"ts":0,"router":"r1"}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `code`"), "{err}");
    }

    #[test]
    fn colliding_texts_each_come_back_as_their_own() {
        let cache = LineCache::with_slots(1);
        let a = cache.share("r1 C-1-X down");
        let b = cache.share("r2 C-1-X up");
        assert_eq!((&*a, &*b), ("r1 C-1-X down", "r2 C-1-X up"));
        // `b` evicted `a`: `a` comes back as a new copy, `b` as the cached one.
        let a2 = cache.share("r1 C-1-X down");
        assert_eq!(&*a2, "r1 C-1-X down");
        assert!(!Arc::ptr_eq(&a, &a2));
        assert!(Arc::ptr_eq(&a2, &cache.share("r1 C-1-X down")));
        // A text over the limit is never kept.
        let long = "x".repeat(LINE_CACHE_MAX_TEXT + 1);
        assert!(!Arc::ptr_eq(&cache.share(&long), &cache.share(&long)));
    }

    #[test]
    fn a_shared_text_keeps_each_message_s_fields() {
        let ts = Timestamp::from_ymd_hms(2010, 1, 10, 0, 0, 0);
        let ab = RawMessage::new(ts, "a b", "c", "d");
        let a = RawMessage::new(ts, "a", "b c", "d");
        assert!(Arc::ptr_eq(&ab.text, &a.text), "one text for both");
        assert_eq!((ab.router(), ab.code(), ab.detail()), ("a b", "c", "d"));
        assert_eq!((a.router(), a.code(), a.detail()), ("a", "b c", "d"));
        assert_ne!(ab, a);
        let mut batch = vec![ab.clone(), a.clone()];
        sort_batch(&mut batch);
        assert_eq!(batch, [a, ab]);
    }

    /// A router or code: no spaces, but tabs and multibyte characters.
    fn word() -> impl Strategy<Value = String> {
        "[\ta-z0-9\u{e9}\u{3000}\u{1F600}]{1,12}"
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]
        #[test]
        fn to_line_parses_back_twice_the_second_time_from_the_cache(
            ts in Timestamp::from_ymd_hms(0, 1, 1, 0, 0, 0).0
                ..=Timestamp::from_ymd_hms(9999, 12, 31, 23, 59, 59).0,
            router in word(),
            code in word(),
            detail in field(),
        ) {
            let m = RawMessage::new(Timestamp(ts), &router, &code, &detail);
            let line = m.to_line();
            let first = RawMessage::parse_line(&line).unwrap();
            let second = RawMessage::parse_line(&line).unwrap();
            prop_assert!(Arc::ptr_eq(&first.text, &second.text));
            prop_assert_eq!(&first, &m);
            prop_assert_eq!(second, m);
        }
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
    fn malformed_report_counts_every_line_and_samples_the_first() {
        let mut r = MalformedReport::default();
        for line_no in 1..=MALFORMED_SAMPLES + 2 {
            r.record(line_no, &ParseError::BadTimestamp);
        }
        assert_eq!(r.count, MALFORMED_SAMPLES + 2);
        assert_eq!(r.samples.len(), MALFORMED_SAMPLES);
        assert_eq!(r.samples[0], (1, "malformed timestamp".to_owned()));
        assert!(r.to_string().starts_with("7 malformed (first: line 1: "));
    }

    /// A router or a code up to 65,535 bytes fits the `u16` lengths; one
    /// byte more is `TooLong`, from `parse_line` and from serde alike.
    #[test]
    fn fields_under_64_kib_parse_and_longer_ones_are_too_long() {
        let max = "r".repeat(usize::from(u16::MAX));
        let over = "r".repeat(usize::from(u16::MAX) + 1);
        let line = |router: &str, code: &str| format!("2010-01-10 00:00:15 {router} {code} d");
        let m = RawMessage::parse_line(&line(&max, &max)).unwrap();
        assert_eq!((m.router(), m.code(), m.detail()), (&*max, &*max, "d"));
        assert_eq!(
            RawMessage::parse_line(&line(&over, "C")),
            Err(ParseError::TooLong("router"))
        );
        assert_eq!(
            RawMessage::parse_line(&line("r1", &over)),
            Err(ParseError::TooLong("code"))
        );
        assert_eq!(
            ParseError::TooLong("code").to_string(),
            "code field of 64 KiB or more"
        );
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<RawMessage>(&json).unwrap(), m);
        for (field, router, code) in [("router", &over, &max), ("code", &max, &over)] {
            let json = format!(
                r#"{{"ts":0,"router":"{router}","code":"{code}","detail":"d","gt_event":null}}"#
            );
            let err = serde_json::from_str::<RawMessage>(&json).unwrap_err();
            assert!(
                err.to_string().contains(&format!("`{field}` of 64 KiB")),
                "{err}"
            );
        }
    }

    /// Every id but `u32::MAX` tags a message and persists; a persisted
    /// id out of that range is an error, not a panic.
    #[test]
    fn ground_truth_ids_round_trip_up_to_the_largest_storable() {
        for id in [0, 1, u32::MAX - 1] {
            let m = sample().with_gt(id);
            assert_eq!(m.gt_event(), Some(id));
            let json = serde_json::to_string(&m).unwrap();
            assert_eq!(serde_json::from_str::<RawMessage>(&json).unwrap(), m);
        }
        let json = serde_json::to_string(&sample()).unwrap();
        for id in [u64::from(u32::MAX), u64::MAX] {
            let bad = json.replace(r#""gt_event":null"#, &format!(r#""gt_event":{id}"#));
            assert!(serde_json::from_str::<RawMessage>(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn empty_detail_is_allowed() {
        let line = "2010-01-10 00:00:15 r1 SYS-5-RESTART";
        let m = RawMessage::parse_line(line).unwrap();
        assert_eq!(m.detail(), "");
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
        assert_eq!(batch[0].router(), "r9");
        assert_eq!(batch[1].router(), "r1");
        assert_eq!(batch[1].code(), "A-1-X");
        assert_eq!(batch[2].code(), "B-1-X");
        assert_eq!(batch[3].router(), "r2");
    }
}
