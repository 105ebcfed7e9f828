//! The golden-corpus regression gate: snapshot digests of streaming
//! digest runs over netsim corpora (~6 seeds × clean/bounded/hostile
//! fault presets), checked into `crates/conformance/golden/corpus.json`.
//!
//! Each entry pins an FNV-1a digest of the run's canonical event
//! partition (groups relabeled by their smallest member sequence), the
//! learned template set, and the mined rule set, plus the headline ingest
//! counters. Any behavioral change to learning, matching, grouping, the
//! reorder buffer, or fault handling moves at least one digest and fails
//! `validate_conformance` in CI; intentional changes are re-pinned with
//! `validate_conformance --bless`, whose diff the reviewer sees as a
//! one-file change alongside the code that caused it.

use sd_model::Fnv;
use sd_netsim::{inject, FaultSpec};
use sd_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use syslogdigest::StreamConfig;
use syslogdigest::{DomainKnowledge, GroupingConfig, NetworkEvent};
use syslogdigest::{FaultTolerantIngest, IngestStats};

/// Format version of the golden file.
pub const GOLDEN_VERSION: u32 = 1;

/// Fault variants pinned per seed, in file order.
pub const VARIANTS: [&str; 3] = ["clean", "bounded", "hostile"];

/// One pinned corpus run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenEntry {
    /// Dataset seed.
    pub(crate) seed: u64,
    /// Fault preset: `clean`, `bounded`, or `hostile`.
    pub(crate) variant: String,
    /// Feed lines after fault injection.
    pub n_lines: usize,
    /// Events the streaming digest emitted.
    pub n_events: usize,
    /// Late-dropped messages.
    pub n_late: usize,
    /// Absorbed duplicate messages.
    pub n_duplicate: usize,
    /// Unparseable lines skipped.
    pub n_malformed: usize,
    /// FNV-1a of the canonical event partition, hex.
    pub partition: String,
    /// FNV-1a of the learned template set (masked strings), hex.
    pub templates: String,
    /// FNV-1a of the mined rule set (ids + statistic bits), hex.
    pub rules: String,
}

/// The checked-in golden file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenFile {
    /// [`GOLDEN_VERSION`] at bless time.
    pub version: u32,
    /// Dataset scale factor the corpora were generated at.
    pub scale: f64,
    /// Reorder tolerance every run used.
    pub max_skew_secs: i64,
    /// All pinned runs, ordered by (seed, variant).
    pub entries: Vec<GoldenEntry>,
}

impl GoldenFile {
    /// Parse a golden file.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let f: GoldenFile = serde_json::from_str(text).map_err(|e| e.0)?;
        if f.version != GOLDEN_VERSION {
            return Err(format!(
                "golden file version {} but this binary expects {}",
                f.version, GOLDEN_VERSION
            ));
        }
        Ok(f)
    }

    /// Serialize for check-in.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("golden file serializes")
    }

    /// Find the pinned entry for `(seed, variant)`.
    pub fn find(&self, seed: u64, variant: &str) -> Option<&GoldenEntry> {
        self.entries
            .iter()
            .find(|e| e.seed == seed && e.variant == variant)
    }
}

/// Default on-disk location of the golden corpus (inside this crate).
pub fn default_golden_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/golden/corpus.json").to_owned()
}

/// `h`'s digest as the hex string stored in golden files.
fn hex(h: Fnv) -> String {
    format!("{:016x}", h.finish())
}

/// Canonical partition digest: each event's member sequence ids sorted,
/// groups sorted by smallest member, separators between groups. Two runs
/// digest equal iff they emitted the same partition of the same accepted
/// messages (sequence ids are assigned by the ingest layer in arrival
/// order, so they line up across runs of the same feed).
pub(crate) fn partition_digest(events: &[NetworkEvent]) -> String {
    let mut groups: Vec<Vec<usize>> = events
        .iter()
        .map(|e| {
            let mut m = e.message_idxs.clone();
            m.sort_unstable();
            m
        })
        .collect();
    groups.sort();
    let mut h = Fnv::default();
    for g in &groups {
        h.write_u64(g.len() as u64);
        for &i in g {
            h.write_u64(i as u64);
        }
        h.write(b"/");
    }
    hex(h)
}

/// Digest of the learned template set: the sorted masked strings.
pub(crate) fn template_digest(k: &DomainKnowledge) -> String {
    let mut masked: Vec<String> = k.templates.iter().map(|(_, t)| t.masked()).collect();
    masked.sort();
    let mut h = Fnv::default();
    for m in &masked {
        h.write(m.as_bytes());
        h.write(b"\n");
    }
    hex(h)
}

/// Digest of the mined rule set: directed ids plus the exact statistic
/// bits (support and confidence are deterministic integer divisions).
pub(crate) fn rule_digest(k: &DomainKnowledge) -> String {
    let mut h = Fnv::default();
    for r in k.rules.rules() {
        h.write_u64(r.x.0 as u64);
        h.write_u64(r.y.0 as u64);
        h.write_u64(r.support.to_bits());
        h.write_u64(r.confidence.to_bits());
    }
    hex(h)
}

/// Stream a feed through the fault-tolerant ingest layer.
pub(crate) fn run_feed(
    k: &DomainKnowledge,
    lines: &[String],
    max_skew_secs: i64,
) -> (Vec<NetworkEvent>, IngestStats) {
    let mut ing = FaultTolerantIngest::with_telemetry(
        k,
        GroupingConfig::default(),
        StreamConfig::default(),
        max_skew_secs,
        &Telemetry::disabled(),
    );
    let mut events = Vec::new();
    for line in lines {
        events.extend(ing.push_line(line));
    }
    let (rest, stats) = ing.finish();
    events.extend(rest);
    (events, stats)
}

/// Compute the golden entry for one `(seed, variant)` corpus run.
pub fn compute_entry(
    k: &DomainKnowledge,
    online: &[sd_model::RawMessage],
    seed: u64,
    variant: &str,
    max_skew_secs: i64,
) -> GoldenEntry {
    let spec = FaultSpec::preset(variant, seed)
        .unwrap_or_else(|| panic!("unknown golden variant {variant:?}"));
    let (lines, _report) = inject(online, &spec);
    let (events, stats) = run_feed(k, &lines, max_skew_secs);
    GoldenEntry {
        seed,
        variant: variant.to_owned(),
        n_lines: lines.len(),
        n_events: events.len(),
        n_late: stats.n_late,
        n_duplicate: stats.n_duplicate,
        n_malformed: stats.n_malformed,
        partition: partition_digest(&events),
        templates: template_digest(k),
        rules: rule_digest(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_file_roundtrips() {
        let f = GoldenFile {
            version: GOLDEN_VERSION,
            scale: 0.05,
            max_skew_secs: 30,
            entries: vec![GoldenEntry {
                seed: 1,
                variant: "clean".into(),
                n_lines: 10,
                n_events: 2,
                n_late: 0,
                n_duplicate: 0,
                n_malformed: 0,
                partition: "00ff".into(),
                templates: "aa".into(),
                rules: "bb".into(),
            }],
        };
        let back = GoldenFile::from_json(&f.to_json()).unwrap();
        assert_eq!(back, f);
        assert!(back.find(1, "clean").is_some());
        assert!(back.find(1, "hostile").is_none());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let f = GoldenFile {
            version: GOLDEN_VERSION + 1,
            scale: 0.05,
            max_skew_secs: 30,
            entries: Vec::new(),
        };
        assert!(GoldenFile::from_json(&f.to_json()).is_err());
    }
}
