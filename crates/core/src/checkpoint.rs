//! Versioned checkpoint/restore for the streaming digester.
//!
//! A long-running `sdigest digest --stream` process must survive being
//! killed: on restart it should continue from where it stopped without
//! re-reading the whole feed and without losing or duplicating events.
//! This module defines the on-disk snapshot format:
//!
//! * [`StreamSnapshot`] — a self-describing JSON document carrying a
//!   **format version** ([`SNAPSHOT_VERSION`]), a **knowledge
//!   fingerprint** (see [`DomainKnowledge::fingerprint`]) and the complete
//!   mutable state of the digester (plus, when checkpointed through the
//!   ingest layer, the reorder buffer).
//! * [`StreamSnapshot::save`] wraps the JSON in the checksummed
//!   [`envelope`](crate::envelope) and writes atomically (temp file +
//!   rename), so a crash mid-write can never leave a truncated snapshot
//!   where a good one used to be — and any truncation or bit flip that
//!   slips through is caught at load time as a typed
//!   [`EnvelopeError`] rather than a panic or silent misdecode.
//! * [`StreamSnapshot::save_rotated`] keeps the last `keep` generations
//!   (`run.ckpt` → `run.ckpt.1` → …) and
//!   [`StreamSnapshot::recover_last_good`] scans them newest-first on
//!   resume, falling back past damaged generations and reporting how far
//!   it rolled back in a [`RecoveryReport`]. With checkpoints taken
//!   every *N* lines, a kill at any byte of any write loses at most one
//!   checkpoint interval.
//! * [`StreamSnapshot::from_json`] / [`StreamSnapshot::load`] check the
//!   version field *before* decoding the body, so a snapshot produced by
//!   a future incompatible build fails with
//!   [`CheckpointError::Version`] rather than a confusing parse error,
//!   and [`StreamSnapshot::verify`] refuses to resume against a different
//!   knowledge base ([`CheckpointError::KnowledgeMismatch`]) — dense ids
//!   would silently mis-group otherwise. A file that is not enveloped
//!   (such as a bare JSON snapshot) is rejected with
//!   [`EnvelopeError::BadMagic`].
//!
//! Delivery semantics: events emitted between the last checkpoint and a
//! crash are emitted *again* after resume (at-least-once); exactly-once
//! holds at checkpoint boundaries. Consumers needing exactly-once should
//! checkpoint and persist emitted events in the same transaction, keyed
//! by [`StreamSnapshot::lines_consumed`].

use crate::envelope::{self, ArtifactError, ArtifactKind, EnvelopeError};
use crate::grouping::GroupingConfig;
use crate::knowledge::DomainKnowledge;
use crate::stream::{OpenGroup, StreamConfig, StreamStats};
use sd_model::{RawMessage, SyslogPlus, Timestamp};
use sd_temporal::EwmaTracker;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Current snapshot format version. Bump on any incompatible change to
/// [`DigesterState`] / [`IngestState`]; old snapshots are then rejected
/// with [`CheckpointError::Version`] instead of being misdecoded.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Per-tracker-key EWMA state, flattened for serialization.
pub(crate) type TrackerTable = Vec<((u32, u32, u32), (EwmaTracker, u64))>;

/// Per-router rule-stage lookback, flattened for serialization.
pub(crate) type RulesLookback = Vec<(u32, Vec<((u32, u32), (u64, Timestamp))>)>;

/// Complete mutable state of a [`StreamDigester`](crate::StreamDigester).
///
/// Every map is stored as a sorted `Vec` of pairs so the same digester
/// state always serializes to the same bytes (hash-map iteration order
/// must not leak into snapshot files).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DigesterState {
    pub(crate) grouping: GroupingConfig,
    pub(crate) stream: StreamConfig,
    pub(crate) next_seq: u64,
    /// Next event id to assign.
    pub(crate) next_event_id: u64,
    pub(crate) clock: Timestamp,
    pub(crate) since_sweep: usize,
    pub(crate) stats: StreamStats,
    pub(crate) open: Vec<(u64, SyslogPlus)>,
    pub(crate) raw: Vec<(u64, RawMessage)>,
    pub(crate) parent: Vec<(u64, u64)>,
    pub(crate) groups: Vec<(u64, OpenGroup)>,
    pub(crate) trackers: TrackerTable,
    pub(crate) recent_rules: RulesLookback,
    pub(crate) recent_cross: Vec<(u32, Vec<(u64, Timestamp)>)>,
}

/// State of the fault-tolerant ingest wrapper (reorder buffer contents
/// and ingest counters), present when the snapshot was taken through
/// [`FaultTolerantIngest`](crate::ingest::FaultTolerantIngest).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestState {
    /// Buffered (accepted, not yet released) messages in release order.
    pub(crate) buffered: Vec<RawMessage>,
    /// Highest timestamp observed (drives the watermark).
    pub(crate) high: Option<Timestamp>,
    /// Reorder tolerance in seconds.
    pub(crate) max_skew_secs: i64,
    /// Ingest-level counters.
    pub(crate) n_lines: usize,
    pub(crate) n_malformed: usize,
    pub(crate) n_late: usize,
    pub(crate) n_duplicate: usize,
    /// First few malformed lines, as (line number, reason).
    pub(crate) malformed_samples: Vec<(usize, String)>,
}

/// A versioned, self-describing snapshot of a streaming digestion run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`] at write time).
    pub version: u32,
    /// Fingerprint of the knowledge base the digester ran against.
    pub knowledge_fp: u64,
    /// Digester state proper.
    pub(crate) digester: DigesterState,
    /// Ingest-layer state, when checkpointed through the ingest wrapper.
    pub(crate) ingest: Option<IngestState>,
}

/// Why a snapshot could not be written, read, or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The snapshot carries an unsupported format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The snapshot was taken against a different knowledge base.
    KnowledgeMismatch,
    /// The snapshot file does not decode as a snapshot.
    Corrupt(String),
    /// Filesystem failure while reading or writing.
    Io(String),
    /// The artifact envelope failed to verify (bad magic, truncation,
    /// checksum mismatch, …) — carries the failing path and generation.
    Artifact(ArtifactError),
    /// Checkpoint files exist but *every* generation failed to verify;
    /// nothing safe to resume from. Carries each `(path, why)` tried.
    NoUsableSnapshot {
        /// Base checkpoint path whose generations were scanned.
        path: String,
        /// Every generation tried, with the reason it was rejected.
        tried: Vec<(String, String)>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Version { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {expected})"
            ),
            CheckpointError::KnowledgeMismatch => write!(
                f,
                "snapshot was taken against a different knowledge base; \
                 re-learn or use the original knowledge file"
            ),
            CheckpointError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            CheckpointError::Io(why) => write!(f, "snapshot i/o failed: {why}"),
            CheckpointError::Artifact(e) => write!(f, "{e}"),
            CheckpointError::NoUsableSnapshot { path, tried } => {
                write!(
                    f,
                    "no usable snapshot: all {} generation(s) of {path} failed to verify: ",
                    tried.len()
                )?;
                for (i, (p, why)) in tried.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{p}: {why}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<ArtifactError> for CheckpointError {
    fn from(e: ArtifactError) -> Self {
        CheckpointError::Artifact(e)
    }
}

/// How a [`StreamSnapshot::recover_last_good`] scan concluded: which
/// generation was resumed from and what had to be skipped to get there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation resumed from (0 = the newest file, `path` itself).
    pub generation: u32,
    /// Generations that existed but failed verification.
    pub n_corrupt: usize,
    /// Feed lines already consumed by the recovered snapshot.
    pub lines_consumed: usize,
    /// Every skipped generation as `(path, why)`.
    pub skipped: Vec<(String, String)>,
}

/// On-disk path of checkpoint generation `g` for base `path`
/// (generation 0 is `path` itself, generation 1 is `path.1`, …).
/// The suffix is appended to the whole file name so `run.ckpt`
/// rotates to `run.ckpt.1`, not `run.1`.
pub fn generation_path(path: &Path, generation: u32) -> PathBuf {
    if generation == 0 {
        return path.to_path_buf();
    }
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{generation}"));
    PathBuf::from(name)
}

impl StreamSnapshot {
    /// Assemble a snapshot for a bare digester (no ingest layer).
    pub(crate) fn for_digester(k: &DomainKnowledge, digester: DigesterState) -> Self {
        StreamSnapshot {
            version: SNAPSHOT_VERSION,
            knowledge_fp: k.fingerprint(),
            digester,
            ingest: None,
        }
    }

    /// Attach ingest-layer state (builder style).
    pub(crate) fn with_ingest(mut self, ingest: IngestState) -> Self {
        self.ingest = Some(ingest);
        self
    }

    /// Check that this snapshot can be resumed against `k` by this build.
    pub fn verify(&self, k: &DomainKnowledge) -> Result<(), CheckpointError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(CheckpointError::Version {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if self.knowledge_fp != k.fingerprint() {
            return Err(CheckpointError::KnowledgeMismatch);
        }
        Ok(())
    }

    /// Total feed lines consumed up to this snapshot (accepted + dropped +
    /// malformed when ingest state is present) — the offset a resuming
    /// process should skip to in the feed.
    pub fn lines_consumed(&self) -> usize {
        match &self.ingest {
            Some(ing) => ing.n_lines,
            None => self.digester.stats.n_input,
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        serde_json::to_string(self).map_err(|e| CheckpointError::Corrupt(e.to_string()))
    }

    /// Parse from JSON, checking the format version *before* decoding the
    /// body so incompatible snapshots fail with a clear error.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let tree = serde_json::parse(text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        let version = match tree.get_field("version") {
            Some(serde::Value::I64(v)) => *v as u64,
            Some(serde::Value::U64(v)) => *v,
            _ => return Err(CheckpointError::Corrupt("missing version field".to_owned())),
        };
        if version != SNAPSHOT_VERSION as u64 {
            return Err(CheckpointError::Version {
                found: version as u32,
                expected: SNAPSHOT_VERSION,
            });
        }
        serde_json::from_str(text).map_err(|e| CheckpointError::Corrupt(e.to_string()))
    }

    /// Write atomically to `path`, framed in the checksummed artifact
    /// envelope: the image is written to a sibling temp file and renamed
    /// into place, so a crash mid-write leaves any previous good
    /// snapshot untouched, and any damage to the bytes that do land is
    /// detected at load time.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let json = self.to_json()?;
        envelope::save_atomic(
            path,
            ArtifactKind::CHECKPOINT,
            SNAPSHOT_VERSION,
            json.as_bytes(),
        )
        .map_err(CheckpointError::Artifact)
    }

    /// Save with last-good rotation: existing generations shift up
    /// (`path` → `path.1` → … → `path.keep`, the oldest dropped) before
    /// the new snapshot is written atomically as generation 0. `keep` is
    /// the number of *previous* generations retained alongside the
    /// newest; `keep == 0` degrades to a plain [`StreamSnapshot::save`].
    pub fn save_rotated(&self, path: &Path, keep: usize) -> Result<(), CheckpointError> {
        for g in (0..keep as u32).rev() {
            let from = generation_path(path, g);
            let to = generation_path(path, g + 1);
            if from.exists() {
                std::fs::rename(&from, &to).map_err(|e| {
                    CheckpointError::Io(format!(
                        "rotating {} -> {}: {e}",
                        from.display(),
                        to.display()
                    ))
                })?;
            }
        }
        self.save(path)
    }

    /// Read a snapshot written by [`StreamSnapshot::save`]. A file without
    /// the envelope fails with [`EnvelopeError::BadMagic`]. Failures carry
    /// the file path (and generation, when scanned via
    /// [`StreamSnapshot::recover_last_good`]).
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::load_generation(path, None)
    }

    fn load_generation(path: &Path, generation: Option<u32>) -> Result<Self, CheckpointError> {
        let ctx = |e: ArtifactError| match generation {
            Some(g) => CheckpointError::Artifact(e.with_generation(g)),
            None => CheckpointError::Artifact(e),
        };
        let bytes = envelope::load_bytes(path).map_err(&ctx)?;
        let payload = envelope::decode(&bytes, ArtifactKind::CHECKPOINT, SNAPSHOT_VERSION)
            .map_err(|e| ctx(ArtifactError::at(path, e)))?;
        let text = std::str::from_utf8(payload).map_err(|e| {
            ctx(ArtifactError::at(
                path,
                EnvelopeError::Payload(e.to_string()),
            ))
        })?;
        Self::from_json(text).map_err(|e| match e {
            // Attach the failing path to body decode errors; version and
            // knowledge errors are already self-explanatory.
            CheckpointError::Corrupt(why) => {
                CheckpointError::Corrupt(format!("{}: {why}", path.display()))
            }
            other => other,
        })
    }

    /// Scan checkpoint generations newest-first and load the first one
    /// that verifies.
    ///
    /// * `Ok(None)` — no generation exists at all: a fresh start, not a
    ///   failure.
    /// * `Ok(Some((snapshot, report)))` — resumed; the report says which
    ///   generation won and which damaged ones were skipped.
    /// * `Err(NoUsableSnapshot)` — files exist but none verified;
    ///   resuming silently from nothing would violate the at-most-one-
    ///   interval loss guarantee, so this is surfaced to the operator.
    pub fn recover_last_good(
        path: &Path,
        keep: usize,
    ) -> Result<Option<(Self, RecoveryReport)>, CheckpointError> {
        let mut skipped: Vec<(String, String)> = Vec::new();
        for g in 0..=(keep as u32) {
            let p = generation_path(path, g);
            if !p.exists() {
                continue;
            }
            match Self::load_generation(&p, Some(g)) {
                Ok(snap) => {
                    let lines_consumed = snap.lines_consumed();
                    return Ok(Some((
                        snap,
                        RecoveryReport {
                            generation: g,
                            n_corrupt: skipped.len(),
                            lines_consumed,
                            skipped,
                        },
                    )));
                }
                Err(e) => skipped.push((p.display().to_string(), e.to_string())),
            }
        }
        if skipped.is_empty() {
            Ok(None)
        } else {
            Err(CheckpointError::NoUsableSnapshot {
                path: path.display().to_string(),
                tried: skipped,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> DigesterState {
        DigesterState {
            grouping: GroupingConfig::default(),
            stream: StreamConfig::default(),
            next_seq: 7,
            next_event_id: 0,
            clock: Timestamp(1234),
            since_sweep: 3,
            stats: StreamStats {
                n_input: 9,
                n_dropped: 2,
                n_force_closed: 0,
                n_inconsistent: 0,
                n_quarantined: 0,
            },
            open: Vec::new(),
            raw: Vec::new(),
            parent: vec![(0, 0), (1, 0)],
            groups: Vec::new(),
            trackers: Vec::new(),
            recent_rules: Vec::new(),
            recent_cross: Vec::new(),
        }
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let snap = StreamSnapshot {
            version: SNAPSHOT_VERSION,
            knowledge_fp: 42,
            digester: tiny_state(),
            ingest: None,
        };
        let json = snap.to_json().unwrap();
        let back = StreamSnapshot::from_json(&json).unwrap();
        assert_eq!(back.version, SNAPSHOT_VERSION);
        assert_eq!(back.knowledge_fp, 42);
        assert_eq!(back.digester.next_seq, 7);
        assert_eq!(back.digester.stats.n_dropped, 2);
        assert_eq!(back.lines_consumed(), 9);
    }

    #[test]
    fn future_version_is_rejected_with_a_clear_error() {
        let snap = StreamSnapshot {
            version: SNAPSHOT_VERSION + 1,
            knowledge_fp: 0,
            digester: tiny_state(),
            ingest: None,
        };
        let json = snap.to_json().unwrap();
        match StreamSnapshot::from_json(&json) {
            Err(CheckpointError::Version { found, expected }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_corrupt_not_panic() {
        assert!(matches!(
            StreamSnapshot::from_json("{\"not\": \"a snapshot\"}"),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            StreamSnapshot::from_json("!!!"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn save_load_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("sd_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let snap = StreamSnapshot {
            version: SNAPSHOT_VERSION,
            knowledge_fp: 7,
            digester: tiny_state(),
            ingest: None,
        };
        snap.save(&path).unwrap();
        // No temp file left behind.
        assert!(!path.with_extension("tmp").exists());
        assert!(!dir.join("snap.json.tmp").exists());
        let back = StreamSnapshot::load(&path).unwrap();
        assert_eq!(back.knowledge_fp, 7);
        std::fs::remove_file(&path).ok();
    }

    fn snap_with_fp(fp: u64) -> StreamSnapshot {
        StreamSnapshot {
            version: SNAPSHOT_VERSION,
            knowledge_fp: fp,
            digester: tiny_state(),
            ingest: None,
        }
    }

    #[test]
    fn rotation_keeps_generations_and_recovery_prefers_newest() {
        let dir = std::env::temp_dir().join("sd_checkpoint_rotate_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        for fp in [1u64, 2, 3, 4] {
            snap_with_fp(fp).save_rotated(&path, 2).unwrap();
        }
        // Newest at the base path, two older generations behind it, the
        // oldest (fp 1) rotated away.
        assert_eq!(StreamSnapshot::load(&path).unwrap().knowledge_fp, 4);
        assert_eq!(
            StreamSnapshot::load(&generation_path(&path, 1))
                .unwrap()
                .knowledge_fp,
            3
        );
        assert_eq!(
            StreamSnapshot::load(&generation_path(&path, 2))
                .unwrap()
                .knowledge_fp,
            2
        );
        assert!(!generation_path(&path, 3).exists());

        let (snap, report) = StreamSnapshot::recover_last_good(&path, 2)
            .unwrap()
            .expect("generations exist");
        assert_eq!(snap.knowledge_fp, 4);
        assert_eq!(report.generation, 0);
        assert_eq!(report.n_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_falls_back_past_damaged_generations() {
        let dir = std::env::temp_dir().join("sd_checkpoint_fallback_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        snap_with_fp(1).save_rotated(&path, 2).unwrap();
        snap_with_fp(2).save_rotated(&path, 2).unwrap();
        // Torn write: generation 0 loses its tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let (snap, report) = StreamSnapshot::recover_last_good(&path, 2)
            .unwrap()
            .expect("an older generation survives");
        assert_eq!(snap.knowledge_fp, 1);
        assert_eq!(report.generation, 1);
        assert_eq!(report.n_corrupt, 1);
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].1.contains("truncated"));

        // Damage the survivor too: now nothing is usable, and that is an
        // error, not a silent fresh start.
        let p1 = generation_path(&path, 1);
        let bytes = std::fs::read(&p1).unwrap();
        let mut flipped = bytes.clone();
        flipped[bytes.len() - 3] ^= 0x10;
        std::fs::write(&p1, &flipped).unwrap();
        match StreamSnapshot::recover_last_good(&path, 2) {
            Err(CheckpointError::NoUsableSnapshot { tried, .. }) => {
                assert_eq!(tried.len(), 2)
            }
            other => panic!("expected NoUsableSnapshot, got {other:?}"),
        }

        // No generations at all: a fresh start.
        let empty = dir.join("never-written.ckpt");
        assert!(StreamSnapshot::recover_last_good(&empty, 2)
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
