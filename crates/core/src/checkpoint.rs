//! Versioned checkpoint/restore for the fault-tolerant stream ingest.
//!
//! A long-running `sdigest digest --stream` process must survive being
//! killed: on restart it should continue from where it stopped without
//! re-reading the whole feed and without losing or duplicating events.
//! This module defines the on-disk snapshot format:
//!
//! * [`StreamSnapshot`] — one JSON document, in one shape: a **knowledge
//!   fingerprint** (FNV-1a over the knowledge base's content, see
//!   [`DomainKnowledge::fingerprint`]), the digester's
//!   and the reorder buffer's live state serialized as they are, and the
//!   counters of every layer. The digester's open state is the open
//!   groups' summaries by slot and the lookback deques of open messages
//!   (see [`crate::stream`]). Maps are written in key order, so equal
//!   states give equal bytes.
//! * [`StreamSnapshot::save`] wraps the JSON in the checksummed
//!   [`envelope`], whose header carries the artifact kind and the
//!   **format version** ([`SNAPSHOT_VERSION`], 8 since open groups are
//!   held in dense slots), and writes atomically (temp file + rename), so
//!   a crash mid-write can never leave a truncated snapshot where a good
//!   one used to be — and any truncation or bit flip that slips through
//!   is caught at load time as a typed [`EnvelopeError`] rather than a
//!   panic or silent misdecode.
//! * [`StreamSnapshot::save_rotated`] keeps the last `keep` generations
//!   (`run.ckpt` → `run.ckpt.1` → …), rotating them only once the new
//!   image is written, and
//!   [`StreamSnapshot::recover_last_good`] finishes a save that a kill
//!   interrupted after that write, then scans them newest-first on
//!   resume, falling back past damaged generations and reporting how far
//!   it rolled back in a [`RecoveryReport`]. With checkpoints taken
//!   every *N* lines, a kill at any byte of any write loses at most one
//!   checkpoint interval.
//! * [`StreamSnapshot::load`] reads the version from the envelope header
//!   only, before the body, and rejects any other version
//!   ([`EnvelopeError::VersionUnsupported`]); a file that is not
//!   enveloped (such as a bare JSON snapshot) fails with
//!   [`EnvelopeError::BadMagic`]. A resume
//!   ([`FaultTolerantIngest::resume_with_telemetry`]) refuses a snapshot
//!   taken against a different knowledge base
//!   ([`CheckpointError::KnowledgeMismatch`]) — dense ids would silently
//!   mis-group otherwise. Two bases with the same component counts but
//!   other rules, words or frequencies count as different.
//!
//! Delivery semantics: events emitted between the last checkpoint and a
//! crash are emitted *again* after resume (at-least-once); exactly-once
//! holds at checkpoint boundaries. Consumers needing exactly-once should
//! checkpoint and persist emitted events in the same transaction, keyed
//! by [`StreamSnapshot::lines_consumed`].
//!
//! [`DomainKnowledge::fingerprint`]: crate::DomainKnowledge::fingerprint
//! [`FaultTolerantIngest::resume_with_telemetry`]: crate::FaultTolerantIngest::resume_with_telemetry
//! [`EnvelopeError`]: crate::envelope::EnvelopeError
//! [`EnvelopeError::VersionUnsupported`]: crate::envelope::EnvelopeError::VersionUnsupported
//! [`EnvelopeError::BadMagic`]: crate::envelope::EnvelopeError::BadMagic

use crate::envelope::{self, ArtifactError, ArtifactKind};
use crate::reorder::ReorderBuffer;
use crate::stream::{StreamState, StreamStats};
use sd_model::MalformedReport;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Snapshot format version, written and checked in the envelope header
/// only. Bump on any incompatible change to [`StreamSnapshot`]'s shape;
/// older snapshots are then rejected instead of being misdecoded.
pub(crate) const SNAPSHOT_VERSION: u32 = 8;

/// Counters of the ingest layer: feed lines consumed, the reorder
/// buffer's late and duplicate counts, and the malformed-line report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct IngestState {
    pub(crate) n_lines: usize,
    pub(crate) n_late: usize,
    pub(crate) n_duplicate: usize,
    pub(crate) malformed: MalformedReport,
}

/// A self-describing snapshot of a fault-tolerant streaming run, taken by
/// [`FaultTolerantIngest::checkpoint`](crate::FaultTolerantIngest::checkpoint).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamSnapshot {
    /// Fingerprint of the knowledge base the digester ran against.
    pub(crate) knowledge_fp: u64,
    /// The digester's live state.
    pub(crate) digester: StreamState,
    /// The digester's counters.
    pub(crate) stats: StreamStats,
    /// The reorder buffer in front of the digester.
    pub(crate) reorder: ReorderBuffer,
    /// The ingest layer's counters.
    pub(crate) ingest: IngestState,
}

/// Why a snapshot could not be written, read, or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The snapshot was taken against a different knowledge base.
    KnowledgeMismatch,
    /// The JSON text does not decode as a snapshot
    /// ([`StreamSnapshot::from_json`]).
    Corrupt(String),
    /// The artifact could not be written, or its envelope failed to
    /// verify (bad magic, truncation, checksum mismatch, …) — carries the
    /// failing path and generation.
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
            CheckpointError::KnowledgeMismatch => write!(
                f,
                "snapshot was taken against a different knowledge base; \
                 re-learn or use the original knowledge file"
            ),
            CheckpointError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
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
    pub(crate) skipped: Vec<(String, String)>,
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

/// Make `tmp` generation 0 of `path`, keeping `keep` older generations:
/// shift `path.g` → `path.g+1` for every generation below the first
/// missing one (`path.keep` is overwritten), then rename `tmp` to `path`.
/// Shifting stops at a gap, so generations a killed save left behind stay
/// one interval apart.
fn promote(tmp: &Path, path: &Path, keep: usize) -> Result<(), ArtifactError> {
    let present = (0..keep as u32)
        .take_while(|&g| generation_path(path, g).exists())
        .count() as u32;
    for g in (0..present).rev() {
        envelope::rename(&generation_path(path, g), &generation_path(path, g + 1))?;
    }
    envelope::rename(tmp, path)
}

impl StreamSnapshot {
    /// Total feed lines consumed up to this snapshot (accepted, dropped
    /// and malformed) — the offset a resuming process should skip to in
    /// the feed.
    pub fn lines_consumed(&self) -> usize {
        self.ingest.n_lines
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        serde_json::to_string(self).map_err(|e| CheckpointError::Corrupt(e.to_string()))
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        serde_json::from_str(text).map_err(|e| CheckpointError::Corrupt(e.to_string()))
    }

    /// Write atomically to `path`, framed in the checksummed artifact
    /// envelope: the image is written to a sibling temp file and renamed
    /// into place, so a crash mid-write leaves any previous good
    /// snapshot untouched, and any damage to the bytes that do land is
    /// detected at load time.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        envelope::save_json(path, ArtifactKind::CHECKPOINT, SNAPSHOT_VERSION, self)
            .map_err(CheckpointError::Artifact)
    }

    /// Save with last-good rotation: write the new image to `path.tmp`,
    /// then shift `path` → `path.1` → … → `path.keep` (the oldest dropped)
    /// and rename `path.tmp` to `path`, so a crash while encoding or
    /// writing leaves every generation in place. `keep == 0` degrades to
    /// a plain [`StreamSnapshot::save`].
    pub fn save_rotated(&self, path: &Path, keep: usize) -> Result<(), CheckpointError> {
        let (kind, version) = (ArtifactKind::CHECKPOINT, SNAPSHOT_VERSION);
        let tmp = envelope::write_tmp(path, kind, version, self.to_json()?.as_bytes())?;
        Ok(promote(&tmp, path, keep)?)
    }

    /// Read a snapshot written by [`StreamSnapshot::save`]. A file without
    /// the envelope, or of another format version, fails on its header
    /// (see the module docs). Failures carry
    /// the file path (and generation, when scanned via
    /// [`StreamSnapshot::recover_last_good`]).
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::load_generation(path, None)
    }

    fn load_generation(path: &Path, generation: Option<u32>) -> Result<Self, CheckpointError> {
        envelope::load_json(path, ArtifactKind::CHECKPOINT, SNAPSHOT_VERSION).map_err(|e| {
            CheckpointError::Artifact(match generation {
                Some(g) => e.with_generation(g),
                None => e,
            })
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
        // A kill inside `save_rotated` can leave its complete new image in
        // `path.tmp`, before or between the renames: finish that save. A
        // torn `path.tmp` is no generation and stays where it is.
        let tmp = envelope::tmp_path(path);
        if tmp.exists() && Self::load(&tmp).is_ok() {
            promote(&tmp, path, keep)?;
        }
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
    use crate::envelope::EnvelopeError;
    use crate::grouping::GroupingConfig;
    use crate::ingest::FaultTolerantIngest;
    use crate::knowledge::DomainKnowledge;
    use crate::stream::StreamConfig;
    use sd_locations::LocationDictionary;
    use sd_model::Interner;
    use sd_rules::RuleSet;
    use sd_telemetry::Telemetry;
    use sd_templates::TemplateSet;
    use sd_temporal::TemporalConfig;

    /// A snapshot of an ingest layer that consumed three lines, one of
    /// them malformed, relabeled with knowledge fingerprint `fp`.
    fn snap_with_fp(fp: u64) -> StreamSnapshot {
        let k = DomainKnowledge::new(
            TemplateSet::default(),
            Interner::new(),
            LocationDictionary::build(&["hostname r1\n".to_owned()]),
            TemporalConfig::dataset_a(),
            RuleSet::default(),
            120,
            Default::default(),
        );
        let (cfg, scfg) = (GroupingConfig::default(), StreamConfig::default());
        let mut ing =
            FaultTolerantIngest::with_telemetry(&k, cfg, scfg, 30, &Telemetry::disabled());
        for line in [
            "2010-01-10 00:00:15 r1 LINK-3-UPDOWN Interface Serial1/0, changed state to down",
            "garbage line here entirely",
            "2010-01-10 00:00:16 r2 LINK-3-UPDOWN Interface Serial2/0, changed state to down",
        ] {
            ing.push_line(line);
        }
        let mut snap = ing.checkpoint();
        snap.knowledge_fp = fp;
        snap
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let json = snap_with_fp(42).to_json().unwrap();
        let back = StreamSnapshot::from_json(&json).unwrap();
        assert_eq!(back.knowledge_fp, 42);
        assert_eq!(back.lines_consumed(), 3);
        assert_eq!(back.ingest.malformed.count, 1);
        assert_eq!(back.reorder.buffered(), 2);
        assert_eq!(back.to_json().unwrap(), json);
    }

    /// The format version lives in the envelope header only: a file
    /// framed with another version fails there, with the path attached.
    #[test]
    fn another_format_version_fails_in_the_envelope() {
        let dir = std::env::temp_dir().join("sd_checkpoint_version_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.ckpt");
        envelope::save_json(&path, ArtifactKind::CHECKPOINT, 2, &snap_with_fp(0)).unwrap();
        match StreamSnapshot::load(&path) {
            Err(CheckpointError::Artifact(e)) => {
                assert_eq!(e.path, path);
                assert_eq!(
                    e.error,
                    EnvelopeError::VersionUnsupported {
                        found: 2,
                        expected: SNAPSHOT_VERSION
                    }
                );
            }
            other => panic!("expected an unsupported version, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint of the previous format (version 7, open groups keyed
    /// by root) fails on its header, and recovery skips it exactly as it
    /// skips any other version.
    #[test]
    fn a_version_7_checkpoint_is_refused_like_any_other_version() {
        let dir = std::env::temp_dir().join("sd_checkpoint_version_7_test");
        let path = dir.join("run.ckpt");
        let p1 = generation_path(&path, 1);
        let save_old = |p: &Path, old: u32| {
            envelope::save_json(p, ArtifactKind::CHECKPOINT, old, &snap_with_fp(9)).unwrap();
        };
        for old in [7, 2] {
            let why = format!("unsupported schema version {old}");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            snap_with_fp(1).save_rotated(&path, 2).unwrap();
            snap_with_fp(2).save_rotated(&path, 2).unwrap();
            save_old(&path, old);
            let err = StreamSnapshot::load(&path).unwrap_err();
            assert!(err.to_string().contains(&why), "{err}");

            let (snap, report) = StreamSnapshot::recover_last_good(&path, 2)
                .unwrap()
                .expect("generation 1 is current");
            assert_eq!((snap.knowledge_fp, report.generation), (1, 1));
            assert_eq!(report.n_corrupt, 1);
            assert!(report.skipped[0].1.contains(&why));

            save_old(&p1, old);
            match StreamSnapshot::recover_last_good(&path, 2) {
                Err(CheckpointError::NoUsableSnapshot { tried, .. }) => {
                    assert_eq!(tried.len(), 2);
                    assert!(tried.iter().all(|(_, e)| e.contains(&why)));
                }
                other => panic!("expected NoUsableSnapshot, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
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
        snap_with_fp(7).save(&path).unwrap();
        // No temp file left behind.
        assert!(!path.with_extension("tmp").exists());
        assert!(!dir.join("snap.json.tmp").exists());
        let back = StreamSnapshot::load(&path).unwrap();
        assert_eq!(back.knowledge_fp, 7);
        std::fs::remove_file(&path).ok();
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

    /// A failed write rotates nothing: with the temp path blocked by a
    /// directory, `save_rotated` errs and both generations keep their
    /// snapshots.
    #[test]
    fn failed_write_leaves_every_generation_in_place() {
        let dir = std::env::temp_dir().join("sd_checkpoint_failed_write_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        snap_with_fp(1).save_rotated(&path, 2).unwrap();
        snap_with_fp(2).save_rotated(&path, 2).unwrap();
        std::fs::create_dir(dir.join("run.ckpt.tmp")).unwrap();
        assert!(snap_with_fp(3).save_rotated(&path, 2).is_err());
        assert_eq!(StreamSnapshot::load(&path).unwrap().knowledge_fp, 2);
        let older = StreamSnapshot::load(&generation_path(&path, 1)).unwrap();
        assert_eq!(older.knowledge_fp, 1);
        assert!(!generation_path(&path, 2).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill inside `save_rotated` (after the new image is written, or
    /// after any one of its renames) followed by a torn `run.ckpt` still
    /// resumes at most one interval back, and recovery leaves the
    /// generations consecutive. A torn temp file is no generation.
    #[test]
    fn kill_inside_rotation_resumes_within_one_interval() {
        let dir = std::env::temp_dir().join("sd_checkpoint_kill_rotation_test");
        let path = dir.join("run.ckpt");
        let tmp = dir.join("run.ckpt.tmp");
        let g = |n| generation_path(&path, n);
        let fp_at = |n| StreamSnapshot::load(&generation_path(&path, n)).map(|s| s.knowledge_fp);
        let tear = |p: &Path| {
            let bytes = std::fs::read(p).unwrap();
            std::fs::write(p, &bytes[..bytes.len() / 2]).unwrap();
        };
        // Saves 1–3 complete; the kill lands inside save 4, after
        // `renames` of its three renames.
        for renames in 0..=3 {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            for fp in [1u64, 2, 3] {
                snap_with_fp(fp).save_rotated(&path, 2).unwrap();
            }
            let json = snap_with_fp(4).to_json().unwrap();
            let (kind, version) = (ArtifactKind::CHECKPOINT, SNAPSHOT_VERSION);
            envelope::write_tmp(&path, kind, version, json.as_bytes()).unwrap();
            for (from, to) in [(g(1), g(2)), (g(0), g(1)), (tmp.clone(), g(0))]
                .into_iter()
                .take(renames)
            {
                std::fs::rename(from, to).unwrap();
            }
            if path.exists() {
                tear(&path);
            }

            let (snap, _) = StreamSnapshot::recover_last_good(&path, 2)
                .unwrap()
                .expect("generations exist");
            assert!(
                snap.knowledge_fp >= 3,
                "after {renames} renames: resumed from save {}",
                snap.knowledge_fp
            );
            let newest = snap.knowledge_fp + u64::from(renames == 3);
            for n in 0..=2u32 {
                assert!(g(n).exists(), "after {renames} renames: no generation {n}");
                if let Ok(fp) = fp_at(n) {
                    assert_eq!(fp + u64::from(n), newest, "after {renames} renames");
                }
            }
            assert!(!tmp.exists());
        }

        // A torn temp file is left alone and skipped silently.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        snap_with_fp(1).save_rotated(&path, 2).unwrap();
        snap_with_fp(2).save_rotated(&path, 2).unwrap();
        std::fs::write(&tmp, b"SDAR").unwrap();
        let (snap, report) = StreamSnapshot::recover_last_good(&path, 2)
            .unwrap()
            .expect("generations exist");
        assert_eq!((snap.knowledge_fp, report.generation), (2, 0));
        assert_eq!(report.n_corrupt, 0);
        assert_eq!(fp_at(1).unwrap(), 1);
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
