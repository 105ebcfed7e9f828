//! Self-describing envelope for every artifact the pipeline persists.
//!
//! A durable artifact (stream checkpoint, learned knowledge) is written
//! as a fixed 28-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic            b"SDAR"
//!      4     4  artifact kind    b"CKPT" / b"KNOW"
//!      8     4  schema version   u32, little-endian
//!     12     8  payload length   u64, little-endian
//!     20     8  payload checksum u64, little-endian, FNV-1a over payload
//!     28     n  payload          (JSON today; the envelope is agnostic)
//! ```
//!
//! Decoding verifies in order: magic → kind → version → length →
//! checksum, so the typed [`EnvelopeError`] pinpoints *how far* a
//! damaged file could be trusted. Any single-byte truncation or bit
//! flip is detected: truncation strictly shortens the declared length,
//! and a flip in the header breaks one of the tag/version/length
//! fields while a flip in the payload breaks the checksum.
//!
//! Writes are atomic: payload goes to a `<name>.tmp` sibling first and
//! is renamed over the destination, so a crash mid-write leaves either
//! the old artifact or a garbage temp file — never a half-new artifact
//! under the real name. A file that does not start with the magic, such
//! as a bare JSON artifact, fails with [`EnvelopeError::BadMagic`].

use std::fmt;
use std::path::{Path, PathBuf};

/// Leading magic bytes of every enveloped artifact ("SyslogDigest ARtifact").
pub const ENVELOPE_MAGIC: [u8; 4] = *b"SDAR";

/// Total header size in bytes (magic + kind + version + length + checksum).
pub const HEADER_LEN: usize = 28;

/// Four-byte artifact-kind tag inside the envelope header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactKind(pub [u8; 4]);

impl ArtifactKind {
    /// Stream checkpoint ([`crate::checkpoint::StreamSnapshot`]).
    pub const CHECKPOINT: ArtifactKind = ArtifactKind(*b"CKPT");
    /// Learned domain knowledge ([`crate::knowledge::DomainKnowledge`]).
    pub const KNOWLEDGE: ArtifactKind = ArtifactKind(*b"KNOW");

    fn name(self) -> String {
        self.0.iter().map(|&b| b as char).collect()
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Typed decode/encode failures, ordered by how early verification
/// stopped: the variants earlier in the enum mean less of the file
/// could be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The file does not start with [`ENVELOPE_MAGIC`].
    BadMagic,
    /// The envelope is valid but holds a different artifact kind.
    KindMismatch {
        /// Kind the caller asked for.
        expected: String,
        /// Kind tag found in the header.
        found: String,
    },
    /// The schema version is not one this build can read.
    VersionUnsupported {
        /// Version found in the header.
        found: u32,
        /// Newest version this build understands.
        expected: u32,
    },
    /// The file ends before the header (or the declared payload) does —
    /// the classic torn-write signature.
    Truncated {
        /// Bytes the header (or header + declared payload) requires.
        needed: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The file is longer than header + declared payload.
    TrailingData {
        /// Surplus bytes past the declared payload.
        extra: usize,
    },
    /// The payload does not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// FNV-1a of the payload as read.
        found: u64,
    },
    /// The envelope verified but the payload failed to decode (e.g.
    /// malformed JSON inside a checksummed body — a writer bug, not
    /// storage damage).
    Payload(String),
    /// Underlying I/O failure while reading or writing.
    Io(String),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::BadMagic => {
                write!(f, "bad magic: not a recognized artifact")
            }
            EnvelopeError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "artifact kind mismatch: expected {expected}, found {found}"
                )
            }
            EnvelopeError::VersionUnsupported { found, expected } => {
                write!(
                    f,
                    "unsupported schema version {found} (this build reads up to {expected})"
                )
            }
            EnvelopeError::Truncated { needed, found } => {
                write!(f, "truncated: need {needed} bytes, file has {found}")
            }
            EnvelopeError::TrailingData { extra } => {
                write!(f, "{extra} trailing bytes past the declared payload")
            }
            EnvelopeError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
                )
            }
            EnvelopeError::Payload(e) => write!(f, "payload invalid: {e}"),
            EnvelopeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// An [`EnvelopeError`] annotated with *which* artifact failed: file
/// path and, for rotated checkpoints, the generation. This is the
/// context operators need to tell a corrupt `run.ckpt.1` from a
/// corrupt knowledge file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError {
    /// Path of the artifact that failed.
    pub path: PathBuf,
    /// Checkpoint generation (0 = newest), when applicable.
    pub generation: Option<u32>,
    /// The underlying failure.
    pub error: EnvelopeError,
}

impl ArtifactError {
    /// Wrap `error` with the failing `path` (no generation).
    pub fn at(path: &Path, error: EnvelopeError) -> Self {
        ArtifactError {
            path: path.to_path_buf(),
            generation: None,
            error,
        }
    }

    /// Attach a checkpoint generation to this error.
    pub fn with_generation(mut self, generation: u32) -> Self {
        self.generation = Some(generation);
        self
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact {}", self.path.display())?;
        if let Some(g) = self.generation {
            write!(f, " (generation {g})")?;
        }
        write!(f, ": {}", self.error)
    }
}

impl std::error::Error for ArtifactError {}

/// FNV-1a 64-bit hash — the workspace's standard content digest
/// (matches the fingerprint/digest hashing in knowledge and netsim).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize `payload` into a fully framed artifact image.
pub fn encode(kind: ArtifactKind, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&ENVELOPE_MAGIC);
    out.extend_from_slice(&kind.0);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Verify the envelope around `bytes` and return the payload slice.
///
/// Verification order: magic → kind → version (must be exactly
/// `expected_version` — snapshots are not forward-compatible) →
/// declared length vs file size → checksum.
pub fn decode(
    bytes: &[u8],
    kind: ArtifactKind,
    expected_version: u32,
) -> Result<&[u8], EnvelopeError> {
    if bytes.len() >= ENVELOPE_MAGIC.len() && !bytes.starts_with(&ENVELOPE_MAGIC) {
        return Err(EnvelopeError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(EnvelopeError::Truncated {
            needed: HEADER_LEN,
            found: bytes.len(),
        });
    }
    let found_kind = ArtifactKind([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if found_kind != kind {
        return Err(EnvelopeError::KindMismatch {
            expected: kind.name(),
            found: found_kind.name(),
        });
    }
    let version = le_u32(&bytes[8..12]);
    if version != expected_version {
        return Err(EnvelopeError::VersionUnsupported {
            found: version,
            expected: expected_version,
        });
    }
    let payload_len = le_u64(&bytes[12..20]) as usize;
    let needed = HEADER_LEN + payload_len;
    if bytes.len() < needed {
        return Err(EnvelopeError::Truncated {
            needed,
            found: bytes.len(),
        });
    }
    if bytes.len() > needed {
        return Err(EnvelopeError::TrailingData {
            extra: bytes.len() - needed,
        });
    }
    let payload = &bytes[HEADER_LEN..needed];
    let expected_sum = le_u64(&bytes[20..28]);
    let found_sum = fnv1a(payload);
    if found_sum != expected_sum {
        return Err(EnvelopeError::ChecksumMismatch {
            expected: expected_sum,
            found: found_sum,
        });
    }
    Ok(payload)
}

/// Atomically write an enveloped artifact: frame, write to a
/// `<file name>.tmp` sibling, rename over `path`.
pub fn save_atomic(
    path: &Path,
    kind: ArtifactKind,
    version: u32,
    payload: &[u8],
) -> Result<(), ArtifactError> {
    let framed = encode(kind, version, payload);
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, &framed)
        .map_err(|e| ArtifactError::at(&tmp, EnvelopeError::Io(e.to_string())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| ArtifactError::at(path, EnvelopeError::Io(e.to_string())))
}

/// Read an artifact's raw bytes, wrapping I/O failures with the path.
pub fn load_bytes(path: &Path) -> Result<Vec<u8>, ArtifactError> {
    std::fs::read(path).map_err(|e| ArtifactError::at(path, EnvelopeError::Io(e.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_payload() {
        let payload = br#"{"hello": "world"}"#;
        let framed = encode(ArtifactKind::CHECKPOINT, 3, payload);
        assert!(framed.starts_with(&ENVELOPE_MAGIC));
        assert_eq!(framed.len(), HEADER_LEN + payload.len());
        let back = decode(&framed, ArtifactKind::CHECKPOINT, 3).expect("decodes");
        assert_eq!(back, payload);
    }

    #[test]
    fn every_truncation_is_detected() {
        let framed = encode(ArtifactKind::KNOWLEDGE, 1, b"some payload bytes");
        for cut in 0..framed.len() {
            let err = decode(&framed[..cut], ArtifactKind::KNOWLEDGE, 1)
                .expect_err("truncated image must not decode");
            assert!(
                matches!(
                    err,
                    EnvelopeError::Truncated { .. } | EnvelopeError::BadMagic
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let framed = encode(ArtifactKind::CHECKPOINT, 2, b"payload under test");
        for byte in 0..framed.len() {
            for bit in 0..8u8 {
                let mut dam = framed.clone();
                dam[byte] ^= 1 << bit;
                assert!(
                    decode(&dam, ArtifactKind::CHECKPOINT, 2).is_err(),
                    "flip {byte}:{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn kind_and_version_checks_fire_in_order() {
        let framed = encode(ArtifactKind::CHECKPOINT, 2, b"x");
        assert_eq!(
            decode(&framed, ArtifactKind::KNOWLEDGE, 2),
            Err(EnvelopeError::KindMismatch {
                expected: "KNOW".into(),
                found: "CKPT".into()
            })
        );
        assert_eq!(
            decode(&framed, ArtifactKind::CHECKPOINT, 9),
            Err(EnvelopeError::VersionUnsupported {
                found: 2,
                expected: 9
            })
        );
        assert_eq!(
            decode(b"not an artifact at all", ArtifactKind::CHECKPOINT, 2),
            Err(EnvelopeError::BadMagic)
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut framed = encode(ArtifactKind::CHECKPOINT, 1, b"abc");
        framed.push(0);
        assert_eq!(
            decode(&framed, ArtifactKind::CHECKPOINT, 1),
            Err(EnvelopeError::TrailingData { extra: 1 })
        );
    }

    #[test]
    fn save_atomic_roundtrips_and_cleans_tmp() {
        let dir = std::env::temp_dir().join("sd_envelope_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("artifact.bin");
        save_atomic(&path, ArtifactKind::KNOWLEDGE, 1, b"body").expect("save");
        assert!(!dir.join("artifact.bin.tmp").exists());
        let bytes = load_bytes(&path).expect("load");
        assert_eq!(
            decode(&bytes, ArtifactKind::KNOWLEDGE, 1).expect("decode"),
            b"body"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
