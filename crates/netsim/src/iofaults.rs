//! Deterministic *storage* fault injection — [`faults`](crate::faults)
//! for the disk instead of the feed.
//!
//! The streaming pipeline persists artifacts (checkpoints, learned
//! knowledge) that real deployments lose to torn writes, bit rot, and
//! full disks. This module manufactures exactly those failures,
//! reproducibly from a seed, so the durability layer's recovery
//! guarantees can be asserted in CI:
//!
//! * [`StorageFault`] — the fault taxonomy: truncation at byte N, a
//!   single flipped bit, a silent short write, and a disk-full error.
//! * [`apply_fault`] — damage a byte image the way the fault would
//!   have left it.
//!
//! Determinism contract (same philosophy as [`crate::faults`]): the
//! fault derived by [`StorageFault::from_seed`] depends only on
//! `(kind, seed, len)`, so a CI matrix over seeds explores different
//! damage offsets without flaking.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The file keeps only its first `at` bytes (kill mid-write after a
    /// partial flush — the classic torn write).
    Truncate {
        /// Bytes surviving.
        at: usize,
    },
    /// Bit `bit` of byte `offset` is flipped (media corruption).
    BitFlip {
        /// Damaged byte offset.
        offset: usize,
        /// Flipped bit (0..8).
        bit: u8,
    },
    /// The writer silently accepts only the first `at` bytes and
    /// claims success (a lying storage layer).
    ShortWrite {
        /// Bytes actually persisted.
        at: usize,
    },
    /// The writer persists `at` bytes and then fails with an
    /// out-of-space error (surfaced to the caller, unlike
    /// [`StorageFault::ShortWrite`]).
    DiskFull {
        /// Bytes persisted before the error.
        at: usize,
    },
}

impl StorageFault {
    /// Derive a fault of `kind` deterministically from `seed` for an
    /// artifact of `len` bytes. Offsets land uniformly in `0..len`
    /// (0 when the artifact is empty). Returns `None` for an unknown
    /// kind; accepted spellings are the [`kind`](Self::kind) names
    /// (plus the `short`/`diskfull` shorthands).
    pub fn from_seed(kind: &str, seed: u64, len: usize) -> Option<StorageFault> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5d_10_fa_17);
        let at = if len == 0 { 0 } else { rng.gen_range(0..len) };
        let bit = rng.gen_range(0..8u32) as u8;
        StorageFault::new(kind, at, bit)
    }

    /// A fault of `kind` at byte `at`; `bit` is the flipped bit of a
    /// `bitflip` (the other kinds ignore it). The one name table behind
    /// [`StorageFault::from_seed`] and `sdigest inject --at`; `None` for
    /// an unknown kind.
    pub fn new(kind: &str, at: usize, bit: u8) -> Option<StorageFault> {
        match kind {
            "truncate" => Some(StorageFault::Truncate { at }),
            "bitflip" => Some(StorageFault::BitFlip { offset: at, bit }),
            "short" | "short-write" => Some(StorageFault::ShortWrite { at }),
            "diskfull" | "disk-full" => Some(StorageFault::DiskFull { at }),
            _ => None,
        }
    }

    /// Canonical kind name: `truncate`, `bitflip`, `short-write` or
    /// `disk-full` (CLI `--storage` values and CI matrix axes).
    pub fn kind(&self) -> &'static str {
        match self {
            StorageFault::Truncate { .. } => "truncate",
            StorageFault::BitFlip { .. } => "bitflip",
            StorageFault::ShortWrite { .. } => "short-write",
            StorageFault::DiskFull { .. } => "disk-full",
        }
    }
}

/// The byte image a disk holds after `fault` interferes with writing
/// `bytes`: truncation, short write and disk-full all leave a prefix;
/// a bit flip leaves the full length with one bit damaged.
pub fn apply_fault(bytes: &[u8], fault: &StorageFault) -> Vec<u8> {
    match *fault {
        StorageFault::Truncate { at }
        | StorageFault::ShortWrite { at }
        | StorageFault::DiskFull { at } => bytes[..at.min(bytes.len())].to_vec(),
        StorageFault::BitFlip { offset, bit } => {
            let mut out = bytes.to_vec();
            if let Some(b) = out.get_mut(offset) {
                *b ^= 1 << (bit % 8);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STORAGE_FAULT_KINDS: [&str; 4] = ["truncate", "bitflip", "short-write", "disk-full"];

    #[test]
    fn from_seed_is_deterministic_and_in_range() {
        for kind in STORAGE_FAULT_KINDS {
            let a = StorageFault::from_seed(kind, 7, 1000).expect("known kind");
            let b = StorageFault::from_seed(kind, 7, 1000).expect("known kind");
            assert_eq!(a, b);
            assert_eq!(a.kind(), kind);
            match a {
                StorageFault::Truncate { at }
                | StorageFault::ShortWrite { at }
                | StorageFault::DiskFull { at } => assert!(at < 1000),
                StorageFault::BitFlip { offset, bit } => {
                    assert!(offset < 1000);
                    assert!(bit < 8);
                }
            }
        }
        assert!(StorageFault::from_seed("melt", 7, 10).is_none());
        // An explicit offset goes through the same name table, shorthands
        // included.
        for (kind, canonical) in [("short", "short-write"), ("diskfull", "disk-full")] {
            assert_eq!(
                StorageFault::new(kind, 3, 0).map(|f| f.kind()),
                Some(canonical)
            );
        }
        assert_eq!(
            StorageFault::new("bitflip", 9, 5),
            Some(StorageFault::BitFlip { offset: 9, bit: 5 })
        );
        assert!(StorageFault::new("melt", 9, 5).is_none());
        // Different seeds explore different offsets.
        let offsets: std::collections::HashSet<usize> = (0..32)
            .map(
                |s| match StorageFault::from_seed("truncate", s, 1_000_000) {
                    Some(StorageFault::Truncate { at }) => at,
                    _ => unreachable!(),
                },
            )
            .collect();
        assert!(offsets.len() > 16);
    }

    #[test]
    fn apply_fault_leaves_a_prefix_or_one_flipped_bit() {
        let payload: Vec<u8> = (0..200u8).collect();
        for fault in [
            StorageFault::Truncate { at: 50 },
            StorageFault::ShortWrite { at: 50 },
            StorageFault::DiskFull { at: 50 },
        ] {
            assert_eq!(apply_fault(&payload, &fault), &payload[..50]);
        }
        let out = apply_fault(&payload, &StorageFault::BitFlip { offset: 10, bit: 0 });
        assert_eq!(out.len(), payload.len());
        assert_eq!(out[10], payload[10] ^ 1);
        assert_eq!(out[11], payload[11]);
    }
}
