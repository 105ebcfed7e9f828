//! The Fx hash (the rustc/Firefox multiply-rotate hash) for lookup maps
//! keyed by the knowledge base.
//!
//! Fx is several times cheaper than the default SipHash on short keys, but
//! it is not keyed: an adversary who picks the keys can collide them. Use
//! it only for maps whose keys come from configs or learned data, which
//! the feed can look up but never insert into; maps keyed by feed content
//! keep SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        if !rest.is_empty() {
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_tails_matter() {
        assert_eq!(fx("Serial1/0.10/10:0"), fx(&"Serial1/0.10/10:0".to_owned()));
        assert_ne!(fx("a"), fx("a\0"));
        assert_ne!(fx("Serial1/0"), fx("Serial1/1"));
        assert_ne!(fx(&(1u32, 2u32)), fx(&(2u32, 1u32)));
    }
}
