//! FNV-1a (64-bit), the workspace's content digest. Artifact checksums,
//! knowledge fingerprints, skewed-router selection and golden digests all
//! fold their bytes through [`Fnv`]; their values are stored in files, so
//! the definition must never change.

/// Streaming FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// FNV-1a of `bytes` in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.finish()
    }

    /// Fold bytes in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one u64 in (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(Fnv::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn is_stable_and_order_sensitive() {
        let mut a = Fnv::default();
        a.write(b"ab");
        let mut b = Fnv::default();
        b.write(b"ba");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::default();
        c.write(b"a");
        c.write(b"b");
        assert_eq!(a.finish(), c.finish());
    }
}
