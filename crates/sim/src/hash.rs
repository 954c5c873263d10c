//! FNV-1a (64-bit): the one hash behind svc key routing and every
//! replay digest a benchmark commits.
//!
//! Committed digests are compared bit-for-bit across hosts and
//! releases, so the hash must never change with the toolchain — which
//! rules out `std::hash::DefaultHasher`.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// An incremental FNV-1a 64 hasher.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{fnv1a, Fnv1a};
/// let mut h = Fnv1a::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), fnv1a(b"foobar"));
/// assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// Fold `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold `v` in as its 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// FNV-1a 64 of one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
