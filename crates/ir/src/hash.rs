//! A fast, deterministic hasher for the integer-keyed maps on hot paths.
//!
//! std's default SipHash is built to resist hash flooding, which nothing in
//! this workspace needs: every key is a word address, a cache line, a page
//! number or a dense id that the program itself produced. [`FastHasher`] is
//! an Fx-style multiplicative hash instead. Each word written is xored into
//! the state, which is then multiplied by 2^64/φ. `finish` rotates the
//! product so that a hash table's bucket-index bits come from its middle
//! (bit 28 up), above the low bits that keys with a power-of-two stride
//! leave constant, and its tag bits (the top 7) from just below those.
//! Strided keys — consecutive words, cache lines, pages, far-apart
//! addresses and their negatives — therefore spread over buckets rather
//! than piling into a few. The rotation was chosen by measuring that
//! spread (`tests/fast_hash.rs` pins it).
//!
//! Unlike std's `RandomState`, the hash carries no per-process seed, so a
//! [`FastMap`] iterates in the same order on every run. Code must still not
//! let that order reach an output: it changes with the table's history.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, rounded to odd: the classic Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Rotation applied by [`Hasher::finish`]; bucket-index bits start at
/// product bit `64 - ROTATE`.
const ROTATE: u32 = 28;

/// A multiplicative integer hasher (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Byte strings fold in one byte at a time; no hot map keys on them.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(ROTATE)
    }
}

/// Builds [`FastHasher`]s; the hasher parameter of [`FastMap`]/[`FastSet`].
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`]. Create with `default()`.
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A `HashSet` keyed through [`FastHasher`]. Create with `default()`.
pub type FastSet<K> = HashSet<K, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        FastBuild::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_hashing_is_seedless() {
        assert_eq!(hash(42i64), hash(42i64));
        assert_ne!(hash(42i64), hash(43i64));
        // No per-process seed: the value is a pure function of the key.
        assert_eq!(hash(1i64), (1u64.wrapping_mul(K)).rotate_left(ROTATE));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn maps_and_sets_work_with_default() {
        let mut m: FastMap<i64, u32> = FastMap::default();
        m.insert(-7, 1);
        m.insert(1 << 40, 2);
        assert_eq!(m.get(&-7), Some(&1));
        assert_eq!(m[&(1 << 40)], 2);
        let mut s: FastSet<usize> = FastSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }
}
