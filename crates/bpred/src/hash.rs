//! A fast, deterministic hasher for branch-address keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::Addr;

/// fxhash's 64-bit multiplier (golden-ratio derived, odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply-xor hasher for the small integer keys the predictor tables
/// use. Address keys hash in a handful of cycles instead of SipHash's
/// dozens, which matters because table-backed predictors hash on every
/// simulated dispatch. Deterministic across processes and runs: the
/// predictors never iterate their maps, so no result depends on bucket
/// order, and a fixed seed keeps the simulator fully reproducible.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A multiply's mixing lives in its high bits, but the table
        // indexes buckets by the low bits; fold the halves together so
        // aligned addresses (low bits mostly zero) still spread.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// The deterministic fast-hash state all predictor maps share.
pub type AddrHashBuilder = BuildHasherDefault<AddrHasher>;

/// Hashes a sequence of words through one `AddrHasher` stream.
///
/// The tagged-table predictors (ITTAGE, the path hybrid) derive both
/// their table indexes and their partial tags from `(branch, folded
/// history, table id)` tuples; routing every such derivation through
/// this helper keeps all predictor hashing on the single deterministic
/// hash family instead of growing ad-hoc mixers per table.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h = AddrHasher::default();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// A [`hash_words`] stream with its leading words already absorbed.
///
/// The tagged-table predictors hash many tuples that start with the same
/// word (the branch address) on every event. Absorbing that word once and
/// resuming from the saved state yields exactly
/// `hash_words(&[prefix.., rest..])` while skipping the shared multiply.
///
/// # Examples
///
/// ```
/// use ivm_bpred::{hash_words, HashPrefix};
///
/// let branch = HashPrefix::new(&[0x40]);
/// assert_eq!(branch.hash(&[7, 1]), hash_words(&[0x40, 7, 1]));
/// assert_eq!(branch.hash(&[]), hash_words(&[0x40]));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HashPrefix(u64);

impl HashPrefix {
    /// Absorbs the leading `words` of a [`hash_words`] stream.
    #[inline]
    pub fn new(words: &[u64]) -> Self {
        let mut h = AddrHasher::default();
        for &w in words {
            h.write_u64(w);
        }
        HashPrefix(h.0)
    }

    /// Finishes the stream with the remaining `words`.
    #[inline]
    pub fn hash(self, words: &[u64]) -> u64 {
        let mut h = AddrHasher(self.0);
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }
}

/// A `HashMap` keyed by branch address with the fast deterministic hash.
pub(crate) type AddrMap<V> = HashMap<Addr, V, AddrHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_and_spreading() {
        let build = AddrHashBuilder::default();
        let h = |v: u64| build.hash_one(v);
        assert_eq!(h(0x1234), h(0x1234), "same key must hash identically");
        // Nearby addresses (the common BTB access pattern) land in
        // different buckets: check low-bit diversity over a dense range.
        let mut low_bits = std::collections::HashSet::new();
        for a in 0..64u64 {
            low_bits.insert(h(0x1000 + a * 8) & 0x3f);
        }
        assert!(low_bits.len() > 32, "only {} distinct low-6-bit values", low_bits.len());
    }
}
