//! A fast, non-cryptographic hasher in the style of rustc's `FxHasher`.
//!
//! The engine hashes millions of small integer keys (join-attribute values);
//! SipHash is needlessly slow for that and HashDoS is not a concern for a
//! reproduction harness. The algorithm below is the classic Fx multiply-rotate
//! mix (public-domain idea, ~15 lines), hand-rolled so the workspace does not
//! pull an unlisted dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher; drop-in via [`FxHashMap`] / [`FxHashSet`].
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

/// The Fx multiplier.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash a join-attribute value the way the engine's state indexes do.
///
/// The slab-backed open-addressing index in `jisc-engine` derives its
/// group index from the low bits of this value and its 7-bit tag from the
/// high bits, so both ends must be well mixed. The batched probe kernel
/// pre-hashes whole tuple batches with this function and hands the hashes
/// down, which is why it lives here rather than inside the index: one
/// definition, computed once per tuple, shared by every layer.
#[inline]
pub fn hash_key(key: u64) -> u64 {
    let h = key.wrapping_mul(SEED);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinct_keys_hash_differently() {
        // Not a crypto property, just a sanity check that the mix spreads.
        let a = hash_one(1u64);
        let b = hash_one(2u64);
        let c = hash_one(3u64);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("stream-R"), hash_one("stream-R"));
    }

    #[test]
    fn byte_tail_is_hashed() {
        // Inputs differing only in trailing (non-8-aligned) bytes must differ.
        assert_ne!(
            hash_one([1u8, 2, 3].as_slice()),
            hash_one([1u8, 2, 4].as_slice())
        );
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&21], 42);
        let s: FxHashSet<u64> = (0..100).collect();
        assert!(s.contains(&99));
        assert!(!s.contains(&100));
    }
}
