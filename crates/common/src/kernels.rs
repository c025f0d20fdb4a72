//! Vectorized column kernels for the data plane.
//!
//! Each kernel is a whole-column loop over the dense arrays of a
//! [`ColumnarBatch`](crate::ColumnarBatch), written so the compiler can
//! unroll and auto-vectorize it: no per-element branching on the hot path,
//! fixed-width inner chunks, and SWAR-style (SIMD-within-a-register) bit
//! tricks where a lane-parallel form exists. This extends the slab index's
//! ctrl-tag SWAR probing (`jisc-engine::slab`) from the index into the data
//! plane itself.
//!
//! [`hash_column`] produces bit-identical values to the scalar
//! [`hash_key`], so pre-hashed columns can feed the slab store's
//! `insert_hashed`/`for_each_match_hashed` entry points directly.

use crate::columnar::SelBitmap;
use crate::hash::hash_key;
use crate::tuple::Key;

/// Unroll width of the column loops. Four independent 64-bit lanes per
/// iteration is enough for LLVM to keep a 256-bit vector unit busy while
/// staying profitable on plain 64-bit ALUs (two-way ILP minimum).
const LANES: usize = 4;

/// Hash a whole key column, appending one hash per key to `out` (cleared
/// first). Bit-identical to [`hash_key`] per element.
pub fn hash_column(keys: &[Key], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(keys.len());
    let mut chunks = keys.chunks_exact(LANES);
    for c in &mut chunks {
        // Independent lanes: multiply-mix each key with no cross-lane
        // dependency, letting the compiler vectorize the chunk.
        out.extend_from_slice(&[
            hash_key(c[0]),
            hash_key(c[1]),
            hash_key(c[2]),
            hash_key(c[3]),
        ]);
    }
    for &k in chunks.remainder() {
        out.push(hash_key(k));
    }
}

/// Evaluate a key predicate over a whole column into a selection bitmap
/// (cleared first): bit `i` is set iff `pred(keys[i])`.
///
/// The word loop builds 64 lanes per output word branch-free — the
/// predicate result is shifted into position instead of driving control
/// flow — so cheap predicates (equality, comparisons) vectorize.
pub fn fill_bitmap(keys: &[Key], out: &mut SelBitmap, pred: impl Fn(Key) -> bool) {
    out.clear();
    for chunk in keys.chunks(64) {
        let mut word = 0u64;
        for (i, &k) in chunk.iter().enumerate() {
            word |= (pred(k) as u64) << i;
        }
        out.push_word(word, chunk.len());
    }
}

/// Selection bitmap of rows whose key equals `probe` — the equi-join
/// predicate kernel. The batched nested-loop join evaluates one stored
/// entry against an entire delta column with this, replacing a
/// per-delta-element scan of the state with one O(column/64)-word pass per
/// stored entry.
pub fn eq_bitmap(keys: &[Key], probe: Key, out: &mut SelBitmap) {
    fill_bitmap(keys, out, |k| k == probe);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_keys(n: usize, seed: u64) -> Vec<Key> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn hash_column_matches_scalar() {
        for n in [0, 1, 3, 4, 5, 63, 64, 65, 257] {
            let keys = random_keys(n, 42);
            let mut out = Vec::new();
            hash_column(&keys, &mut out);
            let scalar: Vec<u64> = keys.iter().map(|&k| hash_key(k)).collect();
            assert_eq!(out, scalar, "n={n}");
        }
    }

    #[test]
    fn eq_bitmap_selects_matches() {
        let keys: Vec<Key> = (0..200).map(|i| i % 5).collect();
        let mut bm = SelBitmap::new();
        eq_bitmap(&keys, 3, &mut bm);
        assert_eq!(bm.len(), 200);
        assert_eq!(bm.count(), 40);
        let mut hits = Vec::new();
        bm.for_each_set(|i| hits.push(i));
        assert!(hits.iter().all(|&i| keys[i] == 3));
        assert_eq!(hits.len(), 40);
    }

    #[test]
    fn fill_bitmap_arbitrary_predicate() {
        let keys = random_keys(130, 9);
        let mut bm = SelBitmap::new();
        fill_bitmap(&keys, &mut bm, |k| k % 2 == 0);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(bm.get(i), k % 2 == 0, "row {i}");
        }
    }

    #[test]
    fn kernels_reuse_scratch() {
        let keys = random_keys(10, 1);
        let mut out = vec![99; 500];
        hash_column(&keys, &mut out);
        assert_eq!(out.len(), 10, "output is cleared, not appended");
    }
}
