//! Property tests for the shared data model.

use jisc_common::{BaseTuple, FxHasher, Lineage, SplitMix64, StreamId, Tuple};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};

fn hash_one<T: Hash>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    /// Lineage is canonical: any permutation of the same parts is equal,
    /// hashes equally, and sorts equally.
    #[test]
    fn lineage_canonical_under_permutation(
        mut parts in proptest::collection::vec((0u16..8, 0u64..1000), 1..6),
        seed in 0u64..1000,
    ) {
        parts.dedup();
        let a = Lineage::new(parts.iter().map(|&(s, q)| (StreamId(s), q)).collect());
        let mut shuffled = parts.clone();
        SplitMix64::new(seed).shuffle(&mut shuffled);
        let b = Lineage::new(shuffled.iter().map(|&(s, q)| (StreamId(s), q)).collect());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hash_one(&a), hash_one(&b));
        prop_assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    /// A composite's lineage contains exactly its constituents, regardless
    /// of the join-tree shape that produced it.
    #[test]
    fn tuple_lineage_matches_constituents(
        keys in proptest::collection::vec(0u64..100, 2..6),
        seed in 0u64..1000,
    ) {
        let bases: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Tuple::base(BaseTuple::new(StreamId(i as u16), i as u64, k, 0)))
            .collect();
        // Fold into a random-shaped tree.
        let mut rng = SplitMix64::new(seed);
        let mut nodes = bases.clone();
        while nodes.len() > 1 {
            let i = rng.next_below(nodes.len() as u64 - 1) as usize;
            let l = nodes.remove(i);
            let r = nodes.remove(i);
            nodes.insert(i, Tuple::joined(l.key(), l, r));
        }
        let t = nodes.pop().unwrap();
        prop_assert_eq!(t.arity(), keys.len());
        for (i, _) in keys.iter().enumerate() {
            prop_assert!(t.contains_base(StreamId(i as u16), i as u64));
            prop_assert!(t.lineage().contains(StreamId(i as u16), i as u64));
        }
        prop_assert_eq!(t.max_seq(), keys.len() as u64 - 1);
        prop_assert_eq!(t.min_seq(), 0);
    }

    /// `contains_base` (cached bounds, O(1) accept of the bound
    /// constituents) equals the plain walk over every constituent, and
    /// `min_seq`/`max_seq` the plain extremes — on bushy and left-deep
    /// trees, with seqs drawn from a range so narrow that two streams
    /// regularly carry the same seq, with a quarter of them 2⁴⁰ away so
    /// the cached span overflows its half word, and asked about every
    /// `(stream, seq)` combination near the bounds, present or not.
    #[test]
    fn contains_base_equals_the_lineage_walk(
        seqs in proptest::collection::vec((0u64..6, 0u8..4), 2..8),
        left_deep in any::<bool>(),
        seed in 0u64..1000,
    ) {
        const FAR: u64 = 1 << 40;
        let mut rng = SplitMix64::new(seed);
        let seqs: Vec<u64> = seqs.iter().map(|&(q, far)| if far == 0 { q + FAR } else { q }).collect();
        let mut nodes: Vec<Tuple> = seqs
            .iter()
            .enumerate()
            .map(|(i, &q)| Tuple::base(BaseTuple::new(StreamId(i as u16), q, 7, 0)))
            .collect();
        while nodes.len() > 1 {
            let i = if left_deep { 0 } else { rng.next_below(nodes.len() as u64 - 1) as usize };
            let l = nodes.remove(i);
            let r = nodes.remove(i);
            // Either child order: the bounds must not depend on it.
            let (l, r) = if rng.next_below(2) == 0 { (l, r) } else { (r, l) };
            nodes.insert(i, Tuple::joined(7, l, r));
        }
        let t = nodes.pop().unwrap();
        prop_assert_eq!(t.min_seq(), *seqs.iter().min().unwrap());
        prop_assert_eq!(t.max_seq(), *seqs.iter().max().unwrap());
        for stream in 0..seqs.len() as u16 + 1 {
            for seq in (0..7).chain(FAR..FAR + 7) {
                let mut walked = false;
                t.for_each_base(&mut |b| walked |= b.stream == StreamId(stream) && b.seq == seq);
                prop_assert_eq!(
                    t.contains_base(StreamId(stream), seq),
                    walked,
                    "({}, {}) in {:?}", stream, seq, t
                );
            }
        }
    }

    /// SplitMix64's bounded sampling is always within bounds and the
    /// shuffle is a permutation.
    #[test]
    fn rng_bounds_and_shuffle(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(bound) < bound);
        }
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        prop_assert_eq!(s, (0..50).collect::<Vec<_>>());
    }
}
