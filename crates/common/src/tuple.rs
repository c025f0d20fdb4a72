//! Tuple model: base stream tuples and joined (composite) tuples.
//!
//! Following the paper's execution model (§2.1), every stream of a query
//! shares a single join attribute (called `ID` in the paper, [`Key`] here).
//! A [`BaseTuple`] is one arrival on one stream; a [`JoinedTuple`] is the
//! concatenation of two tuples produced by a binary operator. Joined tuples
//! share substructure through [`Tuple`] clones (an `Arc` bump), so an n-way
//! join result costs O(1) per join step, not O(n).

use std::fmt;
use std::sync::Arc;

use crate::lineage::Lineage;

/// Join-attribute value (the paper's `ID`).
pub type Key = u64;

/// Global arrival sequence number; also serves as a logical timestamp.
pub type SeqNo = u64;

/// Identifies one input stream of a query.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StreamId(pub u16);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One arrival on one stream.
///
/// `payload` is opaque to the engine; callers treat it as a row id into their
/// own storage (see the examples for the pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseTuple {
    /// Stream this tuple arrived on.
    pub stream: StreamId,
    /// Global arrival sequence number (unique across all streams).
    pub seq: SeqNo,
    /// Join-attribute value.
    pub key: Key,
    /// Opaque caller payload (row id).
    pub payload: u64,
}

impl BaseTuple {
    /// Build a tuple; convenience for tests and generators.
    pub fn new(stream: StreamId, seq: SeqNo, key: Key, payload: u64) -> Self {
        BaseTuple {
            stream,
            seq,
            key,
            payload,
        }
    }
}

/// A join result: the concatenation of two tuples.
///
/// `key` is the join-attribute value the composite will be probed with by the
/// parent operator. Under the paper's single-attribute model this equals the
/// key of every constituent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinedTuple {
    /// Probe key for the parent operator.
    pub key: Key,
    /// Left input.
    pub left: Tuple,
    /// Right input.
    pub right: Tuple,
    /// Smallest constituent seq, cached at construction so containment and
    /// age checks reject without walking the lineage tree.
    seq_lo: SeqNo,
    /// Largest constituent seq as its distance from `seq_lo` — or
    /// [`WIDE_SPAN`] when that does not fit, in which case the largest seq
    /// is found by walking (only callers that pin seqs 2³² apart get there).
    /// Half a word, so that the two streams below ride in the other half
    /// and the struct stays 56 bytes: one more byte moves every composite
    /// into the next allocator size class (+16 bytes each, +12 % peak RSS
    /// where results are held, measured on `perf`'s `sharded`).
    span: u32,
    /// Stream of a constituent carrying `seq_lo`: `(lo_stream, seq_lo)` is
    /// by construction a base tuple of this composite, so containment of
    /// exactly that pair — window expiry's case, the expiring arrival being
    /// the oldest constituent of everything that contains it — is answered
    /// from this struct alone.
    lo_stream: StreamId,
    /// Stream of a constituent carrying the largest seq (see `lo_stream`).
    hi_stream: StreamId,
}

/// `JoinedTuple::span` of a composite whose seq range exceeds `u32`.
const WIDE_SPAN: u32 = u32::MAX;

const _: () = assert!(std::mem::size_of::<JoinedTuple>() == 56);

impl JoinedTuple {
    /// Largest constituent seq.
    #[inline]
    fn seq_hi(&self) -> SeqNo {
        if self.span != WIDE_SPAN {
            self.seq_lo + SeqNo::from(self.span)
        } else {
            self.left.max_seq().max(self.right.max_seq())
        }
    }
}

/// Either a base tuple or a joined composite; cheap to clone.
#[derive(Clone, PartialEq, Eq)]
pub enum Tuple {
    /// A single stream arrival.
    Base(Arc<BaseTuple>),
    /// A composite produced by a binary operator.
    Joined(Arc<JoinedTuple>),
}

impl Tuple {
    /// Wrap a base tuple.
    pub fn base(t: BaseTuple) -> Self {
        Tuple::Base(Arc::new(t))
    }

    /// Join two tuples under the given probe key.
    pub fn joined(key: Key, left: Tuple, right: Tuple) -> Self {
        let (seq_lo, lo_stream) = left.oldest().min(right.oldest());
        let (seq_hi, hi_stream) = left.newest().max(right.newest());
        Tuple::Joined(Arc::new(JoinedTuple {
            key,
            left,
            right,
            seq_lo,
            span: u32::try_from(seq_hi - seq_lo).unwrap_or(WIDE_SPAN),
            lo_stream,
            hi_stream,
        }))
    }

    /// `(seq, stream)` of a constituent with the smallest seq.
    #[inline]
    fn oldest(&self) -> (SeqNo, StreamId) {
        match self {
            Tuple::Base(b) => (b.seq, b.stream),
            Tuple::Joined(j) => (j.seq_lo, j.lo_stream),
        }
    }

    /// `(seq, stream)` of a constituent with the largest seq.
    #[inline]
    fn newest(&self) -> (SeqNo, StreamId) {
        match self {
            Tuple::Base(b) => (b.seq, b.stream),
            Tuple::Joined(j) => (j.seq_hi(), j.hi_stream),
        }
    }

    /// Join-attribute value this tuple is probed/stored under.
    #[inline]
    pub fn key(&self) -> Key {
        match self {
            Tuple::Base(b) => b.key,
            Tuple::Joined(j) => j.key,
        }
    }

    /// Number of base tuples in this composite.
    pub fn arity(&self) -> usize {
        let mut n = 0;
        self.for_each_base(&mut |_| n += 1);
        n
    }

    /// Latest (largest) arrival sequence number among constituents.
    ///
    /// Used by the Parallel Track strategy to decide whether a state entry is
    /// "old" (contains a pre-transition arrival) or "new".
    #[inline]
    pub fn max_seq(&self) -> SeqNo {
        self.newest().0
    }

    /// Earliest (smallest) arrival sequence number among constituents.
    #[inline]
    pub fn min_seq(&self) -> SeqNo {
        self.oldest().0
    }

    /// Visit every base tuple in the composite (in left-to-right tree order).
    pub fn for_each_base(&self, f: &mut impl FnMut(&Arc<BaseTuple>)) {
        match self {
            Tuple::Base(b) => f(b),
            Tuple::Joined(j) => {
                j.left.for_each_base(f);
                j.right.for_each_base(f);
            }
        }
    }

    /// The constituent from `stream`, if present.
    pub fn base_for(&self, stream: StreamId) -> Option<Arc<BaseTuple>> {
        match self {
            Tuple::Base(b) => (b.stream == stream).then(|| Arc::clone(b)),
            Tuple::Joined(j) => j.left.base_for(stream).or_else(|| j.right.base_for(stream)),
        }
    }

    /// True if the exact base tuple `(stream, seq)` is a constituent.
    ///
    /// Composites carry a cached constituent seq range, so a tuple that
    /// cannot contain `seq` is rejected in O(1) — the common case when
    /// expiry scans a key chain whose entries are all newer than the
    /// expiring arrival. The range's two end constituents are cached with
    /// their streams, so asking for exactly one of them — what window
    /// expiry asks, its victim being the oldest constituent of every
    /// composite that contains it — is accepted in O(1) too. Anything else,
    /// including a `seq` that matches a bound on a *different* stream (seq
    /// numbers may repeat across streams when callers pin them), walks the
    /// lineage, pruning subtrees by their own ranges.
    pub fn contains_base(&self, stream: StreamId, seq: SeqNo) -> bool {
        match self {
            Tuple::Base(b) => b.stream == stream && b.seq == seq,
            Tuple::Joined(j) => {
                let seq_hi = j.seq_hi();
                if seq < j.seq_lo || seq > seq_hi {
                    return false;
                }
                if (seq, stream) == (j.seq_lo, j.lo_stream)
                    || (seq, stream) == (seq_hi, j.hi_stream)
                {
                    debug_assert!(self.walk_contains_base(stream, seq));
                    return true;
                }
                j.left.contains_base(stream, seq) || j.right.contains_base(stream, seq)
            }
        }
    }

    /// [`Tuple::contains_base`] by visiting every constituent: the rule the
    /// cached bounds must agree with.
    fn walk_contains_base(&self, stream: StreamId, seq: SeqNo) -> bool {
        let mut found = false;
        self.for_each_base(&mut |b| found |= b.stream == stream && b.seq == seq);
        found
    }

    /// Canonical lineage: sorted `(stream, seq)` pairs of all constituents.
    ///
    /// Two composites with equal lineage represent the same logical join
    /// result regardless of the join order that produced them; this is the
    /// identity used for duplicate elimination and output comparison.
    pub fn lineage(&self) -> Lineage {
        let mut parts = Vec::with_capacity(4);
        self.for_each_base(&mut |b| parts.push((b.stream, b.seq)));
        Lineage::new(parts)
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tuple::Base(b) => write!(f, "{}#{}(k={})", b.stream, b.seq, b.key),
            Tuple::Joined(j) => write!(f, "({:?}⋈{:?})", j.left, j.right),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bt(stream: u16, seq: SeqNo, key: Key) -> Tuple {
        Tuple::base(BaseTuple::new(StreamId(stream), seq, key, 0))
    }

    #[test]
    fn base_accessors() {
        let t = bt(1, 7, 42);
        assert_eq!(t.key(), 42);
        assert_eq!(t.arity(), 1);
        assert_eq!(t.max_seq(), 7);
        assert_eq!(t.min_seq(), 7);
        assert!(t.contains_base(StreamId(1), 7));
        assert!(!t.contains_base(StreamId(1), 8));
        assert!(!t.contains_base(StreamId(2), 7));
    }

    #[test]
    fn joined_composite_tracks_constituents() {
        let r = bt(0, 1, 5);
        let s = bt(1, 2, 5);
        let t = bt(2, 9, 5);
        let rs = Tuple::joined(5, r.clone(), s.clone());
        let rst = Tuple::joined(5, rs.clone(), t.clone());

        assert_eq!(rst.arity(), 3);
        assert_eq!(rst.key(), 5);
        assert_eq!(rst.max_seq(), 9);
        assert_eq!(rst.min_seq(), 1);
        assert!(rst.contains_base(StreamId(0), 1));
        assert!(rst.contains_base(StreamId(2), 9));
        assert!(!rst.contains_base(StreamId(2), 1));
        assert_eq!(rst.base_for(StreamId(1)).unwrap().seq, 2);
        assert!(rst.base_for(StreamId(3)).is_none());
    }

    #[test]
    fn lineage_is_order_independent() {
        let r = bt(0, 1, 5);
        let s = bt(1, 2, 5);
        let t = bt(2, 3, 5);
        // (r ⋈ s) ⋈ t  vs  r ⋈ (t ⋈ s): same logical result, same lineage.
        let a = Tuple::joined(5, Tuple::joined(5, r.clone(), s.clone()), t.clone());
        let b = Tuple::joined(5, r, Tuple::joined(5, t, s));
        assert_eq!(a.lineage(), b.lineage());
    }

    #[test]
    fn clone_shares_structure() {
        let r = bt(0, 1, 5);
        let s = bt(1, 2, 5);
        let rs = Tuple::joined(5, r, s);
        let rs2 = rs.clone();
        match (&rs, &rs2) {
            (Tuple::Joined(a), Tuple::Joined(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected joined"),
        }
    }
}
