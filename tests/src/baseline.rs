//! Reference hash-state layout: the pre-slab `FxHashMap<Key, Vec<Tuple>>`.
//!
//! This is the storage design [`SlabStore`](jisc_engine::SlabStore)
//! replaced: one heap-allocated bucket `Vec` per key, no insertion-order
//! index, and window expiry implemented as a bucket retain-scan. It is the
//! oracle for the slab-equivalence property tests
//! (`tests/state_equivalence.rs`) and is not used by the engine.
//!
//! The operation set and accounting mirror the subset of
//! [`State`](jisc_engine::State)'s hash-store API the tests exercise;
//! behavioural parity (same visit order, same removal semantics) is what
//! the property tests assert.

use jisc_common::{FxHashMap, FxHashSet, Key, Metrics, SeqNo, StreamId, Tuple};

/// The old hash layout: per-key bucket vectors.
#[derive(Debug, Clone, Default)]
pub struct BaselineStore {
    map: FxHashMap<Key, Vec<Tuple>>,
    len: usize,
}

impl BaselineStore {
    /// Fresh empty store.
    pub fn new() -> Self {
        BaselineStore::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct keys currently present.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Insert an entry under its own key.
    pub fn insert(&mut self, t: Tuple, m: &mut Metrics) {
        m.inserts += 1;
        self.map.entry(t.key()).or_default().push(t);
        self.len += 1;
    }

    /// Visit each entry matching `key` in insertion order.
    pub fn for_each_match(&self, key: Key, m: &mut Metrics, mut f: impl FnMut(&Tuple)) {
        m.probes += 1;
        if let Some(bucket) = self.map.get(&key) {
            for t in bucket {
                f(t);
            }
        }
    }

    /// Remove all entries containing the base tuple `(stream, seq)` under
    /// `key` — the old expiry path: retain-scan of the whole bucket.
    pub fn remove_containing(
        &mut self,
        stream: StreamId,
        seq: SeqNo,
        key: Key,
        m: &mut Metrics,
    ) -> usize {
        m.probes += 1;
        let gone = match self.map.get_mut(&key) {
            None => 0,
            Some(bucket) => {
                let before = bucket.len();
                bucket.retain(|t| !t.contains_base(stream, seq));
                let gone = before - bucket.len();
                if bucket.is_empty() {
                    self.map.remove(&key);
                }
                gone
            }
        };
        self.len -= gone;
        m.removals += gone as u64;
        gone
    }

    /// Remove every entry stored under `key`.
    pub fn remove_key(&mut self, key: Key, m: &mut Metrics) -> usize {
        m.probes += 1;
        let gone = self.map.remove(&key).map_or(0, |b| b.len());
        self.len -= gone;
        m.removals += gone as u64;
        gone
    }

    /// Distinct keys currently present.
    pub fn distinct_keys(&self) -> FxHashSet<Key> {
        self.map.keys().copied().collect()
    }

    /// Iterate all entries (bucket order; *not* global insertion order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.map.values().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::BaseTuple;

    #[test]
    fn mirrors_old_state_semantics() {
        let mut m = Metrics::new();
        let mut s = BaselineStore::new();
        for seq in 0..6 {
            s.insert(
                Tuple::base(BaseTuple::new(StreamId(0), seq, seq % 2, 0)),
                &mut m,
            );
        }
        assert_eq!(s.len(), 6);
        assert_eq!(s.key_count(), 2);
        let mut seen = Vec::new();
        s.for_each_match(0, &mut m, |t| seen.push(t.max_seq()));
        assert_eq!(seen, vec![0, 2, 4], "bucket preserves insertion order");
        assert_eq!(s.remove_containing(StreamId(0), 2, 0, &mut m), 1);
        assert_eq!(s.remove_key(1, &mut m), 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.distinct_keys(), [0].into_iter().collect());
        assert_eq!(s.iter().count(), 2);
    }
}
