//! Operator states: the materialized output of each plan node.
//!
//! Following the paper's model (§2.1), every node of a query evaluation plan
//! owns a *state*: a scan node's state is the current window contents of its
//! stream; a join node's state is the materialized join of its children's
//! states; a set-difference node's state is the currently-visible outer
//! tuples. A binary operator probes the states of its children and inserts
//! results into its own state, which is in turn probed by its parent.
//!
//! States also carry the migration bookkeeping JISC needs (§4.3–§4.4):
//! a completeness flag (Definition 1), the pending-key set backing the
//! completion-detection counter, and — for bushy Case-3 states — the set of
//! keys already completed on demand.

use jisc_common::{
    hash_key, FxHashSet, JiscError, Key, KeyRange, Lineage, Metrics, Result, SeqNo, StreamId, Tuple,
};

use crate::predicate::Predicate;
use crate::slab::{SlabStats, SlabStore, WarmDepth};
use crate::spill::{SpillConfig, SpillStats};

/// Physical layout of a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Hash-partitioned by join key; O(1) probes (symmetric hash join,
    /// stream scans, set-difference).
    Hash,
    /// Flat list; probes scan every entry (nested-loops / theta joins).
    List,
}

/// Entry storage.
///
/// The hash layout is the cache-conscious [`SlabStore`]: an open-addressing
/// index over a contiguous slab arena with intrusive per-key chains and an
/// insertion-order ring (see [`crate::slab`]).
#[derive(Debug, Clone)]
enum Store {
    Hash(SlabStore),
    List(Vec<Tuple>),
}

/// Tracks which join-attribute values still need on-demand completion.
///
/// `Known` backs the integer counter of §4.3 (Cases 1 and 2): the counter's
/// value is the set's size, and the state is declared complete when it
/// reaches zero. `Unknown` is Case 3 (bushy plan, both children incomplete):
/// no counter can be initialized, so completed keys are tracked positively
/// and completion is detected through child notifications instead.
#[derive(Debug, Clone)]
pub enum PendingKeys {
    /// Keys awaiting completion; size of this set is the paper's counter.
    Known(FxHashSet<Key>),
    /// Case 3: pending set unknowable at transition time; remembers keys
    /// completed so far.
    Unknown { completed: FxHashSet<Key> },
}

/// A node's materialized state plus migration bookkeeping.
#[derive(Debug, Clone)]
pub struct State {
    store: Store,
    /// Definition 1: does this state hold *all* entries implied by the
    /// current windows? Always true outside migration.
    complete: bool,
    /// Present only while `!complete`.
    pending: Option<PendingKeys>,
    /// Total entries (cached so hash states report length in O(1)).
    len: usize,
    /// Per-key entry counts, maintained for `List` stores only (hash stores
    /// answer key questions from their buckets). Keeps the §4.3 counter
    /// seed [`State::distinct_key_count`] O(1) instead of a full scan plus
    /// a throwaway set allocation per call. Empty for `Hash` stores.
    list_keys: jisc_common::FxHashMap<Key, u32>,
}

/// Decrement a per-key count, dropping the entry at zero.
fn list_note_removed(counts: &mut jisc_common::FxHashMap<Key, u32>, key: Key) {
    if let Some(c) = counts.get_mut(&key) {
        *c -= 1;
        if *c == 0 {
            counts.remove(&key);
        }
    }
}

impl State {
    /// Fresh, empty, complete state of the given layout.
    pub fn new(kind: StoreKind) -> Self {
        let store = match kind {
            StoreKind::Hash => Store::Hash(SlabStore::new()),
            StoreKind::List => Store::List(Vec::new()),
        };
        State {
            store,
            complete: true,
            pending: None,
            len: 0,
            list_keys: Default::default(),
        }
    }

    /// Physical layout of this state.
    pub fn kind(&self) -> StoreKind {
        match self.store {
            Store::Hash(_) => StoreKind::Hash,
            Store::List(_) => StoreKind::List,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // ----- completeness bookkeeping (Definition 1, §4.3) -----

    /// Is this state complete (Definition 1)?
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Mark complete and drop pending bookkeeping.
    pub fn mark_complete(&mut self) {
        self.complete = true;
        self.pending = None;
    }

    /// Mark incomplete with the given pending-key tracking.
    pub fn mark_incomplete(&mut self, pending: PendingKeys) {
        self.complete = false;
        self.pending = Some(pending);
    }

    /// The §4.3 counter value, if this state tracks one (Cases 1 and 2).
    pub fn counter(&self) -> Option<usize> {
        match &self.pending {
            Some(PendingKeys::Known(s)) => Some(s.len()),
            _ => None,
        }
    }

    /// Does `key` still need on-demand completion at this state?
    ///
    /// Complete states never do. Known-pending states need it iff the key is
    /// pending; Case-3 states need it unless already completed once.
    pub fn needs_completion(&self, key: Key) -> bool {
        if self.complete {
            return false;
        }
        match &self.pending {
            Some(PendingKeys::Known(s)) => s.contains(&key),
            Some(PendingKeys::Unknown { completed }) => !completed.contains(&key),
            // Incomplete but no pending info: be conservative.
            None => true,
        }
    }

    /// Record that `key` has been completed at this state; decrements the
    /// counter (Known) or grows the completed set (Unknown). Returns `true`
    /// if this state just became complete (counter hit zero).
    pub fn note_key_completed(&mut self, key: Key) -> bool {
        match &mut self.pending {
            Some(PendingKeys::Known(s)) => {
                s.remove(&key);
                if s.is_empty() {
                    self.mark_complete();
                    return true;
                }
                false
            }
            Some(PendingKeys::Unknown { completed }) => {
                completed.insert(key);
                false
            }
            None => false,
        }
    }

    /// Drop `key` from the pending set because it vanished from the child
    /// states (window expiry): there is nothing left to complete for it.
    /// Returns `true` if the state just became complete.
    pub fn note_key_expired(&mut self, key: Key) -> bool {
        if let Some(PendingKeys::Known(s)) = &mut self.pending {
            s.remove(&key);
            if s.is_empty() {
                self.mark_complete();
                return true;
            }
        }
        false
    }

    /// For Case-3 states whose children have both become complete: replace
    /// the unknown pending tracking with the residual key set that still
    /// needs completion. If it is empty the state becomes complete.
    /// Returns `true` if the state just became complete.
    pub fn resolve_case3(&mut self, residual: FxHashSet<Key>) -> bool {
        if self.complete {
            return true;
        }
        if residual.is_empty() {
            self.mark_complete();
            true
        } else {
            self.pending = Some(PendingKeys::Known(residual));
            false
        }
    }

    /// Keys completed so far on a Case-3 state (empty set otherwise).
    pub fn completed_keys(&self) -> Option<&FxHashSet<Key>> {
        match &self.pending {
            Some(PendingKeys::Unknown { completed }) => Some(completed),
            _ => None,
        }
    }

    /// Add freshly adopted keys to this state's completion debt (elastic
    /// range handover, target side): the moved keys' derived entries were
    /// not shipped, so each must be completed on demand before its first
    /// probe. A complete state becomes incomplete with a `Known` pending
    /// set; a `Known` state grows its set; a Case-3 state forgets any prior
    /// completion of the keys so they are re-completed. Returns `true` if
    /// the state just transitioned from complete to incomplete.
    pub fn add_pending_keys(&mut self, keys: impl IntoIterator<Item = Key>) -> bool {
        match &mut self.pending {
            Some(PendingKeys::Known(s)) => {
                s.extend(keys);
                false
            }
            Some(PendingKeys::Unknown { completed }) => {
                for k in keys {
                    completed.remove(&k);
                }
                false
            }
            None => {
                let set: FxHashSet<Key> = keys.into_iter().collect();
                if set.is_empty() {
                    return false;
                }
                let was_complete = self.complete;
                self.mark_incomplete(PendingKeys::Known(set));
                was_complete
            }
        }
    }

    /// Drop completion debt for keys hashing into `ranges` (elastic range
    /// handover, source side): the keys left this shard, so nothing here
    /// will ever probe them again. `Known` sets shrink — possibly to
    /// completion; Case-3 states only forget the keys' completed marks (the
    /// pending set is unknowable, so it cannot shrink). Returns `true` if
    /// the state just became complete.
    pub fn prune_pending_in_ranges(&mut self, ranges: &[KeyRange]) -> bool {
        let in_range = |k: &Key| {
            let h = hash_key(*k);
            ranges.iter().any(|r| r.contains(h))
        };
        match &mut self.pending {
            Some(PendingKeys::Known(s)) => {
                s.retain(|k| !in_range(k));
                if s.is_empty() {
                    self.mark_complete();
                    return true;
                }
                false
            }
            Some(PendingKeys::Unknown { completed }) => {
                completed.retain(|k| !in_range(k));
                false
            }
            None => false,
        }
    }

    // ----- entry operations -----

    /// Insert an entry under its own key.
    pub fn insert(&mut self, t: Tuple, m: &mut Metrics) {
        m.inserts += 1;
        self.len += 1;
        match &mut self.store {
            Store::Hash(slab) => slab.insert(t, m),
            Store::List(v) => {
                *self.list_keys.entry(t.key()).or_insert(0) += 1;
                v.push(t);
            }
        }
    }

    /// [`State::insert`] with the key's hash already computed (batched
    /// ingest pre-hashes whole batches once). List states ignore the hash.
    pub fn insert_hashed(&mut self, h: u64, t: Tuple, m: &mut Metrics) {
        match &mut self.store {
            Store::Hash(slab) => {
                m.inserts += 1;
                self.len += 1;
                slab.insert_hashed(h, t.key(), t, m);
            }
            Store::List(_) => self.insert(t, m),
        }
    }

    /// Entries matching `key` (hash states: the bucket; list states: a scan).
    ///
    /// Counts one probe (hash) or `len` comparisons (list). Allocates a
    /// fresh `Vec` per call — the probe hot path uses
    /// [`State::lookup_into`] / [`State::for_each_match`] instead.
    pub fn lookup(&self, key: Key, m: &mut Metrics) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.lookup_into(key, m, &mut out);
        out
    }

    /// Append entries matching `key` to `out` (same accounting as
    /// [`State::lookup`], no allocation beyond `out`'s growth).
    pub fn lookup_into(&self, key: Key, m: &mut Metrics, out: &mut Vec<Tuple>) {
        self.for_each_match(key, m, |t| out.push(t.clone()));
    }

    /// Visit each entry matching `key` without cloning or allocating.
    ///
    /// Counts one probe (hash) or `len` comparisons (list), exactly like
    /// [`State::lookup`].
    pub fn for_each_match(&self, key: Key, m: &mut Metrics, mut f: impl FnMut(&Tuple)) {
        m.probes += 1;
        match &self.store {
            Store::Hash(slab) => slab.for_each_match(key, m, f),
            Store::List(v) => {
                m.nlj_comparisons += v.len() as u64;
                for t in v.iter().filter(|t| t.key() == key) {
                    f(t);
                }
            }
        }
    }

    /// [`State::for_each_match`] with the key's hash already computed —
    /// the columnar flush hashes a whole `ColumnarBatch` once and probes
    /// after [`State::warm`] has staged the index lines of the column.
    /// Accounting is identical to [`State::for_each_match`].
    pub fn for_each_match_hashed(&self, h: u64, key: Key, m: &mut Metrics, f: impl FnMut(&Tuple)) {
        match &self.store {
            Store::Hash(slab) => {
                m.probes += 1;
                slab.for_each_match_hashed(h, key, m, f);
            }
            Store::List(_) => self.for_each_match(key, m, f),
        }
    }

    /// Prefetch the index cache lines `h` will probe (no-op for lists).
    #[inline]
    pub fn prefetch(&self, h: u64) {
        if let Store::Hash(slab) = &self.store {
            slab.prefetch(h);
        }
    }

    /// Group-prefetched warm-up of a column of `(hash, key)` items ahead of
    /// the per-item operations that follow (see [`SlabStore::warm`]; no-op
    /// for lists). A pure hint: reads only, no [`Metrics`].
    #[inline]
    pub fn warm(
        &self,
        depth: WarmDepth,
        n: usize,
        item: impl Fn(usize) -> (u64, Key),
        cur: &mut Vec<u32>,
    ) {
        if let Store::Hash(slab) = &self.store {
            slab.warm(depth, n, item, cur);
        }
    }

    /// Pre-size the underlying storage for roughly `entries` entries over
    /// `keys` distinct keys (checkpoint restore sizes states up front so
    /// replay does not pay growth rehashes).
    pub fn reserve(&mut self, keys: usize, entries: usize, m: &mut Metrics) {
        match &mut self.store {
            Store::Hash(slab) => slab.reserve(keys, entries, m),
            Store::List(v) => v.reserve(entries.saturating_sub(v.len())),
        }
    }

    /// Slab occupancy diagnostics (`None` for list states).
    pub fn slab_stats(&self) -> Option<SlabStats> {
        match &self.store {
            Store::Hash(slab) => Some(slab.stats()),
            Store::List(_) => None,
        }
    }

    // ----- tiered spill (memory-budgeted hash states) -----

    /// Put this state's slab under a memory budget: entries past
    /// `cfg.budget_bytes` spill to compressed on-disk cold segments and
    /// fault back just-in-time (see [`crate::spill`]). Only hash states
    /// tier; list states are probe-scanned wholesale and stay resident.
    pub fn enable_spill(&mut self, cfg: SpillConfig) -> Result<()> {
        match &mut self.store {
            Store::Hash(slab) => slab.enable_spill(cfg),
            Store::List(_) => Err(JiscError::Internal(
                "spill budget applies to hash states only".into(),
            )),
        }
    }

    /// True if this state's slab has a cold tier attached.
    pub fn spill_enabled(&self) -> bool {
        matches!(&self.store, Store::Hash(slab) if slab.spill_enabled())
    }

    /// Cold-tier occupancy (`None` when spill is disabled or list layout).
    pub fn spill_stats(&self) -> Option<SpillStats> {
        match &self.store {
            Store::Hash(slab) => slab.spill_stats(),
            Store::List(_) => None,
        }
    }

    /// Entries currently resident in the cold tier.
    pub fn cold_entries(&self) -> usize {
        match &self.store {
            Store::Hash(slab) => slab.cold_entries(),
            Store::List(_) => 0,
        }
    }

    /// Estimated hot-tier bytes (see [`crate::slab::HOT_ENTRY_EST_BYTES`]).
    pub fn hot_bytes(&self) -> usize {
        match &self.store {
            Store::Hash(slab) => slab.hot_bytes(),
            Store::List(v) => v.len() * crate::slab::HOT_ENTRY_EST_BYTES,
        }
    }

    /// Wall-clock fault-back latency distribution, if spill is enabled.
    pub fn fault_latency(&self) -> Option<jisc_telemetry::HistogramSnapshot> {
        match &self.store {
            Store::Hash(slab) => slab.fault_latency(),
            Store::List(_) => None,
        }
    }

    /// Path of the cold tier's hash-chained segment manifest, if any.
    pub fn cold_manifest_file(&self) -> Option<std::path::PathBuf> {
        match &self.store {
            Store::Hash(slab) => slab.cold_manifest_file(),
            Store::List(_) => None,
        }
    }

    /// Fault `key`'s cold-resident entries back into the hot tier (no-op
    /// when the key has none). Tier moves are logically neutral: `len` is
    /// unchanged. Returns entries faulted.
    pub fn fault_in_key(&mut self, key: Key, m: &mut Metrics) -> usize {
        match &mut self.store {
            Store::Hash(slab) => slab.fault_in_key(key, m),
            Store::List(_) => 0,
        }
    }

    /// Batch-aware fault-back: one sequential read per touched segment for
    /// the whole key set (the JISC completion discipline applied to cold
    /// state — complete every key the batch will probe, then probe hot).
    pub fn fault_in_keys(&mut self, keys: impl IntoIterator<Item = Key>, m: &mut Metrics) -> usize {
        match &mut self.store {
            Store::Hash(slab) => slab.fault_in_keys(keys, m),
            Store::List(_) => 0,
        }
    }

    /// Fault the entire cold tier back (full-scan paths: theta probes,
    /// snapshots, discard checks, iteration).
    pub fn fault_in_all(&mut self, m: &mut Metrics) -> usize {
        match &mut self.store {
            Store::Hash(slab) => slab.fault_in_all(m),
            Store::List(_) => 0,
        }
    }

    /// Number of entries matching `key` (same accounting as a lookup).
    pub fn match_count(&self, key: Key, m: &mut Metrics) -> usize {
        m.probes += 1;
        match &self.store {
            Store::Hash(slab) => slab.match_count(key, m),
            Store::List(v) => {
                m.nlj_comparisons += v.len() as u64;
                v.iter().filter(|t| t.key() == key).count()
            }
        }
    }

    /// Entries whose key satisfies `pred` against `probe_key`, with the
    /// stored entry's key on the side indicated by `stored_is_left`.
    pub fn scan_theta(
        &self,
        pred: Predicate,
        probe_key: Key,
        stored_is_left: bool,
        m: &mut Metrics,
    ) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.scan_theta_into(pred, probe_key, stored_is_left, m, &mut out);
        out
    }

    /// [`State::scan_theta`], appending into a caller-provided buffer.
    pub fn scan_theta_into(
        &self,
        pred: Predicate,
        probe_key: Key,
        stored_is_left: bool,
        m: &mut Metrics,
        out: &mut Vec<Tuple>,
    ) {
        m.probes += 1;
        let eval = |stored: Key| {
            if stored_is_left {
                pred.eval(stored, probe_key)
            } else {
                pred.eval(probe_key, stored)
            }
        };
        match &self.store {
            Store::List(v) => {
                m.nlj_comparisons += v.len() as u64;
                out.extend(v.iter().filter(|t| eval(t.key())).cloned());
            }
            Store::Hash(slab) => {
                // Theta probe against a hash state (e.g. a scan feeding an
                // NLJ): every entry must be examined; the slab walk is a
                // dense insertion-order sweep.
                m.nlj_comparisons += slab.len() as u64;
                out.extend(slab.iter().filter(|t| eval(t.key())).cloned());
            }
        }
    }

    /// True if at least one entry matches `key` exactly.
    pub fn contains_key(&self, key: Key, m: &mut Metrics) -> bool {
        match &self.store {
            Store::Hash(slab) => {
                m.probes += 1;
                slab.contains_key(key, m)
            }
            Store::List(v) => {
                m.probes += 1;
                m.nlj_comparisons += v.len() as u64;
                v.iter().any(|t| t.key() == key)
            }
        }
    }

    /// Remove all entries containing the base tuple `(stream, seq)`.
    ///
    /// For hash states the search is confined to the `key` bucket (the join
    /// attribute of every constituent equals the entry key under the shared
    /// attribute model); list states scan fully. Returns how many entries
    /// were removed — the hot window-expiry path allocates nothing.
    pub fn remove_containing(
        &mut self,
        stream: StreamId,
        seq: SeqNo,
        key: Key,
        m: &mut Metrics,
    ) -> usize {
        let removed = match &mut self.store {
            Store::Hash(slab) => {
                m.probes += 1;
                slab.remove_containing(stream, seq, key, m)
            }
            Store::List(v) => {
                m.nlj_comparisons += v.len() as u64;
                let before = v.len();
                let counts = &mut self.list_keys;
                v.retain(|t| {
                    let keep = !t.contains_base(stream, seq);
                    if !keep {
                        list_note_removed(counts, t.key());
                    }
                    keep
                });
                before - v.len()
            }
        };
        self.len -= removed;
        m.removals += removed as u64;
        removed
    }

    /// Remove a specific entry identified by lineage (set-difference
    /// suppression). Returns `true` if an entry was removed.
    pub fn remove_by_lineage(&mut self, lin: &Lineage, key: Key, m: &mut Metrics) -> bool {
        let gone = match &mut self.store {
            Store::Hash(slab) => {
                m.probes += 1;
                slab.remove_by_lineage(lin, key, m)
            }
            Store::List(v) => {
                let before = v.len();
                m.nlj_comparisons += before as u64;
                let counts = &mut self.list_keys;
                v.retain(|t| {
                    let keep = t.lineage() != *lin;
                    if !keep {
                        list_note_removed(counts, t.key());
                    }
                    keep
                });
                before - v.len()
            }
        };
        self.len -= gone;
        m.removals += gone as u64;
        gone > 0
    }

    /// Remove every entry stored under `key` (set-difference suppression by
    /// key, [`Payload::SuppressKey`](crate::plan::Payload)). Returns how
    /// many entries were removed.
    pub fn remove_key(&mut self, key: Key, m: &mut Metrics) -> usize {
        let removed = match &mut self.store {
            Store::Hash(slab) => {
                m.probes += 1;
                slab.remove_key(key, m)
            }
            Store::List(v) => {
                m.nlj_comparisons += v.len() as u64;
                let before = v.len();
                v.retain(|t| t.key() != key);
                self.list_keys.remove(&key);
                before - v.len()
            }
        };
        self.len -= removed;
        m.removals += removed as u64;
        removed
    }

    /// Remove every entry whose key hashes into one of `ranges` — the
    /// derived-state side of an elastic range handover. Returns the distinct
    /// keys removed. Pending bookkeeping is untouched; callers that also
    /// track completion debt must follow with
    /// [`State::prune_pending_in_ranges`].
    pub fn extract_key_range(&mut self, ranges: &[KeyRange], m: &mut Metrics) -> Vec<Key> {
        match &mut self.store {
            Store::Hash(slab) => {
                m.probes += 1;
                let (moved, removed) = slab.extract_key_range(ranges, m);
                self.len -= removed;
                m.removals += removed as u64;
                moved
            }
            Store::List(_) => {
                let moved: Vec<Key> = self
                    .list_keys
                    .keys()
                    .copied()
                    .filter(|&k| {
                        let h = hash_key(k);
                        ranges.iter().any(|r| r.contains(h))
                    })
                    .collect();
                for &k in &moved {
                    self.remove_key(k, m);
                }
                moved
            }
        }
    }

    /// Remove all entries whose lineage contains *every* constituent of
    /// `lin` (set-difference suppression propagating upward: any upper entry
    /// built from a suppressed entry must go). Returns how many entries were
    /// removed.
    pub fn remove_superset(&mut self, lin: &Lineage, key: Key, m: &mut Metrics) -> usize {
        let contains_all = |t: &Tuple| lin.parts().iter().all(|(s, q)| t.contains_base(*s, *q));
        let removed = match &mut self.store {
            Store::Hash(slab) => {
                m.probes += 1;
                slab.remove_superset(lin, key, m)
            }
            Store::List(v) => {
                m.nlj_comparisons += v.len() as u64;
                let before = v.len();
                let counts = &mut self.list_keys;
                v.retain(|t| {
                    let keep = !contains_all(t);
                    if !keep {
                        list_note_removed(counts, t.key());
                    }
                    keep
                });
                before - v.len()
            }
        };
        self.len -= removed;
        m.removals += removed as u64;
        removed
    }

    /// Insert `t` unless an entry with identical lineage already exists under
    /// the same key. Used by state completion to merge on-demand-computed
    /// entries with entries that accumulated through normal post-transition
    /// processing (§4.4 discussion). Returns `true` if inserted.
    pub fn insert_if_absent(&mut self, t: Tuple, m: &mut Metrics) -> bool {
        match &mut self.store {
            Store::Hash(slab) => {
                m.probes += 1;
                let inserted = slab.insert_if_absent(t, m);
                if inserted {
                    m.inserts += 1;
                    self.len += 1;
                }
                inserted
            }
            Store::List(v) => {
                let lin = t.lineage();
                m.nlj_comparisons += v.len() as u64;
                if v.iter().any(|e| e.lineage() == lin) {
                    false
                } else {
                    self.insert(t, m);
                    true
                }
            }
        }
    }

    /// Distinct join-attribute values currently present.
    pub fn distinct_keys(&self) -> FxHashSet<Key> {
        match &self.store {
            Store::Hash(slab) => slab.distinct_keys(),
            Store::List(_) => self.list_keys.keys().copied().collect(),
        }
    }

    /// Number of distinct join-attribute values (the §4.3 counter seed).
    /// O(1) for both layouts: hash stores count buckets, list stores read
    /// the maintained per-key count map.
    pub fn distinct_key_count(&self) -> usize {
        match &self.store {
            Store::Hash(slab) => slab.key_count(),
            Store::List(_) => self.list_keys.len(),
        }
    }

    /// Iterate over all entries. Hash states yield global insertion order
    /// (the slab's order ring); list states yield list order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = &Tuple> + '_> {
        match &self.store {
            Store::Hash(slab) => Box::new(slab.iter()),
            Store::List(v) => Box::new(v.iter()),
        }
    }

    /// True if any entry contains a base tuple older than `seq` (used by the
    /// Parallel Track discard check, §3.3).
    pub fn has_entry_older_than(&self, seq: SeqNo, m: &mut Metrics) -> bool {
        let mut checked = 0u64;
        let found = self.iter().any(|t| {
            checked += 1;
            t.min_seq() < seq
        });
        m.discard_checks += checked;
        found
    }

    /// Drop every entry (state discard during migration).
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Hash(slab) => slab.clear(),
            Store::List(v) => v.clear(),
        }
        self.list_keys.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::BaseTuple;

    fn bt(stream: u16, seq: SeqNo, key: Key) -> Tuple {
        Tuple::base(BaseTuple::new(StreamId(stream), seq, key, 0))
    }

    #[test]
    fn hash_insert_lookup() {
        let mut m = Metrics::new();
        let mut s = State::new(StoreKind::Hash);
        s.insert(bt(0, 1, 5), &mut m);
        s.insert(bt(0, 2, 5), &mut m);
        s.insert(bt(0, 3, 9), &mut m);
        assert_eq!(s.len(), 3);
        assert_eq!(s.lookup(5, &mut m).len(), 2);
        assert_eq!(s.lookup(9, &mut m).len(), 1);
        assert!(s.lookup(7, &mut m).is_empty());
        assert_eq!(m.inserts, 3);
        assert_eq!(m.probes, 3);
    }

    #[test]
    fn list_lookup_counts_comparisons() {
        let mut m = Metrics::new();
        let mut s = State::new(StoreKind::List);
        for i in 0..4 {
            s.insert(bt(0, i, i), &mut m);
        }
        let hits = s.lookup(2, &mut m);
        assert_eq!(hits.len(), 1);
        assert_eq!(m.nlj_comparisons, 4);
    }

    #[test]
    fn theta_scan_orientation() {
        let mut m = Metrics::new();
        let mut s = State::new(StoreKind::List);
        s.insert(bt(0, 1, 3), &mut m);
        s.insert(bt(0, 2, 8), &mut m);
        // stored keys on the left of `<=`: stored <= 5 matches key 3 only.
        let hits = s.scan_theta(Predicate::KeyLeq, 5, true, &mut m);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key(), 3);
        // probe on the left: 5 <= stored matches key 8 only.
        let hits = s.scan_theta(Predicate::KeyLeq, 5, false, &mut m);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key(), 8);
    }

    #[test]
    fn remove_containing_prunes_bucket() {
        let mut m = Metrics::new();
        let mut s = State::new(StoreKind::Hash);
        let a = bt(0, 1, 5);
        let b = bt(1, 2, 5);
        let ab = Tuple::joined(5, a.clone(), b.clone());
        s.insert(ab, &mut m);
        s.insert(bt(1, 3, 5), &mut m);
        let removed = s.remove_containing(StreamId(0), 1, 5, &mut m);
        assert_eq!(removed, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(5, &mut m).len(), 1);
        // removing a non-existent base is a no-op
        assert_eq!(s.remove_containing(StreamId(0), 99, 5, &mut m), 0);
    }

    #[test]
    fn insert_if_absent_dedups_by_lineage() {
        let mut m = Metrics::new();
        let mut s = State::new(StoreKind::Hash);
        let a = bt(0, 1, 5);
        let b = bt(1, 2, 5);
        let ab1 = Tuple::joined(5, a.clone(), b.clone());
        let ab2 = Tuple::joined(5, b, a); // same lineage, different shape
        assert!(s.insert_if_absent(ab1, &mut m));
        assert!(!s.insert_if_absent(ab2, &mut m));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn completeness_counter_lifecycle() {
        let mut s = State::new(StoreKind::Hash);
        assert!(s.is_complete());
        let pend: FxHashSet<Key> = [1u64, 2, 3].into_iter().collect();
        s.mark_incomplete(PendingKeys::Known(pend));
        assert!(!s.is_complete());
        assert_eq!(s.counter(), Some(3));
        assert!(s.needs_completion(2));
        assert!(!s.needs_completion(7)); // never pending -> trivially complete
        assert!(!s.note_key_completed(1));
        assert_eq!(s.counter(), Some(2));
        assert!(!s.note_key_expired(2));
        assert!(s.note_key_completed(3)); // counter hits zero
        assert!(s.is_complete());
        assert_eq!(s.counter(), None);
    }

    #[test]
    fn case3_tracking() {
        let mut s = State::new(StoreKind::Hash);
        s.mark_incomplete(PendingKeys::Unknown {
            completed: Default::default(),
        });
        assert!(s.needs_completion(4));
        assert!(!s.note_key_completed(4));
        assert!(!s.needs_completion(4));
        assert_eq!(s.counter(), None);
        // resolve with a residual set
        let resid: FxHashSet<Key> = [9u64].into_iter().collect();
        assert!(!s.resolve_case3(resid));
        assert_eq!(s.counter(), Some(1));
        assert!(s.note_key_completed(9));
        assert!(s.is_complete());
        // resolving an already-complete state is a no-op success
        assert!(s.resolve_case3(Default::default()));
    }

    #[test]
    fn distinct_keys_and_old_entry_check() {
        let mut m = Metrics::new();
        let mut s = State::new(StoreKind::Hash);
        s.insert(bt(0, 10, 1), &mut m);
        s.insert(bt(0, 11, 1), &mut m);
        s.insert(bt(0, 12, 2), &mut m);
        assert_eq!(s.distinct_key_count(), 2);
        assert!(s.has_entry_older_than(11, &mut m));
        assert!(!s.has_entry_older_than(10, &mut m));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.distinct_key_count(), 0);
    }

    #[test]
    fn list_distinct_key_count_tracks_every_mutation() {
        let mut m = Metrics::new();
        let mut s = State::new(StoreKind::List);
        s.insert(bt(0, 1, 5), &mut m);
        s.insert(bt(0, 2, 5), &mut m);
        s.insert(bt(0, 3, 9), &mut m);
        s.insert(bt(1, 4, 7), &mut m);
        assert_eq!(s.distinct_key_count(), 3);
        assert_eq!(s.distinct_keys(), [5, 9, 7].into_iter().collect());
        // removing one of two key-5 entries keeps the key
        assert!(s.remove_by_lineage(&bt(0, 1, 5).lineage(), 5, &mut m));
        assert_eq!(s.distinct_key_count(), 3);
        // removing the base of the last key-5 entry drops the key
        assert_eq!(s.remove_containing(StreamId(0), 2, 5, &mut m), 1);
        assert_eq!(s.distinct_key_count(), 2);
        assert_eq!(s.remove_key(9, &mut m), 1);
        assert_eq!(s.distinct_key_count(), 1);
        assert_eq!(s.remove_superset(&bt(1, 4, 7).lineage(), 7, &mut m), 1);
        assert_eq!(s.distinct_key_count(), 0);
        s.insert(bt(0, 8, 3), &mut m);
        assert_eq!(s.distinct_key_count(), 1);
        s.clear();
        assert_eq!(s.distinct_key_count(), 0);
    }

    #[test]
    fn for_each_match_and_match_count_agree_with_lookup() {
        let mut m = Metrics::new();
        for kind in [StoreKind::Hash, StoreKind::List] {
            let mut s = State::new(kind);
            s.insert(bt(0, 1, 5), &mut m);
            s.insert(bt(0, 2, 5), &mut m);
            s.insert(bt(0, 3, 9), &mut m);
            let looked = s.lookup(5, &mut m);
            let mut visited = Vec::new();
            s.for_each_match(5, &mut m, |t| visited.push(t.clone()));
            assert_eq!(visited, looked);
            assert_eq!(s.match_count(5, &mut m), 2);
            assert_eq!(s.match_count(4, &mut m), 0);
            let mut buf = vec![bt(9, 99, 99)];
            s.lookup_into(5, &mut m, &mut buf);
            assert_eq!(buf.len(), 3, "lookup_into appends");
        }
    }
}
