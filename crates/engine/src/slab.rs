//! Cache-conscious join-state storage: open-addressing index + slab arena.
//!
//! The previous hash layout (`FxHashMap<Key, Vec<Tuple>>`) paid one heap
//! allocation per key, scattered buckets across the heap, and made window
//! expiry retain-scan whole buckets. This module replaces it with three
//! cooperating structures, all hand-rolled (no new dependencies):
//!
//! * `RawIndex` — a SwissTable-style open-addressing table: a control
//!   array of one tag byte per slot (7 bits of hash, probed eight at a
//!   time with SWAR word operations) plus a parallel entry array mapping
//!   `Key → chain head`. Group probing means a lookup usually touches one
//!   control group and one entry line, and the whole index is two flat
//!   allocations that clone with `memcpy`.
//! * a **slab arena** of `Slot`s — every stored [`Tuple`] lives in one
//!   contiguous `Vec`, linked into an intrusive doubly-linked chain per
//!   key. Probing a key walks its chain through the slab instead of
//!   chasing per-key `Vec` allocations; freed slots are recycled through
//!   an intrusive free list, so steady-state churn allocates nothing.
//! * an **insertion-order ring** — a second intrusive list threading every
//!   live slot in arrival order. Sliding-window expiry removes the oldest
//!   base tuple of a stream; for scan states that tuple is (almost always)
//!   the ring head, so [`SlabStore::remove_containing`] pops it in O(1)
//!   amortized instead of retain-scanning its key's bucket — the hot-key
//!   case where the old layout degraded to O(bucket) per expiry.
//!
//! The index exposes pre-hashed probes ([`SlabStore::for_each_match_hashed`])
//! and two read-only hints: [`SlabStore::prefetch`], one hash's index group;
//! and [`SlabStore::warm`], a staged walk of a whole item column down each
//! item's access path (group → pair → chain meta → slot → ring neighbours
//! and tuple), which the columnar kernels run ahead of their removal, probe
//! and install loops so the dependent misses of all items overlap.
//!
//! Probe work is observable: every find accumulates the number of control
//! groups examined into [`Metrics::probe_depth`], and index rebuilds count
//! into [`Metrics::slab_rehashes`] — both surfaced by `explain`.

use jisc_common::{hash_key, FxHashSet, Key, KeyRange, Metrics, Result, Tuple};

use crate::spill::{ColdTier, SpillConfig, SpillStats};

/// Null link in the intrusive lists.
const NIL: u32 = u32::MAX;

/// Control bytes per probe group (one `u64` word).
const GROUP: usize = 8;

/// Control byte: slot never used on this probe chain (terminates probing).
const EMPTY: u8 = 0xFF;

/// Control byte: slot freed but on a live probe chain (does not terminate).
const DELETED: u8 = 0x80;

const LSB: u64 = 0x0101_0101_0101_0101;
const MSB: u64 = 0x8080_8080_8080_8080;

/// 7-bit tag stored in the control array (high bits of the hash).
#[inline]
fn tag_of(h: u64) -> u8 {
    ((h >> 57) as u8) & 0x7F
}

/// SWAR: high bit set in every byte of `group` equal to `b`.
///
/// May produce false positives on bytes adjacent to a real match (classic
/// zero-byte-trick caveat); every use either verifies the candidate against
/// the key array or matches a byte value that rules the false-positive
/// pattern out (see `has_empty`).
#[inline]
fn bytes_eq(group: u64, b: u8) -> u64 {
    let x = group ^ LSB.wrapping_mul(b as u64);
    x.wrapping_sub(LSB) & !x & MSB
}

/// Does the group contain an `EMPTY` byte? Exact: a false positive would
/// need a `0xFE` control byte, which is never written (tags are 7-bit,
/// `DELETED` is `0x80`).
#[inline]
fn has_empty(group: u64) -> bool {
    bytes_eq(group, EMPTY) != 0
}

/// Bytes per cache line the prefetch helpers step by.
const LINE: usize = 64;

/// Prefetch the cache line holding `p` into all levels (no-op off x86_64).
/// A hint: `p` is never dereferenced and need not point into an allocation.
#[inline]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` has no architectural effect and cannot fault,
    // whatever the address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetch every cache line overlapping the `len > 0` bytes at `p`.
#[inline]
fn prefetch_span(p: *const u8, len: usize) {
    for off in (0..len).step_by(LINE) {
        prefetch_read(p.wrapping_add(off));
    }
    prefetch_read(p.wrapping_add(len - 1));
}

/// Prefetch a tuple's heap cell, from the `Arc` reference counts (the two
/// words ahead of the payload, written by every clone and drop) to the end
/// of the payload (whose cached seq bounds containment checks and joins
/// read).
#[inline]
fn prefetch_tuple(t: &Tuple) {
    const COUNTS: usize = 2 * std::mem::size_of::<usize>();
    let (payload, len) = match t {
        Tuple::Base(b) => (
            std::sync::Arc::as_ptr(b) as *const u8,
            std::mem::size_of::<jisc_common::BaseTuple>(),
        ),
        Tuple::Joined(j) => (
            std::sync::Arc::as_ptr(j) as *const u8,
            std::mem::size_of::<jisc_common::JoinedTuple>(),
        ),
    };
    prefetch_span(payload.wrapping_sub(COUNTS), COUNTS + len);
}

/// Hot half of an index slot: everything a single-match probe touches.
/// 24 bytes (key + niche-packed `Option<Tuple>`), so a probe group's eight
/// pairs are 192 bytes: three cache lines, four when the group straddles.
#[derive(Debug, Clone)]
struct PairEntry {
    key: Key,
    /// The chain's tuple (an `Arc` clone) **iff the chain is a singleton**
    /// — the common equi-join case. Such a probe reads control group →
    /// pair → tuple and never touches the slab or the cold metadata: one
    /// dependent cache line fewer than the old layout's bucket-`Vec` hop.
    /// `None` means empty (vacant slot) or a multi-entry chain (walk the
    /// slab via [`ChainMeta`]).
    first: Option<Tuple>,
}

impl PairEntry {
    const VACANT: PairEntry = PairEntry {
        key: 0,
        first: None,
    };
}

// [`SlabStore::prefetch`] covers a group by its byte span; a layout change
// shows up here, not as a silently un-prefetched part of the group.
const _: () = assert!(std::mem::size_of::<PairEntry>() == 24);

/// Cold half of an index slot: the intrusive chain through the slab,
/// touched only on insert, removal, and multi-match walks.
#[derive(Debug, Clone, Copy)]
struct ChainMeta {
    /// First slot of the key's chain (oldest entry).
    head: u32,
    /// Last slot of the key's chain (newest entry).
    tail: u32,
    /// Chain length.
    len: u32,
}

impl ChainMeta {
    const VACANT: ChainMeta = ChainMeta {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// SwissTable-style open-addressing index: `Key → chain head`.
#[derive(Debug, Clone, Default)]
struct RawIndex {
    /// One tag byte per slot; length == capacity (a multiple of [`GROUP`]).
    ctrl: Vec<u8>,
    /// Parallel hot array (key + singleton tuple); length == capacity.
    pairs: Vec<PairEntry>,
    /// Parallel cold array (chain links); length == capacity.
    metas: Vec<ChainMeta>,
    /// Live keys.
    items: usize,
    /// Freed-but-chained slots awaiting a cleanup rehash.
    tombstones: usize,
    /// Inserts into `EMPTY` slots remaining before a rehash (7/8 load cap).
    growth_left: usize,
}

impl RawIndex {
    #[inline]
    fn capacity(&self) -> usize {
        self.ctrl.len()
    }

    #[inline]
    fn group(&self, g: usize) -> u64 {
        debug_assert!((g + 1) * GROUP <= self.ctrl.len());
        // SAFETY: callers mask `g` by `ngroups - 1` and `ctrl`'s length is
        // always a multiple of GROUP, so the 8-byte read is in bounds.
        let w = unsafe { (self.ctrl.as_ptr().add(g * GROUP) as *const u64).read_unaligned() };
        u64::from_le(w)
    }

    /// Find `key`'s index slot, accumulating probed groups into `depth`.
    #[inline]
    fn find(&self, h: u64, key: Key, depth: &mut u64) -> Option<usize> {
        if self.ctrl.is_empty() {
            return None;
        }
        let ngroups = self.capacity() / GROUP;
        let mask = ngroups - 1;
        let tag = tag_of(h);
        let mut g = (h as usize) & mask;
        let mut stride = 0;
        loop {
            *depth += 1;
            let group = self.group(g);
            let mut mm = bytes_eq(group, tag);
            while mm != 0 {
                let slot = g * GROUP + (mm.trailing_zeros() >> 3) as usize;
                // SAFETY: `slot < capacity` — `g` is masked and the byte
                // offset comes from an in-group bit position.
                let (ekey, ctrl) = unsafe {
                    (
                        self.pairs.get_unchecked(slot).key,
                        *self.ctrl.get_unchecked(slot),
                    )
                };
                if ekey == key && ctrl == tag {
                    return Some(slot);
                }
                mm &= mm - 1;
            }
            if has_empty(group) {
                return None;
            }
            stride += 1;
            if stride > ngroups {
                return None; // fully tombstoned table; unreachable in practice
            }
            g = (g + stride) & mask;
        }
    }

    /// Slot for `key`, inserting a vacant entry if absent. May rehash.
    fn find_or_insert(&mut self, h: u64, key: Key, m: &mut Metrics) -> usize {
        if let Some(slot) = self.find(h, key, &mut m.probe_depth) {
            return slot;
        }
        if self.growth_left == 0 {
            // Grow when genuinely full; same-size rehash just clears
            // tombstones left by churn.
            let cap = self.capacity().max(GROUP * 2);
            let new_cap = if self.items >= cap / 2 { cap * 2 } else { cap };
            self.rehash(new_cap, m);
        }
        let slot = self.insert_position(h);
        if self.ctrl[slot] == EMPTY {
            self.growth_left -= 1;
        } else {
            debug_assert_eq!(self.ctrl[slot], DELETED);
            self.tombstones -= 1;
        }
        self.ctrl[slot] = tag_of(h);
        self.pairs[slot] = PairEntry { key, first: None };
        self.metas[slot] = ChainMeta::VACANT;
        self.items += 1;
        slot
    }

    /// First empty-or-deleted slot along `h`'s probe sequence. The caller
    /// guarantees at least one exists (`growth_left > 0` after rehash).
    #[inline]
    fn insert_position(&self, h: u64) -> usize {
        let ngroups = self.capacity() / GROUP;
        let mask = ngroups - 1;
        let mut g = (h as usize) & mask;
        let mut stride = 0;
        loop {
            let group = self.group(g);
            let free = group & MSB;
            if free != 0 {
                return g * GROUP + (free.trailing_zeros() >> 3) as usize;
            }
            stride += 1;
            g = (g + stride) & mask;
        }
    }

    /// Mark a slot deleted (its key's chain emptied).
    #[inline]
    fn remove_at(&mut self, slot: usize) {
        self.ctrl[slot] = DELETED;
        self.pairs[slot] = PairEntry::VACANT;
        self.metas[slot] = ChainMeta::VACANT;
        self.items -= 1;
        self.tombstones += 1;
    }

    /// Rebuild at `new_cap` slots (power of two), dropping tombstones.
    fn rehash(&mut self, new_cap: usize, m: &mut Metrics) {
        debug_assert!(new_cap.is_power_of_two() && new_cap >= GROUP);
        m.slab_rehashes += 1;
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; new_cap]);
        let old_pairs = std::mem::replace(&mut self.pairs, vec![PairEntry::VACANT; new_cap]);
        let old_metas = std::mem::replace(&mut self.metas, vec![ChainMeta::VACANT; new_cap]);
        self.tombstones = 0;
        let items = self.items;
        self.items = 0;
        self.growth_left = new_cap / GROUP * (GROUP - 1);
        for (slot, e) in old_pairs.into_iter().enumerate() {
            if old_ctrl[slot] & 0x80 != 0 {
                continue; // empty or deleted
            }
            let h = hash_key(e.key);
            let dst = self.insert_position(h);
            debug_assert_eq!(self.ctrl[dst], EMPTY, "fresh table has no tombstones");
            self.ctrl[dst] = tag_of(h);
            self.pairs[dst] = e;
            self.metas[dst] = old_metas[slot];
            self.items += 1;
            self.growth_left -= 1;
        }
        debug_assert_eq!(self.items, items);
    }

    /// Pre-size for `keys` distinct keys without changing contents.
    fn reserve(&mut self, keys: usize, m: &mut Metrics) {
        let needed = (keys * GROUP).div_ceil(GROUP - 1).max(GROUP * 2);
        let new_cap = needed.next_power_of_two();
        if new_cap > self.capacity() {
            self.rehash(new_cap, m);
        }
    }

    /// Iterate live keys.
    fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.ctrl
            .iter()
            .zip(self.pairs.iter())
            .filter(|(c, _)| **c & 0x80 == 0)
            .map(|(_, e)| e.key)
    }

    fn clear(&mut self) {
        self.ctrl.fill(EMPTY);
        self.pairs.fill(PairEntry::VACANT);
        self.metas.fill(ChainMeta::VACANT);
        self.items = 0;
        self.tombstones = 0;
        self.growth_left = self.capacity() / GROUP * (GROUP - 1);
    }
}

/// One slab cell: the stored tuple plus its intrusive links.
#[derive(Debug, Clone)]
struct Slot {
    /// `None` marks a free-listed slot.
    tuple: Option<Tuple>,
    /// Previous slot in the key's chain.
    prev: u32,
    /// Next slot in the key's chain; doubles as the free-list link.
    next: u32,
    /// Previous slot in global insertion order.
    ord_prev: u32,
    /// Next slot in global insertion order.
    ord_next: u32,
}

/// How far down an item's access path [`SlabStore::warm`] prefetches: as
/// deep as the operation that follows reaches, and no deeper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmDepth {
    /// A probe ([`SlabStore::for_each_match_hashed`]) of a singleton chain
    /// stops at the pair's mirror tuple: stages 0–1.
    Pair,
    /// An install ([`SlabStore::insert_hashed`]) also writes the chain meta
    /// and the tail slot: stages 0–2.
    Chain,
    /// A removal ([`SlabStore::remove_containing`]) also unlinks the slot
    /// from the ring and its chain and drops its tuple: stages 0–3.
    Ring,
}

/// Occupancy diagnostics for one store (see [`SlabStore::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabStats {
    /// Live entries in the slab arena.
    pub live: usize,
    /// Allocated slab slots (live + free-listed).
    pub slab_capacity: usize,
    /// Distinct keys in the index.
    pub keys: usize,
    /// Index capacity in slots.
    pub index_capacity: usize,
    /// Freed-but-chained index slots awaiting cleanup.
    pub tombstones: usize,
}

/// Hash-partitioned tuple storage: open-addressing index over a slab arena
/// with an insertion-order ring. Drop-in backing for
/// [`State`](crate::state::State)'s hash layout.
#[derive(Debug, Clone)]
pub struct SlabStore {
    index: RawIndex,
    slots: Vec<Slot>,
    free_head: u32,
    live: usize,
    /// Oldest live slot in insertion order (the expiry ring's head).
    ord_head: u32,
    /// Newest live slot in insertion order.
    ord_tail: u32,
    /// Memory-budgeted cold tier (None = classic unbounded in-memory
    /// store; every pre-spill code path is unchanged when disabled).
    cold: Option<Box<ColdTier>>,
    /// Live-entry count past which eviction kicks in — the byte budget
    /// pre-divided by [`HOT_ENTRY_EST_BYTES`] so the per-insert budget
    /// check is one load and compare instead of a walk through the cold
    /// tier's config. `usize::MAX` while no tier is attached.
    spill_live_limit: usize,
}

impl Default for SlabStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Estimated resident bytes per live hot entry: slot + amortized index
/// footprint + the tuple's heap allocation. A deliberate flat estimate —
/// the budget governs eviction pacing, it is not an allocator audit.
pub const HOT_ENTRY_EST_BYTES: usize = 128;

impl SlabStore {
    /// Fresh empty store.
    pub fn new() -> Self {
        SlabStore {
            index: RawIndex::default(),
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            ord_head: NIL,
            ord_tail: NIL,
            cold: None,
            spill_live_limit: usize::MAX,
        }
    }

    /// Live entries across both tiers (hot slots + cold stubs).
    #[inline]
    pub fn len(&self) -> usize {
        self.live + self.cold_entries()
    }

    /// True if no entries are stored in either tier.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct keys across both tiers.
    pub fn key_count(&self) -> usize {
        let mut depth = 0u64;
        self.index.items
            + self.cold.as_ref().map_or(0, |c| {
                c.keys()
                    .filter(|&k| self.index.find(hash_key(k), k, &mut depth).is_none())
                    .count()
            })
    }

    /// Occupancy diagnostics (hot tier only; see
    /// [`SlabStore::spill_stats`] for the cold tier).
    pub fn stats(&self) -> SlabStats {
        SlabStats {
            live: self.live,
            slab_capacity: self.slots.len(),
            keys: self.index.items,
            index_capacity: self.index.capacity(),
            tombstones: self.index.tombstones,
        }
    }

    // ----- memory-budgeted tiering -----

    /// Attach a cold tier: past `cfg.budget_bytes` of estimated hot bytes,
    /// the oldest entries of the insertion ring spill to sealed on-disk
    /// segments and fault back just-in-time when probed.
    pub fn enable_spill(&mut self, cfg: SpillConfig) -> Result<()> {
        if self.cold_entries() > 0 {
            return Err(jisc_common::JiscError::Internal(
                "cold tier already populated; cannot re-attach".into(),
            ));
        }
        self.spill_live_limit = cfg.budget_bytes / HOT_ENTRY_EST_BYTES;
        self.cold = Some(Box::new(ColdTier::new(cfg)?));
        Ok(())
    }

    /// Is a cold tier attached?
    #[inline]
    pub fn spill_enabled(&self) -> bool {
        self.cold.is_some()
    }

    /// Cold-tier occupancy, if tiering is enabled.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.cold.as_ref().map(|c| c.stats())
    }

    /// Entries currently resident only as cold stubs.
    #[inline]
    pub fn cold_entries(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.entries())
    }

    /// Estimated resident bytes of the hot tier (live entries ×
    /// [`HOT_ENTRY_EST_BYTES`]) — the figure the budget governs.
    #[inline]
    pub fn hot_bytes(&self) -> usize {
        self.live * HOT_ENTRY_EST_BYTES
    }

    /// Wall-clock fault-back latency histogram of the cold tier.
    pub fn fault_latency(&self) -> Option<jisc_telemetry::HistogramSnapshot> {
        self.cold.as_ref().map(|c| c.fault_latency())
    }

    /// Path of the cold tier's segment manifest, if one has been written.
    pub fn cold_manifest_file(&self) -> Option<std::path::PathBuf> {
        self.cold.as_ref().and_then(|c| c.manifest_file())
    }

    /// Does `key` have cold-resident entries that a slab probe would miss?
    #[inline]
    pub fn has_cold(&self, key: Key) -> bool {
        self.cold.as_ref().is_some_and(|c| c.contains(key))
    }

    /// Evict oldest ring entries to the cold tier while the hot estimate
    /// exceeds the budget (with 1/8 hysteresis so one insert does not seal
    /// one segment). Runs automatically after inserts; eviction moves
    /// entries between tiers, so [`SlabStore::len`] is unchanged.
    fn maybe_spill(&mut self, m: &mut Metrics) {
        let Some(cold) = self.cold.as_deref() else {
            return;
        };
        let budget = cold.config().budget_bytes;
        if self.hot_bytes() <= budget {
            return;
        }
        let target = budget / 8 * 7;
        let per_seg = (cold.config().segment_target_bytes / 16).max(16);
        let mut batch: Vec<(Key, Tuple)> = Vec::new();
        while self.hot_bytes() > target && self.ord_head != NIL {
            let slot = self.ord_head;
            let t = self.slots[slot as usize]
                .tuple
                .clone()
                .expect("ring head is live");
            let key = t.key();
            let idx = self
                .index
                .find(hash_key(key), key, &mut m.probe_depth)
                .expect("ring head is indexed");
            self.unlink(idx, slot);
            batch.push((key, t));
        }
        let cold = self.cold.as_deref_mut().expect("checked above");
        for chunk in batch.chunks(per_seg) {
            cold.spill_batch(chunk, m);
        }
    }

    /// Fault every cold entry of the given keys back into the hot tier in
    /// one sequential pass — the batch-aware just-in-time completion of the
    /// disk tier. Faulted entries rejoin their chains *ahead* of the hot
    /// entries (they are older), preserving per-key insertion order.
    /// Returns how many entries came back.
    pub fn fault_in_keys(&mut self, keys: impl IntoIterator<Item = Key>, m: &mut Metrics) -> usize {
        let Some(cold) = self.cold.as_deref() else {
            return 0;
        };
        if cold.is_empty() {
            return 0;
        }
        let mut wanted: Vec<Key> = keys.into_iter().filter(|&k| cold.contains(k)).collect();
        if wanted.is_empty() {
            return 0;
        }
        wanted.sort_unstable();
        wanted.dedup();
        let got = self
            .cold
            .as_deref_mut()
            .expect("checked above")
            .fault_keys(&wanted, m);
        let mut n = 0;
        for (key, tuples) in got {
            n += tuples.len();
            let idx = self.index.find_or_insert(hash_key(key), key, m);
            for t in tuples.into_iter().rev() {
                let slot = self.alloc_slot(t, m);
                self.link_head(idx, slot);
            }
        }
        n
    }

    /// [`SlabStore::fault_in_keys`] for one key.
    #[inline]
    pub fn fault_in_key(&mut self, key: Key, m: &mut Metrics) -> usize {
        if !self.has_cold(key) {
            return 0;
        }
        self.fault_in_keys([key], m)
    }

    /// Fault back everything (full-store scans, e.g. theta probes or
    /// snapshot paths that must see every entry).
    pub fn fault_in_all(&mut self, m: &mut Metrics) -> usize {
        let keys: Vec<Key> = match self.cold.as_deref() {
            Some(c) if !c.is_empty() => c.keys().collect(),
            _ => return 0,
        };
        self.fault_in_keys(keys, m)
    }

    /// Pre-size the index and arena for roughly `entries` entries over
    /// `keys` distinct keys (checkpoint restore pre-sizes from the
    /// snapshot so replay does not pay growth rehashes).
    pub fn reserve(&mut self, keys: usize, entries: usize, m: &mut Metrics) {
        self.index.reserve(keys, m);
        if entries > self.slots.len() {
            self.slots.reserve(entries - self.slots.len());
        }
    }

    /// Prefetch the control group `h` will probe and every line of the
    /// group's hot pairs (192 bytes: three or four lines).
    #[inline]
    pub fn prefetch(&self, h: u64) {
        let cap = self.index.capacity();
        if cap == 0 {
            return;
        }
        let g = (h as usize) & (cap / GROUP - 1);
        let base = g * GROUP;
        prefetch_read(&self.index.ctrl[base]);
        prefetch_span(
            &self.index.pairs[base] as *const PairEntry as *const u8,
            GROUP * std::mem::size_of::<PairEntry>(),
        );
    }

    /// Group-prefetched warm-up of a column of `n` items (`item(i)` is the
    /// i-th `(hash, key)`) ahead of the per-item operation named by
    /// `depth`: each stage runs over the whole column before the next one
    /// starts, so the stage-`k` misses of all items overlap instead of
    /// queueing behind one another inside each item's operation (Chen et
    /// al., "Improving hash join performance through prefetching").
    ///
    /// * stage 0 — [`SlabStore::prefetch`]: control group and pair lines;
    /// * stage 1 — find the key (throw-away depth count): its
    ///   `ChainMeta` and the singleton mirror's tuple; ahead of an
    ///   install, for an absent key, the meta the insert will claim;
    /// * stage 2 — the chain's head and tail `Slot`s;
    /// * stage 3 — the head slot's ring neighbours, chain successor and
    ///   tuple.
    ///
    /// Purely a hint: it reads the index and slab, mutates nothing, touches
    /// no [`Metrics`], and the operations that follow neither need it nor
    /// see it. Only the hot tier is walked: the cold tier's stub index is
    /// never consulted (a lookup per item would cost what it saves), so a
    /// key whose chain is cold is simply absent here. `cur` is scratch (one
    /// index per item, carried between stages); looked up with `get`, so
    /// the walk is sound on any table state.
    pub fn warm(
        &self,
        depth: WarmDepth,
        n: usize,
        item: impl Fn(usize) -> (u64, Key),
        cur: &mut Vec<u32>,
    ) {
        if self.index.capacity() == 0 {
            return;
        }
        for i in 0..n {
            self.prefetch(item(i).0);
        }
        cur.clear();
        cur.extend((0..n).map(|i| {
            let (h, key) = item(i);
            self.warm_index(h, key, depth)
        }));
        if depth == WarmDepth::Pair {
            return;
        }
        let prefetch_slot = |s: u32| {
            if let Some(slot) = self.slots.get(s as usize) {
                prefetch_read(slot);
            }
        };
        for c in cur.iter_mut() {
            // A `NIL` cursor (absent key) finds no meta and stays.
            if let Some(meta) = self.index.metas.get(*c as usize) {
                prefetch_slot(meta.head);
                prefetch_slot(meta.tail);
                *c = meta.head;
            }
        }
        if depth == WarmDepth::Chain {
            return;
        }
        for &c in cur.iter() {
            if let Some(head) = self.slots.get(c as usize) {
                prefetch_slot(head.next);
                prefetch_slot(head.ord_prev);
                prefetch_slot(head.ord_next);
                if let Some(t) = &head.tuple {
                    prefetch_tuple(t);
                }
            }
        }
    }

    /// Stage 1 of [`SlabStore::warm`]: the index slot of `key` (`NIL` when
    /// absent).
    #[inline]
    fn warm_index(&self, h: u64, key: Key, depth: WarmDepth) -> u32 {
        match self.index.find(h, key, &mut 0) {
            Some(idx) => {
                prefetch_read(&self.index.metas[idx]);
                if let Some(t) = &self.index.pairs[idx].first {
                    prefetch_tuple(t);
                }
                idx as u32
            }
            None => {
                // Only an install does anything with an absent key.
                if depth == WarmDepth::Chain {
                    prefetch_read(&self.index.metas[self.index.insert_position(h)]);
                }
                NIL
            }
        }
    }

    // ----- internal plumbing -----

    #[inline]
    fn alloc_slot(&mut self, t: Tuple, m: &mut Metrics) -> u32 {
        if self.free_head != NIL {
            let s = self.free_head;
            let slot = &mut self.slots[s as usize];
            self.free_head = slot.next;
            slot.tuple = Some(t);
            m.slab_slot_reuses += 1;
            s
        } else {
            self.slots.push(Slot {
                tuple: Some(t),
                prev: NIL,
                next: NIL,
                ord_prev: NIL,
                ord_next: NIL,
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Append `slot` to the chain of index entry `idx` and the order ring,
    /// keeping the `first`-iff-singleton mirror in the hot pair current.
    #[inline]
    fn link_tail(&mut self, idx: usize, slot: u32) {
        let tail = self.index.metas[idx].tail;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = tail;
            s.next = NIL;
            s.ord_prev = self.ord_tail;
            s.ord_next = NIL;
        }
        if tail == NIL {
            self.index.metas[idx].head = slot;
            self.index.pairs[idx].first = self.slots[slot as usize].tuple.clone();
        } else {
            self.slots[tail as usize].next = slot;
            if self.index.metas[idx].len == 1 {
                // Chain grew past one entry: probes must walk the slab.
                self.index.pairs[idx].first = None;
            }
        }
        self.index.metas[idx].tail = slot;
        self.index.metas[idx].len += 1;
        if self.ord_tail == NIL {
            self.ord_head = slot;
        } else {
            self.slots[self.ord_tail as usize].ord_next = slot;
        }
        self.ord_tail = slot;
        self.live += 1;
    }

    /// Prepend `slot` to the chain of index entry `idx` and the order
    /// ring's head — fault-back re-links cold entries, which are strictly
    /// older than every hot entry, ahead of the existing chain so per-key
    /// insertion order survives a spill/fault round trip.
    fn link_head(&mut self, idx: usize, slot: u32) {
        let head = self.index.metas[idx].head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = head;
            s.ord_prev = NIL;
            s.ord_next = self.ord_head;
        }
        if head == NIL {
            self.index.metas[idx].tail = slot;
            self.index.pairs[idx].first = self.slots[slot as usize].tuple.clone();
        } else {
            self.slots[head as usize].prev = slot;
            if self.index.metas[idx].len == 1 {
                self.index.pairs[idx].first = None;
            }
        }
        self.index.metas[idx].head = slot;
        self.index.metas[idx].len += 1;
        if self.ord_head == NIL {
            self.ord_tail = slot;
        } else {
            self.slots[self.ord_head as usize].ord_prev = slot;
        }
        self.ord_head = slot;
        self.live += 1;
    }

    /// Unlink `slot` from entry `idx`'s chain and the order ring, free it,
    /// and drop the key from the index when its chain empties.
    fn unlink(&mut self, idx: usize, slot: u32) {
        let (prev, next, ord_prev, ord_next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next, s.ord_prev, s.ord_next)
        };
        if prev == NIL {
            self.index.metas[idx].head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.index.metas[idx].tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.index.metas[idx].len -= 1;
        if ord_prev == NIL {
            self.ord_head = ord_next;
        } else {
            self.slots[ord_prev as usize].ord_next = ord_next;
        }
        if ord_next == NIL {
            self.ord_tail = ord_prev;
        } else {
            self.slots[ord_next as usize].ord_prev = ord_prev;
        }
        let s = &mut self.slots[slot as usize];
        s.tuple = None;
        s.next = self.free_head;
        self.free_head = slot;
        self.live -= 1;
        match self.index.metas[idx].len {
            0 => self.index.remove_at(idx),
            // Chain shrank back to a singleton: restore the hot mirror.
            1 => {
                let head = self.index.metas[idx].head;
                self.index.pairs[idx].first = self.slots[head as usize].tuple.clone();
            }
            _ => {}
        }
    }

    /// Remove every chain entry failing `keep`; returns how many went.
    fn retain_chain(&mut self, idx: usize, mut keep: impl FnMut(&Tuple) -> bool) -> usize {
        let mut removed = 0;
        let mut cur = self.index.metas[idx].head;
        while cur != NIL {
            let next = self.slots[cur as usize].next;
            let drop = {
                let t = self.slots[cur as usize].tuple.as_ref().expect("live slot");
                !keep(t)
            };
            if drop {
                self.unlink(idx, cur);
                removed += 1;
                if self.index.metas[idx].len == 0 {
                    break; // idx was tombstoned; entry data is vacant now
                }
            }
            cur = next;
        }
        removed
    }

    // ----- entry operations -----

    /// Insert `t` under its own key.
    pub fn insert(&mut self, t: Tuple, m: &mut Metrics) {
        let key = t.key();
        let h = hash_key(key);
        self.insert_hashed(h, key, t, m);
    }

    /// [`SlabStore::insert`] with the key's hash already computed.
    #[inline]
    pub fn insert_hashed(&mut self, h: u64, key: Key, t: Tuple, m: &mut Metrics) {
        let idx = self.index.find_or_insert(h, key, m);
        let slot = self.alloc_slot(t, m);
        self.link_tail(idx, slot);
        if self.live > self.spill_live_limit {
            self.maybe_spill(m);
        }
    }

    /// Visit each entry matching `key` in insertion order.
    #[inline]
    pub fn for_each_match(&self, key: Key, m: &mut Metrics, f: impl FnMut(&Tuple)) {
        self.for_each_match_hashed(hash_key(key), key, m, f);
    }

    /// [`SlabStore::for_each_match`] with the hash already computed
    /// (batched probe kernel).
    #[inline]
    pub fn for_each_match_hashed(
        &self,
        h: u64,
        key: Key,
        m: &mut Metrics,
        mut f: impl FnMut(&Tuple),
    ) {
        debug_assert!(
            !self.has_cold(key),
            "probe of cold-resident key {key} without fault-in; callers must \
             fault_in_key(s) first (the batch prefault in probe_direction)"
        );
        if let Some(idx) = self.index.find(h, key, &mut m.probe_depth) {
            // Singleton chain: the hot pair's inline mirror answers the
            // probe without touching the slab or the cold chain metadata.
            if let Some(t) = &self.index.pairs[idx].first {
                f(t);
                return;
            }
            let mut cur = self.index.metas[idx].head;
            while cur != NIL {
                let s = &self.slots[cur as usize];
                f(s.tuple.as_ref().expect("live slot"));
                cur = s.next;
            }
        }
    }

    /// Number of entries matching `key` — O(1) after the index find; cold
    /// stubs are counted without touching disk.
    #[inline]
    pub fn match_count(&self, key: Key, m: &mut Metrics) -> usize {
        self.index
            .find(hash_key(key), key, &mut m.probe_depth)
            .map_or(0, |idx| self.index.metas[idx].len as usize)
            + self.cold.as_ref().map_or(0, |c| c.count(key))
    }

    /// True if at least one entry matches `key` in either tier (the cold
    /// stub index answers without disk I/O).
    #[inline]
    pub fn contains_key(&self, key: Key, m: &mut Metrics) -> bool {
        self.index
            .find(hash_key(key), key, &mut m.probe_depth)
            .is_some()
            || self.has_cold(key)
    }

    /// Remove all entries containing the base tuple `(stream, seq)` under
    /// `key`. The ring head is checked first: window expiry removes base
    /// tuples oldest-first, so a scan state's victim is the oldest live
    /// slot and unlinks in O(1) without walking its key's chain.
    pub fn remove_containing(
        &mut self,
        stream: jisc_common::StreamId,
        seq: jisc_common::SeqNo,
        key: Key,
        m: &mut Metrics,
    ) -> usize {
        // Cold entries first: an expired *base* stub is dropped without any
        // disk read; a joined stub whose seq range covers the victim must
        // fault back (its lineage lives on disk) and is then handled by the
        // hot retain below.
        let mut cold_removed = 0;
        if self.has_cold(key) {
            if self
                .cold
                .as_ref()
                .expect("has_cold")
                .joined_may_contain(key, seq)
            {
                self.fault_in_key(key, m);
            } else {
                cold_removed = self
                    .cold
                    .as_deref_mut()
                    .expect("has_cold")
                    .remove_base(key, stream, seq, m);
            }
        }
        let h = hash_key(key);
        if self.ord_head != NIL {
            let head = self.ord_head;
            let is_victim = match &self.slots[head as usize].tuple {
                Some(Tuple::Base(b)) => b.stream == stream && b.seq == seq && b.key == key,
                _ => false,
            };
            if is_victim {
                let idx = self
                    .index
                    .find(h, key, &mut m.probe_depth)
                    .expect("ring head is indexed");
                self.unlink(idx, head);
                return cold_removed + 1;
            }
        }
        cold_removed
            + match self.index.find(h, key, &mut m.probe_depth) {
                None => 0,
                Some(idx) => self.retain_chain(idx, |t| !t.contains_base(stream, seq)),
            }
    }

    /// Remove entries with exactly this lineage; returns how many went.
    pub fn remove_by_lineage(
        &mut self,
        lin: &jisc_common::Lineage,
        key: Key,
        m: &mut Metrics,
    ) -> usize {
        self.fault_in_key(key, m); // lineage comparison needs the tuples
        match self.index.find(hash_key(key), key, &mut m.probe_depth) {
            None => 0,
            Some(idx) => self.retain_chain(idx, |t| t.lineage() != *lin),
        }
    }

    /// Remove entries whose lineage contains every constituent of `lin`.
    pub fn remove_superset(
        &mut self,
        lin: &jisc_common::Lineage,
        key: Key,
        m: &mut Metrics,
    ) -> usize {
        self.fault_in_key(key, m); // containment check needs the tuples
        let contains_all = |t: &Tuple| lin.parts().iter().all(|(s, q)| t.contains_base(*s, *q));
        match self.index.find(hash_key(key), key, &mut m.probe_depth) {
            None => 0,
            Some(idx) => self.retain_chain(idx, |t| !contains_all(t)),
        }
    }

    /// Remove every entry stored under `key`; returns how many went. Cold
    /// entries are dropped stub-only — no disk read for a whole-key drop.
    pub fn remove_key(&mut self, key: Key, m: &mut Metrics) -> usize {
        let cold_removed = self.cold.as_deref_mut().map_or(0, |c| c.remove_key(key, m));
        cold_removed
            + match self.index.find(hash_key(key), key, &mut m.probe_depth) {
                None => 0,
                Some(idx) => self.retain_chain(idx, |_| false),
            }
    }

    /// Remove every entry whose key hashes into one of `ranges` — per-range
    /// extraction for elastic repartitioning. Returns the distinct keys
    /// whose chains were removed (in index order; callers needing a stable
    /// order must sort) and the total entry count removed.
    pub fn extract_key_range(&mut self, ranges: &[KeyRange], m: &mut Metrics) -> (Vec<Key>, usize) {
        // Cold keys in the moved ranges fault back first (one sequential
        // read of the touched segments — no full-store rehydration), so the
        // hot extraction below sees every moved entry.
        if self.cold.is_some() {
            let cold_moved: Vec<Key> = self
                .cold
                .as_deref()
                .expect("checked")
                .keys()
                .filter(|&k| {
                    let h = hash_key(k);
                    ranges.iter().any(|r| r.contains(h))
                })
                .collect();
            self.fault_in_keys(cold_moved, m);
        }
        let moved: Vec<Key> = self
            .index
            .keys()
            .filter(|&k| {
                let h = hash_key(k);
                ranges.iter().any(|r| r.contains(h))
            })
            .collect();
        let mut removed = 0;
        for &k in &moved {
            removed += self.remove_key(k, m);
        }
        (moved, removed)
    }

    /// Insert unless an equal-lineage entry exists under the same key.
    pub fn insert_if_absent(&mut self, t: Tuple, m: &mut Metrics) -> bool {
        let key = t.key();
        self.fault_in_key(key, m); // the duplicate check walks the chain
        let h = hash_key(key);
        let lin = t.lineage();
        if let Some(idx) = self.index.find(h, key, &mut m.probe_depth) {
            let mut cur = self.index.metas[idx].head;
            while cur != NIL {
                let s = &self.slots[cur as usize];
                if s.tuple.as_ref().expect("live slot").lineage() == lin {
                    return false;
                }
                cur = s.next;
            }
            let slot = self.alloc_slot(t, m);
            self.link_tail(idx, slot);
        } else {
            self.insert_hashed(h, key, t, m);
        }
        true
    }

    /// Distinct keys currently present in either tier.
    pub fn distinct_keys(&self) -> FxHashSet<Key> {
        let mut keys: FxHashSet<Key> = self.index.keys().collect();
        if let Some(c) = self.cold.as_deref() {
            keys.extend(c.keys());
        }
        keys
    }

    /// Iterate all *hot* entries in insertion order. Callers that must see
    /// every entry of a spilled store (theta scans, snapshots) fault the
    /// cold tier back first via [`SlabStore::fault_in_all`].
    pub fn iter(&self) -> SlabIter<'_> {
        debug_assert_eq!(
            self.cold_entries(),
            0,
            "iter() over a store with cold entries; fault_in_all first"
        );
        SlabIter {
            slots: &self.slots,
            cur: self.ord_head,
        }
    }

    /// Drop every entry (both tiers), keeping allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free_head = NIL;
        self.live = 0;
        self.ord_head = NIL;
        self.ord_tail = NIL;
        if let Some(c) = self.cold.as_deref_mut() {
            c.clear();
        }
    }
}

/// Insertion-order iterator over a [`SlabStore`].
#[derive(Debug)]
pub struct SlabIter<'a> {
    slots: &'a [Slot],
    cur: u32,
}

impl<'a> Iterator for SlabIter<'a> {
    type Item = &'a Tuple;

    #[inline]
    fn next(&mut self) -> Option<&'a Tuple> {
        if self.cur == NIL {
            return None;
        }
        let s = &self.slots[self.cur as usize];
        self.cur = s.ord_next;
        Some(s.tuple.as_ref().expect("ring threads live slots"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::{BaseTuple, StreamId};

    fn bt(stream: u16, seq: u64, key: Key) -> Tuple {
        Tuple::base(BaseTuple::new(StreamId(stream), seq, key, 0))
    }

    fn keys_of(s: &SlabStore, key: Key) -> Vec<u64> {
        let mut m = Metrics::new();
        let mut out = Vec::new();
        s.for_each_match(key, &mut m, |t| out.push(t.max_seq()));
        out
    }

    #[test]
    fn insert_find_and_chain_order() {
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        for seq in 0..5 {
            s.insert(bt(0, seq, 7), &mut m);
        }
        s.insert(bt(0, 9, 8), &mut m);
        assert_eq!(s.len(), 6);
        assert_eq!(s.key_count(), 2);
        assert_eq!(keys_of(&s, 7), vec![0, 1, 2, 3, 4], "insertion order");
        assert_eq!(s.match_count(7, &mut m), 5);
        assert!(s.contains_key(8, &mut m));
        assert!(!s.contains_key(99, &mut m));
        assert!(m.probe_depth > 0, "probes are accounted");
    }

    #[test]
    fn churn_against_reference_map() {
        use jisc_common::{FxHashMap, SplitMix64};
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        let mut reference: FxHashMap<Key, Vec<u64>> = FxHashMap::default();
        let mut rng = SplitMix64::new(42);
        for seq in 0..4000u64 {
            let key = rng.next_below(97);
            if rng.next_below(4) == 0 {
                let removed = s.remove_key(key, &mut m);
                let expected = reference.remove(&key).map_or(0, |v| v.len());
                assert_eq!(removed, expected, "remove_key({key})");
            } else {
                s.insert(bt(0, seq, key), &mut m);
                reference.entry(key).or_default().push(seq);
            }
        }
        assert_eq!(s.key_count(), reference.len());
        assert_eq!(s.len(), reference.values().map(Vec::len).sum::<usize>());
        for (k, v) in &reference {
            assert_eq!(&keys_of(&s, *k), v, "chain for key {k}");
        }
        // rehashes happened (growth and/or tombstone cleanup) and the
        // arena recycled freed slots
        assert!(m.slab_rehashes > 0);
        assert!(m.slab_slot_reuses > 0);
        assert!(s.stats().slab_capacity < 4000, "slots are recycled");
    }

    #[test]
    fn ring_pops_fifo_expiry_in_order() {
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        // Hot key: many entries under one key — the old layout retain-scans
        // the whole bucket per expiry; the ring head pops each in O(1).
        for seq in 0..64 {
            s.insert(bt(0, seq, 5), &mut m);
        }
        for seq in 0..64 {
            assert_eq!(s.remove_containing(StreamId(0), seq, 5, &mut m), 1);
        }
        assert!(s.is_empty());
        assert_eq!(s.key_count(), 0);
    }

    #[test]
    fn out_of_order_removal_keeps_ring_consistent() {
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        for seq in 0..6 {
            s.insert(bt(0, seq, seq % 2), &mut m);
        }
        // Remove a middle element (not the ring head).
        assert_eq!(s.remove_containing(StreamId(0), 3, 1, &mut m), 1);
        let order: Vec<u64> = s.iter().map(|t| t.max_seq()).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 5]);
        // Head removal still O(1)-paths correctly afterwards.
        assert_eq!(s.remove_containing(StreamId(0), 0, 0, &mut m), 1);
        let order: Vec<u64> = s.iter().map(|t| t.max_seq()).collect();
        assert_eq!(order, vec![1, 2, 4, 5]);
    }

    #[test]
    fn hashed_probe_agrees_with_plain_probe() {
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        for seq in 0..100 {
            s.insert(bt(0, seq, seq % 13), &mut m);
        }
        for key in 0..13 {
            let mut a = Vec::new();
            s.for_each_match(key, &mut m, |t| a.push(t.max_seq()));
            let mut b = Vec::new();
            s.for_each_match_hashed(hash_key(key), key, &mut m, |t| b.push(t.max_seq()));
            assert_eq!(a, b);
        }
        s.prefetch(hash_key(5)); // smoke: must not panic on any table size
        SlabStore::new().prefetch(hash_key(5));
    }

    #[test]
    fn warm_ups_are_harmless_on_any_table_state() {
        // The hint itself: never dereferenced, so a null or dangling
        // address is fine — on x86_64 the prefetch cannot fault, elsewhere
        // the fallback discards the pointer.
        prefetch_read(std::ptr::null::<Slot>());
        prefetch_span(std::ptr::NonNull::<u8>::dangling().as_ptr(), 3 * LINE);

        let items: Vec<(u64, Key)> = (0..40).map(|k| (hash_key(k), k)).collect();
        let mut cur = vec![7; 3]; // stale scratch from another column
        let warm_all = |s: &SlabStore, cur: &mut Vec<u32>| {
            for depth in [WarmDepth::Pair, WarmDepth::Chain, WarmDepth::Ring] {
                s.warm(depth, items.len(), |i| items[i], cur);
                s.warm(depth, 0, |i| items[i], cur);
            }
        };
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        warm_all(&s, &mut cur); // no table at all
        s.reserve(100, 100, &mut m);
        warm_all(&s, &mut cur); // freshly rehashed, empty
        for seq in 0..60 {
            s.insert(bt(0, seq, seq % 20), &mut m);
        }
        for key in 0..10 {
            s.remove_key(key, &mut m); // tombstones and free-listed slots
        }
        warm_all(&s, &mut cur); // live chains, singleton and multi-entry
        s.clear();
        warm_all(&s, &mut cur); // cleared: capacity kept, slab empty
    }

    #[test]
    fn clone_is_deep() {
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        for seq in 0..10 {
            s.insert(bt(0, seq, seq), &mut m);
        }
        let snap = s.clone();
        s.remove_key(3, &mut m);
        assert_eq!(s.len(), 9);
        assert_eq!(snap.len(), 10);
        assert_eq!(keys_of(&snap, 3), vec![3]);
    }

    #[test]
    fn clear_retains_capacity_and_resets_ring() {
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        for seq in 0..50 {
            s.insert(bt(0, seq, seq), &mut m);
        }
        let cap_before = s.stats().index_capacity;
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.stats().index_capacity, cap_before);
        s.insert(bt(0, 1, 1), &mut m);
        assert_eq!(s.len(), 1);
        assert_eq!(keys_of(&s, 1), vec![1]);
    }

    #[test]
    fn tiny_budget_spills_oldest_and_faults_back_in_order() {
        use crate::spill::{ScratchDir, SpillConfig};
        let dir = ScratchDir::new("slab-spill");
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        // Budget of 4 hot entries: everything older spills. A tiny segment
        // target forces the active segment to seal during the run so the
        // sealed-segment counter is exercised too.
        let mut cfg = SpillConfig::new(4 * HOT_ENTRY_EST_BYTES, dir.path());
        cfg.segment_target_bytes = 256;
        s.enable_spill(cfg).unwrap();
        for seq in 0..64 {
            s.insert(bt(0, seq, seq % 5), &mut m);
        }
        assert_eq!(s.len(), 64, "len spans both tiers");
        assert!(s.cold_entries() > 0, "budget forced evictions");
        assert!(s.stats().live <= 4, "hot tier respects the budget");
        assert!(m.spill_evictions > 0 && m.spill_segments_sealed > 0);
        assert_eq!(s.key_count(), 5);
        assert_eq!(s.match_count(2, &mut m), 13, "stub counts need no disk");
        assert!(s.contains_key(2, &mut m));

        // Fault one key back: its chain order is original insertion order.
        s.fault_in_key(2, &mut m);
        assert!(!s.has_cold(2));
        assert_eq!(
            keys_of(&s, 2),
            (0..64).filter(|q| q % 5 == 2).collect::<Vec<u64>>()
        );
        assert!(m.spill_faults > 0);

        // Whole-key removal of a cold key touches no disk and drops stubs.
        let gone = s.remove_key(3, &mut m);
        assert_eq!(gone, 13);
        assert!(!s.has_cold(3));

        // fault_in_all drains the cold tier completely.
        s.fault_in_all(&mut m);
        assert_eq!(s.cold_entries(), 0);
        assert_eq!(s.len(), 64 - 13);
        assert_eq!(s.iter().count(), 64 - 13);
    }

    #[test]
    fn spilled_base_expiry_drops_stubs_without_fault() {
        use crate::spill::{ScratchDir, SpillConfig};
        let dir = ScratchDir::new("slab-expiry");
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        s.enable_spill(SpillConfig::new(2 * HOT_ENTRY_EST_BYTES, dir.path()))
            .unwrap();
        for seq in 0..32 {
            s.insert(bt(0, seq, seq % 4), &mut m);
        }
        let faults_before = m.spill_faults;
        // FIFO expiry, exactly as a sliding window drives it.
        for seq in 0..32 {
            assert_eq!(s.remove_containing(StreamId(0), seq, seq % 4, &mut m), 1);
        }
        assert!(s.is_empty());
        assert_eq!(s.cold_entries(), 0);
        assert_eq!(
            m.spill_faults, faults_before,
            "base-stub expiry never reads disk"
        );
        assert!(m.spill_segments_dropped > 0, "dead segments dropped O(1)");
    }

    #[test]
    fn spilled_clone_is_independent() {
        use crate::spill::{ScratchDir, SpillConfig};
        let dir = ScratchDir::new("slab-clone");
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        s.enable_spill(SpillConfig::new(2 * HOT_ENTRY_EST_BYTES, dir.path()))
            .unwrap();
        for seq in 0..16 {
            s.insert(bt(0, seq, seq), &mut m);
        }
        let mut snap = s.clone();
        s.remove_key(3, &mut m);
        assert_eq!(s.len(), 15);
        assert_eq!(snap.len(), 16);
        snap.fault_in_all(&mut m);
        assert_eq!(snap.len(), 16);
        assert_eq!(keys_of(&snap, 3), vec![3]);
    }

    #[test]
    fn reserve_presizes_index() {
        let mut m = Metrics::new();
        let mut s = SlabStore::new();
        s.reserve(1000, 2000, &mut m);
        let rehashes_after_reserve = m.slab_rehashes;
        for seq in 0..1000 {
            s.insert(bt(0, seq, seq), &mut m);
        }
        assert_eq!(
            m.slab_rehashes, rehashes_after_reserve,
            "pre-sized index absorbs the inserts without growing"
        );
    }
}
