//! The batch execution path: one [`ColumnarBatch`] through the vectorized
//! kernels.
//!
//! [`Pipeline::push_columnar_with`] executes a whole batch as a two-phase
//! flush over structure-of-arrays deltas:
//!
//! * the **key hashes of the whole batch** are produced by one column
//!   kernel ([`jisc_common::kernels::hash_column`]) and ride along as a
//!   dense column, feeding the slab store's `insert_hashed`/
//!   `for_each_match_hashed` entry points directly;
//! * **probe loops read only the dense key/hash columns** — a delta tuple's
//!   `Arc` is touched (cloned) only when a probe actually matches, so a
//!   selective join's flush does not scale with refcount traffic;
//! * **the three loops that touch the slab — removal, probe, install — are
//!   group-prefetched**: each hands its whole item column to
//!   [`State::warm`](crate::state::State::warm) first, which prefetches
//!   stage by stage the lines every item's operation will touch, and then
//!   runs the unchanged single-item operation per item;
//! * **window expiry is planned per batch, not per arrival**: when no
//!   window pops interleave with the batch at all it commits as one bulk
//!   segment; otherwise a read-only planner cuts the batch into maximal
//!   *bulk-safe segments* — each segment's expiries provably commute with
//!   its inserts (no expiring key collides with a segment insert, no
//!   segment row expires mid-segment) and execute as one bulk
//!   pops-then-inserts step. Incomplete (mid-migration) states run the
//!   same plan: every piece of completion bookkeeping is per (state, key),
//!   so events on different keys commute there exactly as they do on
//!   complete states (DESIGN §9, "Mid-migration batches");
//! * **just-in-time completion is a column step**: a probe direction whose
//!   probed state is incomplete hands its whole key column to
//!   [`Semantics::complete_keys`] first, after which it takes the same
//!   warmed probe loop as a complete state;
//! * **nested-loop (KeyEq) probes and intra-batch pairing** evaluate the
//!   join predicate over an entire delta column into a [`SelBitmap`]
//!   (64 rows per word, branch-free) instead of scanning the state once
//!   per delta element and materializing intermediates.
//!
//! Everything else — batches of one, non-batchable plans (set-difference,
//! aggregation, non-`KeyEq` theta joins) and malformed batches (a clock
//! violation, a pinned sequence number behind the last transition, an
//! unknown stream) — runs the per-tuple queue walk row by row, reached from
//! one place (`push_rows`). The output is equivalent to pushing the batch's
//! rows one at a time in order, by lineage multiset — property-tested
//! against per-tuple execution for all four migration strategies.
//!
//! Per-kernel wall-clock/element counters accumulate in
//! [`Pipeline::kernels`] ([`KernelStats`]) and surface as a footer line in
//! [`crate::explain::explain`]. They are deliberately *not* part of
//! [`jisc_common::Metrics`], which must stay deterministic and comparable
//! across equivalent runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jisc_common::kernels::{eq_bitmap, hash_column};
use jisc_common::{
    hash_key, BaseTuple, ColumnarBatch, FxHashMap, FxHashSet, JiscError, Key, Result, SelBitmap,
    SeqNo, Tuple,
};

use crate::ops::DefaultSemantics;
use crate::pipeline::{Pipeline, Semantics};
use crate::plan::OpKind;
use crate::predicate::Predicate;
use crate::slab::WarmDepth;
use crate::spec::WindowSpec;

/// Below this `|δl|·|δr|` product the intra-batch pairing term uses the
/// bitmap kernel; above it, a keyed index over the right delta. The bitmap
/// wins on small deltas (no map to build or allocate), the index on large
/// ones (the bitmap pass is quadratic in batch size).
const INTRA_PAIR_KEYED_MIN: usize = 2048;

/// Per-node delta scratch buffers shrink back to this capacity after each
/// flush, so one outlier batch cannot pin its high-water allocation.
const DELTA_SCRATCH_CAP: usize = 1024;

/// Accumulated cost of one kernel: how often it ran, how many column
/// elements it touched, and the wall-clock nanoseconds it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCounter {
    /// Times the kernel ran.
    pub invocations: u64,
    /// Column elements processed across all invocations.
    pub elements: u64,
    /// Total wall-clock nanoseconds.
    pub nanos: u64,
}

impl KernelCounter {
    fn record(&mut self, elements: u64, took: Duration) {
        self.invocations += 1;
        self.elements += elements;
        self.nanos += took.as_nanos() as u64;
    }

    /// Mean nanoseconds per element (0.0 before any elements).
    pub fn ns_per_element(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.nanos as f64 / self.elements as f64
        }
    }
}

/// Per-kernel cost counters of the columnar path, surfaced in
/// [`explain`](crate::explain::explain)'s footer. Wall-clock based, so kept
/// out of [`jisc_common::Metrics`] (which is deterministic and comparable).
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Whole-column key hashing.
    pub hash: KernelCounter,
    /// Phase-I probes of pre-batch states (elements = delta entries probed).
    pub probe: KernelCounter,
    /// Intra-batch delta×delta pairing (elements = left-side entries).
    pub pair: KernelCounter,
    /// Phase-II state installs + root emission (elements = entries installed).
    pub install: KernelCounter,
    /// Bulk window expiry (elements = tuples expired).
    pub expire: KernelCounter,
}

impl KernelStats {
    /// Has the columnar path run at all?
    pub fn any(&self) -> bool {
        self.hash.invocations > 0
    }

    /// Visits every kernel counter as a `(stable name, counter)` pair —
    /// the bridge into the telemetry registry (and the single list the
    /// footer renders from).
    pub fn for_each_named(&self, mut f: impl FnMut(&'static str, &KernelCounter)) {
        f("hash", &self.hash);
        f("probe", &self.probe);
        f("pair", &self.pair);
        f("install", &self.install);
        f("expire", &self.expire);
    }

    /// The `explain` footer line, rendered by the shared telemetry
    /// renderer (same `section: k=v` shape as the `index:` footer).
    pub fn footer(&self) -> String {
        let mut entries: Vec<(&'static str, String)> = Vec::with_capacity(5);
        self.for_each_named(|name, c| {
            entries.push((name, format!("{}@{:.1}ns", c.elements, c.ns_per_element())));
        });
        jisc_telemetry::render::line("kernels", &entries)
    }
}

/// One node's batch delta in structure-of-arrays layout: parallel dense
/// columns, one entry per delta tuple. The probe loops read `keys`/`hashes`
/// only; `tuples` is touched when a probe matches (the `Arc` clone happens
/// per *result*, not per probed element).
#[derive(Debug, Default)]
pub(crate) struct ColDelta {
    keys: Vec<Key>,
    hashes: Vec<u64>,
    fresh: Vec<bool>,
    /// Newest constituent sequence number (intra-batch pairing resolves
    /// which side "arrived later" from this column without touching the
    /// tuples).
    max_seqs: Vec<SeqNo>,
    tuples: Vec<Tuple>,
}

impl ColDelta {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn push(&mut self, key: Key, hash: u64, fresh: bool, max_seq: SeqNo, tuple: Tuple) {
        self.keys.push(key);
        self.hashes.push(hash);
        self.fresh.push(fresh);
        self.max_seqs.push(max_seq);
        self.tuples.push(tuple);
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.hashes.clear();
        self.fresh.clear();
        self.max_seqs.clear();
        self.tuples.clear();
    }

    fn shrink(&mut self, cap: usize) {
        if self.keys.capacity() > cap {
            self.keys.shrink_to(cap);
            self.hashes.shrink_to(cap);
            self.fresh.shrink_to(cap);
            self.max_seqs.shrink_to(cap);
            self.tuples.shrink_to(cap);
        }
    }
}

/// One expired base tuple's removal as carried by the bulk retraction
/// kernel (the `fresh` flag of a queued `Remove` is omitted — the default
/// removal walk threads it through unread).
#[derive(Debug, Clone, Copy)]
struct RemoveItem {
    stream: jisc_common::StreamId,
    seq: SeqNo,
    key: Key,
    /// `hash_key(key)`: one hash addresses the key's group in every state
    /// on the path to the root (all streams share the join attribute).
    hash: u64,
}

/// Reusable scratch of the columnar path, owned by the pipeline so the
/// steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ColScratch {
    /// Whole-batch key hashes (hash kernel output).
    hashes: Vec<u64>,
    /// Effective per-row timestamps after clock resolution.
    eff_ts: Vec<u64>,
    /// Per-node SoA deltas, indexed by `NodeId`.
    deltas: Vec<ColDelta>,
    /// Distinct keys of the current segment (expiry-commutation check).
    batch_keys: FxHashSet<Key>,
    /// Predicate-kernel output bitmap.
    bitmap: SelBitmap,
    /// Per-stream: ring entries to expire for the current segment.
    pops: Vec<usize>,
    /// Per-stream arrival counts (current segment, or whole batch during
    /// the global planning pass).
    arrivals: Vec<usize>,
    /// One row's prospective pops: `(stream, ring position, key)`.
    row_pops: Vec<(usize, usize, Key)>,
    /// Pops of the current segment whose removal is deferred past the
    /// segment's flush: `(stream, ring position)`.
    deferred_pops: Vec<(usize, usize)>,
    /// Keys with a deferred removal pending — a new arrival on such a key
    /// cuts the segment (it must not pair with the removed tuple).
    deferred_keys: FxHashSet<Key>,
    /// Tuples popped from their rings whose `Remove` has not been
    /// enqueued yet; drained into the next expiry run.
    pending_removes: Vec<Arc<BaseTuple>>,
    /// Per-node pending removal columns of the bulk retraction kernel,
    /// indexed by `NodeId`.
    retract: Vec<Vec<RemoveItem>>,
    /// Per-item cursors of a kernel's warm-up stages ([`State::warm`]).
    warm: Vec<u32>,
}

/// Result of the read-only clock/expiry planning pass.
enum BatchPlan {
    /// No window expiry interleaves with the batch: one bulk segment.
    Bulk,
    /// Expiry interleaves; execute as maximal bulk-safe segments, cutting
    /// where an expiring key collides with a segment insert.
    Segmented,
    /// Clock violation, a pinned sequence number behind the last
    /// transition, or an unknown stream: run the rows through the
    /// per-tuple path (it reproduces the serial-prefix state and the
    /// error).
    Fallback,
}

impl Pipeline {
    /// Process a whole [`ColumnarBatch`] to quiescence under the given
    /// semantics, equivalent (by output lineage multiset) to pushing its
    /// rows one at a time in order, executed through the vectorized kernel
    /// path described in [`crate::columnar`].
    ///
    /// A row's unset timestamp means "default clock" (same rule as
    /// [`Pipeline::ingest`]); a pinned sequence number is adopted via
    /// [`Pipeline::set_next_seq`] (sharded routing).
    pub fn push_columnar_with(
        &mut self,
        sem: &mut impl Semantics,
        batch: &ColumnarBatch,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if batch.len() < 2 || !self.plan.batchable() {
            return self.push_rows(sem, batch);
        }
        if self.pending_items > 0 {
            return Err(JiscError::InvalidConfig(
                "previous arrival not yet processed: run the pipeline before \
                 ingesting the next batch"
                    .into(),
            ));
        }

        let mut col = std::mem::take(&mut self.col);
        let t0 = Instant::now();
        hash_column(batch.keys(), &mut col.hashes);
        self.kernels.hash.record(batch.len() as u64, t0.elapsed());

        match self.plan_batch(batch, &mut col) {
            BatchPlan::Bulk => {
                col.pops.clear();
                col.pops.resize(self.catalog.len(), 0);
                col.deferred_pops.clear();
                self.commit_segment(batch, &mut col, 0, batch.len());
                self.flush_columnar(sem, &mut col);
            }
            BatchPlan::Segmented => {
                let mut start = 0;
                while start < batch.len() {
                    let end = self.plan_segment(batch, start, &mut col);
                    self.commit_segment(batch, &mut col, start, end);
                    self.flush_columnar(sem, &mut col);
                    start = end;
                }
                self.drain_deferred(&mut col);
            }
            BatchPlan::Fallback => {
                self.col = col;
                return self.push_rows(sem, batch);
            }
        }
        self.col = col;
        Ok(())
    }

    /// The per-tuple fallback: push every row through the queue walk in
    /// order. Stops at the first error, leaving the state the serial prefix
    /// before it produced.
    fn push_rows(&mut self, sem: &mut impl Semantics, batch: &ColumnarBatch) -> Result<()> {
        for i in 0..batch.len() {
            let t = batch.row(i);
            if let Some(seq) = t.seq {
                self.set_next_seq(seq);
            }
            let ts = t.ts.unwrap_or_else(|| self.last_ts.max(self.next_seq));
            self.push_at_with(sem, t.stream, t.key, t.payload, ts)?;
        }
        Ok(())
    }

    /// [`Pipeline::push_columnar_with`] under the default semantics.
    pub fn push_columnar(&mut self, batch: &ColumnarBatch) -> Result<()> {
        self.push_columnar_with(&mut DefaultSemantics, batch)
    }

    /// Read-only planning pass: resolve every row's effective timestamp
    /// and classify the batch — bulk (no expiry interleaves), segmented
    /// (expiry interleaves), or per-tuple fallback (malformed batch).
    /// Mutates only `col` scratch.
    fn plan_batch(&self, batch: &ColumnarBatch, col: &mut ColScratch) -> BatchPlan {
        let n = batch.len();

        // Clock resolution: simulate the sequence/timestamp assignment the
        // serial path would perform. Any monotonicity violation or a
        // pinned sequence that would rewind the transition clock falls
        // back — per-tuple execution reproduces the exact serial-prefix
        // semantics (including the error).
        col.eff_ts.clear();
        col.eff_ts.reserve(n);
        let mut sim_seq = self.next_seq;
        let mut sim_ts = self.last_ts;
        for i in 0..n {
            if let Some(s) = batch.seq_at(i) {
                if s < self.last_transition_seq {
                    return BatchPlan::Fallback;
                }
                sim_seq = s;
            }
            let ts = batch.ts_at(i).unwrap_or_else(|| sim_ts.max(sim_seq));
            if ts < sim_ts {
                return BatchPlan::Fallback;
            }
            sim_ts = ts;
            col.eff_ts.push(ts);
            sim_seq += 1;
        }

        // Per-stream arrival counts, validating streams on the way.
        let streams = self.catalog.len();
        col.arrivals.clear();
        col.arrivals.resize(streams, 0);
        for &s in batch.streams() {
            let si = s.0 as usize;
            if si >= streams || self.plan.scan_of(s).is_none() {
                return BatchPlan::Fallback;
            }
            col.arrivals[si] += 1;
        }

        // Does any window expiry interleave with this batch at all? A
        // count window pops once its population would exceed `w`; a time
        // window pops when a ring front ages past `d` by the batch's final
        // timestamp, or when the batch's own span reaches `d` (a batch row
        // would expire mid-batch).
        let (first_ts, final_ts) = (col.eff_ts[0], col.eff_ts[n - 1]);
        let mut expiry = false;
        for i in 0..streams {
            let s = jisc_common::StreamId(i as u16);
            expiry |= match self.catalog.window_spec(s) {
                WindowSpec::Count(w) => self.rings[i].len() + col.arrivals[i] > w,
                WindowSpec::Time(d) => {
                    final_ts - first_ts >= d
                        || self.rings[i]
                            .front()
                            .is_some_and(|(at, _)| final_ts.saturating_sub(*at) >= d)
                }
            };
            if expiry {
                break;
            }
        }
        if expiry {
            BatchPlan::Segmented
        } else {
            BatchPlan::Bulk
        }
    }

    /// Greedy maximal bulk-safe segment starting at row `start`.
    ///
    /// All joins are key-equality (`batchable()` gates the columnar path),
    /// so only *per-key* event order matters for the output lineage
    /// multiset — events on different keys commute freely. A ring pop
    /// triggered mid-segment is therefore handled one of three ways:
    ///
    /// * its key was **not inserted earlier in the segment** → execute it
    ///   *before* the segment's inserts (the bulk pre-pop), preserving
    ///   pop-before-insert for that key (this covers a pop of the
    ///   triggering row's own key: serial order is slide-then-insert);
    /// * its key **was inserted earlier** → *defer* the removal until
    ///   after the segment's flush. Serially every segment insert of that
    ///   key precedes the pop (a later same-key arrival cuts the
    ///   segment), so post-flush removal preserves per-key order;
    /// * it would pop a **segment row** (count-window overflow, or the
    ///   segment's timestamp span reaching the shortest time window) →
    ///   cut: a batch tuple expiring mid-batch cannot be bulk-ordered.
    ///
    /// A new arrival whose key has a deferred removal pending also cuts —
    /// it must probe the post-removal state. Fills `col.pops` (per-stream
    /// ring pops) and `col.deferred_pops`/`col.deferred_keys` for the
    /// segment, and always returns `end > start`: a single row is
    /// trivially safe, since its own pops precede its insert in both
    /// serial and bulk order.
    fn plan_segment(&self, batch: &ColumnarBatch, start: usize, col: &mut ColScratch) -> usize {
        let n = batch.len();
        let streams = self.catalog.len();
        col.pops.clear();
        col.pops.resize(streams, 0);
        col.arrivals.clear();
        col.arrivals.resize(streams, 0);
        col.batch_keys.clear();
        col.deferred_pops.clear();
        col.deferred_keys.clear();
        let min_ticks = (0..streams)
            .filter_map(
                |i| match self.catalog.window_spec(jisc_common::StreamId(i as u16)) {
                    WindowSpec::Time(d) => Some(d),
                    WindowSpec::Count(_) => None,
                },
            )
            .min();
        let (keys, streams_col) = (batch.keys(), batch.streams());
        let start_ts = col.eff_ts[start];
        let mut e = start;
        while e < n {
            let ts = col.eff_ts[e];
            let (s, key) = (streams_col[e], keys[e]);
            let si = s.0 as usize;
            if let Some(d) = min_ticks {
                if e > start && ts - start_ts >= d {
                    break; // admitting this row would age a segment row past `d`
                }
            }
            if col.deferred_keys.contains(&key) {
                break; // must probe state after the deferred removal lands
            }
            // Collect this row's prospective pops read-only, so a cut
            // leaves `col.pops`/deferral state describing `[start, e)`.
            col.row_pops.clear();
            if self.has_time_windows {
                for i in 0..streams {
                    if let WindowSpec::Time(d) =
                        self.catalog.window_spec(jisc_common::StreamId(i as u16))
                    {
                        let ring = &self.rings[i];
                        let mut c = col.pops[i];
                        while let Some((at, old)) = ring.get(c) {
                            if ts.saturating_sub(*at) < d {
                                break;
                            }
                            col.row_pops.push((i, c, old.key));
                            c += 1;
                        }
                    }
                }
            }
            let mut cut = false;
            if let WindowSpec::Count(w) = self.catalog.window_spec(s) {
                let ring = &self.rings[si];
                let live = ring.len() + col.arrivals[si] - col.pops[si];
                if live >= w {
                    match ring.get(col.pops[si]) {
                        Some((_, old)) => col.row_pops.push((si, col.pops[si], old.key)),
                        None => cut = true, // a segment row would pop mid-segment
                    }
                }
            }
            // A pop of this row's own key can neither be deferred past the
            // row's insert nor pre-popped before the earlier same-key
            // insert that makes it deferrable.
            cut |= col
                .row_pops
                .iter()
                .any(|(_, _, k)| *k == key && col.batch_keys.contains(k));
            if cut {
                break;
            }
            for &(i, c, k) in &col.row_pops {
                if col.batch_keys.contains(&k) {
                    col.deferred_pops.push((i, c));
                    col.deferred_keys.insert(k);
                }
                col.pops[i] = c + 1;
            }
            col.batch_keys.insert(key);
            col.arrivals[si] += 1;
            e += 1;
        }
        debug_assert!(e > start, "a single row is always bulk-safe");
        e.max(start + 1)
    }

    /// Execute a planned segment `[start, end)`: the previous segment's
    /// deferred removals and this segment's pre-pops run to quiescence
    /// first (keys disjoint from the segment's inserts, so they commute
    /// with its deferred inserts), deferred pops are staged for the *next*
    /// expiry run, then every row is appended to its window ring and
    /// scan-node delta.
    fn commit_segment(
        &mut self,
        batch: &ColumnarBatch,
        col: &mut ColScratch,
        start: usize,
        end: usize,
    ) {
        // Bulk expiry for the whole segment: first the removals deferred
        // past the previous segment's flush, then this segment's pre-pops
        // (trigger order — deferred removals' triggers precede this
        // segment's rows).
        let mut expired = std::mem::take(&mut self.expired_scratch);
        expired.clear();
        expired.append(&mut col.pending_removes);
        for i in 0..col.pops.len() {
            for p in 0..col.pops[i] {
                let old = self.rings[i].pop_front().expect("planned pop").1;
                if col.deferred_pops.iter().any(|&(s, q)| s == i && q == p) {
                    col.pending_removes.push(old);
                } else {
                    expired.push(old);
                }
            }
        }
        self.expired_scratch = expired;
        self.run_removes(col);

        // Sequential commit of the arrivals: clocks, freshness, window
        // rings, and the per-scan SoA deltas (hashes from the kernel
        // column — nothing rehashes).
        col.deltas.iter_mut().for_each(ColDelta::clear);
        if col.deltas.len() < self.plan.len() {
            col.deltas.resize_with(self.plan.len(), ColDelta::default);
        }
        let (keys, streams, payloads) = (batch.keys(), batch.streams(), batch.payloads());
        for i in start..end {
            if let Some(s) = batch.seq_at(i) {
                self.set_next_seq(s);
            }
            let ts = col.eff_ts[i];
            self.last_ts = ts;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.metrics.tuples_in += 1;
            let (stream, key) = (streams[i], keys[i]);
            let scan = self.plan.scan_of(stream).expect("validated stream");
            let prev = self.fresh[stream.0 as usize].insert(key, seq);
            let fresh = prev.is_none_or(|s| s < self.last_transition_seq);
            let base = Arc::new(BaseTuple::new(stream, seq, key, payloads[i]));
            self.rings[stream.0 as usize].push_back((ts, Arc::clone(&base)));
            col.deltas[scan.0 as usize].push(key, col.hashes[i], fresh, seq, Tuple::Base(base));
        }
    }

    /// Run any removals still deferred after the final segment's flush
    /// (the batch is over, so nothing remains for them to wait on).
    fn drain_deferred(&mut self, col: &mut ColScratch) {
        let mut expired = std::mem::take(&mut self.expired_scratch);
        expired.clear();
        expired.append(&mut col.pending_removes);
        self.expired_scratch = expired;
        self.run_removes(col);
    }

    /// Run the collected column of expired tuples (`self.expired_scratch`)
    /// through the bulk retraction kernel — the one expiry path of the
    /// columnar plane and of watermark punctuation on batchable plans.
    pub(crate) fn run_removes(&mut self, col: &mut ColScratch) {
        if self.expired_scratch.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let expired_n = self.expired_scratch.len() as u64;
        let mut expired = std::mem::take(&mut self.expired_scratch);
        col.retract.iter_mut().for_each(Vec::clear);
        if col.retract.len() < self.plan.len() {
            col.retract.resize_with(self.plan.len(), Vec::new);
        }
        for old in expired.drain(..) {
            let scan = self.plan.scan_of(old.stream).expect("validated stream");
            col.retract[scan.0 as usize].push(RemoveItem {
                stream: old.stream,
                seq: old.seq,
                key: old.key,
                hash: hash_key(old.key),
            });
        }
        self.retract_columnar(col);
        self.expired_scratch = expired;
        self.kernels.expire.record(expired_n, t0.elapsed());
    }

    /// Node-major bulk retraction: drain `col.retract` in topo order,
    /// replaying the `Remove` walk every batchable plan's semantics share —
    /// scans always forward the clearing tuple, joins forward while entries
    /// were removed or the key is still pending completion (§4.2: an
    /// incomplete state cannot prove absence), the root counts retractions
    /// — without per-item queue dispatch. The `fresh` flag a queued
    /// `Remove` would carry is not materialized because the walk only
    /// threads it through unread.
    ///
    /// On an incomplete state the §4.3 pending-key bookkeeping
    /// ([`Pipeline::note_removal`]) runs *after* the node's forwarding
    /// decisions: the kernel is node-major, so the children have already
    /// lost every item of the column, and dropping a pending key before its
    /// sibling items were forwarded would strand their entries in adopted
    /// states above. Forwarding a superset is harmless (a `Remove` that
    /// finds nothing removes nothing).
    fn retract_columnar(&mut self, col: &mut ColScratch) {
        for i in 0..self.plan.topo().len() {
            let id = self.plan.topo()[i];
            if col.retract[id.0 as usize].is_empty() {
                continue;
            }
            let mut items = std::mem::take(&mut col.retract[id.0 as usize]);
            let parent = self.plan.node(id).parent;
            let is_scan = matches!(self.plan.node(id).op, OpKind::Scan(_));
            self.plan.node(id).state.warm(
                WarmDepth::Ring,
                items.len(),
                |i| (items[i].hash, items[i].key),
                &mut col.warm,
            );
            for it in &items {
                let removed = self.state_remove_containing(id, it.stream, it.seq, it.key);
                if is_scan || removed > 0 || self.plan.node(id).state.needs_completion(it.key) {
                    match parent {
                        Some(par) => col.retract[par.0 as usize].push(*it),
                        None => self.output.retractions += 1,
                    }
                }
            }
            if !self.plan.node(id).state.is_complete() {
                for it in &items {
                    self.note_removal(id, it.key);
                }
            }
            items.clear();
            col.retract[id.0 as usize] = items;
        }
    }

    /// The columnar two-phase flush: phase I computes every join node's
    /// delta against the pre-batch states bottom-up (dense-column probes,
    /// bitmap-driven pairing), phase II installs all deltas and emits at
    /// the root. The strict phase separation is what keeps JISC completion
    /// sound mid-batch: completion triggered by [`Semantics::complete_keys`]
    /// reads only pre-batch child states, so it materializes exactly the
    /// old-only combinations, while every delta entry contains at least one
    /// batch constituent; the two sets are lineage-disjoint and nothing is
    /// double-counted.
    fn flush_columnar(&mut self, sem: &mut impl Semantics, col: &mut ColScratch) {
        let ColScratch {
            deltas,
            bitmap,
            warm,
            ..
        } = col;

        // Phase I.
        for i in 0..self.plan.topo().len() {
            let id = self.plan.topo()[i];
            let node = self.plan.node(id);
            let nlj = match node.op {
                OpKind::HashJoin => false,
                OpKind::NljJoin(p) => {
                    debug_assert_eq!(p, Predicate::KeyEq, "batchable plans are KeyEq-only");
                    true
                }
                _ => continue,
            };
            let (l, r) = (
                node.left.expect("binary node has left child"),
                node.right.expect("binary node has right child"),
            );
            let (li, ri) = (l.0 as usize, r.0 as usize);
            let idx = id.0 as usize;
            debug_assert!(li < idx && ri < idx, "children precede parent in arena");
            let (lower, upper) = deltas.split_at_mut(idx);
            let out = &mut upper[0];
            // Left delta × pre-batch right state, then left state × right
            // delta.
            let probed = (lower[li].len() + lower[ri].len()) as u64;
            if probed > 0 {
                let t_probe = Instant::now();
                self.probe_direction(sem, r, &lower[li], out, nlj, false, bitmap, warm);
                self.probe_direction(sem, l, &lower[ri], out, nlj, true, bitmap, warm);
                self.kernels.probe.record(probed, t_probe.elapsed());
            }
            // Intra-batch pairing term.
            if !lower[li].is_empty() && !lower[ri].is_empty() {
                let t_pair = Instant::now();
                Self::pair_deltas(&lower[li], &lower[ri], out, bitmap);
                self.kernels
                    .pair
                    .record(lower[li].len() as u64, t_pair.elapsed());
            }
        }

        // Phase II: install every delta into its own node's state; the
        // root's delta is the batch's query output. Tuples move out of the
        // delta (no per-entry refcount bump except the root's emit+install
        // pair).
        let t_install = Instant::now();
        let mut installed = 0u64;
        for i in 0..self.plan.topo().len() {
            let id = self.plan.topo()[i];
            let idx = id.0 as usize;
            if deltas[idx].is_empty() {
                continue;
            }
            let is_root = self.plan.node(id).parent.is_none();
            let mut d = std::mem::take(&mut deltas[idx]);
            installed += d.len() as u64;
            self.plan.node(id).state.warm(
                WarmDepth::Chain,
                d.len(),
                |j| (d.hashes[j], d.keys[j]),
                warm,
            );
            for (j, t) in d.tuples.drain(..).enumerate() {
                let h = d.hashes[j];
                if is_root {
                    self.state_insert_hashed(id, h, t.clone());
                    self.emit(t);
                } else {
                    self.state_insert_hashed(id, h, t);
                }
            }
            d.clear();
            deltas[idx] = d;
        }
        self.kernels.install.record(installed, t_install.elapsed());
        for d in deltas.iter_mut() {
            d.shrink(DELTA_SCRATCH_CAP);
        }
        warm.shrink_to(DELTA_SCRATCH_CAP);
    }

    /// Probe `state_node`'s pre-batch state with every entry of `src`,
    /// appending join results to `out`.
    ///
    /// Hash states are probed element-major straight off the hash column
    /// (group-prefetched, no `Arc` touched until a match); list/theta
    /// states are probed stored-major — one [`eq_bitmap`] evaluation of the
    /// whole delta key column per stored entry, replacing a full state scan
    /// per delta element. An incomplete (mid-migration) state is first
    /// handed the key column through [`Semantics::complete_keys`]; once
    /// every probed key is complete there, it is probed like any other.
    #[allow(clippy::too_many_arguments)]
    fn probe_direction(
        &mut self,
        sem: &mut impl Semantics,
        state_node: crate::plan::NodeId,
        src: &ColDelta,
        out: &mut ColDelta,
        nlj: bool,
        stored_is_left: bool,
        bm: &mut SelBitmap,
        warm: &mut Vec<u32>,
    ) {
        if src.is_empty() {
            return;
        }
        if !self.plan.node(state_node).state.is_complete() {
            sem.complete_keys(self, state_node, &src.keys, &src.hashes);
        }
        // Batch-aware just-in-time fault-back (tiered states): fault every
        // cold chain this direction's delta column will probe with one
        // sequential read per touched segment, so the probe loops below run
        // against a hot-only store. After completion, whose inserts may
        // themselves evict.
        if self.plan.node(state_node).state.cold_entries() > 0 {
            if nlj {
                self.plan
                    .node_mut(state_node)
                    .state
                    .fault_in_all(&mut self.metrics);
            } else {
                self.plan
                    .node_mut(state_node)
                    .state
                    .fault_in_keys(src.keys.iter().copied(), &mut self.metrics);
            }
        }
        let join = |key: Key, t: &Tuple, m: &Tuple| {
            if stored_is_left {
                Tuple::joined(key, m.clone(), t.clone())
            } else {
                Tuple::joined(key, t.clone(), m.clone())
            }
        };
        // The state cannot change during this direction (completion is
        // done, installs are deferred to phase II), so borrow it once.
        let plan = &self.plan;
        let metrics = &mut self.metrics;
        let st = &plan.node(state_node).state;
        if nlj {
            // Stored-major bitmap probe. Accounting matches the
            // element-major theta scan: one probe per delta element, every
            // (stored, delta) pair compared once.
            metrics.probes += src.len() as u64;
            metrics.nlj_comparisons += (src.len() * st.len()) as u64;
            for m in st.iter() {
                eq_bitmap(&src.keys, m.key(), bm);
                bm.for_each_set(|di| {
                    out.push(
                        src.keys[di],
                        src.hashes[di],
                        src.fresh[di],
                        src.max_seqs[di].max(m.max_seq()),
                        join(src.keys[di], &src.tuples[di], m),
                    );
                });
            }
            return;
        }
        st.warm(
            WarmDepth::Pair,
            src.len(),
            |i| (src.hashes[i], src.keys[i]),
            warm,
        );
        for di in 0..src.len() {
            let (key, h) = (src.keys[di], src.hashes[di]);
            let (f, ms) = (src.fresh[di], src.max_seqs[di]);
            let t = &src.tuples[di];
            st.for_each_match_hashed(h, key, metrics, |m| {
                out.push(key, h, f, ms.max(m.max_seq()), join(key, t, m));
            });
        }
    }

    /// Intra-batch pairing: left delta × right delta on key equality,
    /// emitting each pair with the fresh flag of its later-arriving side.
    /// Small products run the bitmap kernel (one whole-column predicate
    /// evaluation per left entry, 64 comparisons per word); large products
    /// build a one-shot keyed index over the right delta.
    fn pair_deltas(la: &ColDelta, ra: &ColDelta, out: &mut ColDelta, bm: &mut SelBitmap) {
        if la.is_empty() || ra.is_empty() {
            return;
        }
        let emit = |a: usize, b: usize, out: &mut ColDelta| {
            let f = if la.max_seqs[a] > ra.max_seqs[b] {
                la.fresh[a]
            } else {
                ra.fresh[b]
            };
            out.push(
                la.keys[a],
                la.hashes[a],
                f,
                la.max_seqs[a].max(ra.max_seqs[b]),
                Tuple::joined(la.keys[a], la.tuples[a].clone(), ra.tuples[b].clone()),
            );
        };
        if la.len() * ra.len() > INTRA_PAIR_KEYED_MIN {
            let mut by_key: FxHashMap<Key, Vec<u32>> = FxHashMap::default();
            for (j, &k) in ra.keys.iter().enumerate() {
                by_key.entry(k).or_default().push(j as u32);
            }
            for a in 0..la.len() {
                if let Some(js) = by_key.get(&la.keys[a]) {
                    for &j in js {
                        emit(a, j as usize, out);
                    }
                }
            }
        } else {
            for a in 0..la.len() {
                eq_bitmap(&ra.keys, la.keys[a], bm);
                bm.for_each_set(|b| emit(a, b, out));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Catalog, JoinStyle, PlanSpec, StreamDef};
    use jisc_common::{JiscError, SplitMix64, StreamId};

    fn pipes(catalog: Catalog, spec: &PlanSpec) -> (Pipeline, Pipeline) {
        (
            Pipeline::new(catalog.clone(), spec).unwrap(),
            Pipeline::new(catalog, spec).unwrap(),
        )
    }

    /// One row as a test writes it: stream, key, pinned ts, pinned seq.
    type Row = (StreamId, Key, Option<u64>, Option<SeqNo>);

    /// The per-tuple reference for one batch: every row through `push_at`
    /// in order, clock resolved and pinned seq adopted as the batch path
    /// documents, stopping at the first error.
    fn push_rows_per_tuple(p: &mut Pipeline, rows: &[Row]) -> Result<()> {
        for (i, &(s, k, ts, seq)) in rows.iter().enumerate() {
            if let Some(seq) = seq {
                p.set_next_seq(seq);
            }
            let ts = ts.unwrap_or_else(|| p.last_ts().max(p.next_seq()));
            p.push_at(s, k, i as u64, ts)?;
        }
        Ok(())
    }

    fn columnar_of(rows: &[Row]) -> ColumnarBatch {
        let mut cb = ColumnarBatch::new(rows.len());
        for (i, &(s, k, ts, seq)) in rows.iter().enumerate() {
            cb.push_stamped(s, k, i as u64, ts, seq).unwrap();
        }
        cb
    }

    /// Drive one pipeline with columnar batches of `batch` rows and a twin
    /// with the same rows pushed one at a time (the "row batches");
    /// outputs must agree as lineage multisets.
    fn assert_equivalent(
        catalog: Catalog,
        spec: &PlanSpec,
        arrivals: &[(StreamId, Key, Option<u64>)],
        batch: usize,
    ) {
        let (mut row, mut colp) = pipes(catalog, spec);
        let rows: Vec<Row> = arrivals
            .iter()
            .map(|&(s, k, ts)| (s, k, ts, None))
            .collect();
        for chunk in rows.chunks(batch) {
            push_rows_per_tuple(&mut row, chunk).unwrap();
            colp.push_columnar(&columnar_of(chunk)).unwrap();
        }
        assert_eq!(
            row.output.lineage_multiset(),
            colp.output.lineage_multiset(),
            "columnar output diverged from per-tuple output"
        );
        assert_eq!(row.output.count(), colp.output.count());
    }

    fn random_arrivals(
        streams: u16,
        n: usize,
        key_space: u64,
        seed: u64,
    ) -> Vec<(StreamId, Key, Option<u64>)> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                (
                    StreamId((rng.next_u64() % streams as u64) as u16),
                    rng.next_u64() % key_space,
                    None,
                )
            })
            .collect()
    }

    #[test]
    fn columnar_matches_row_batches_hash_join_with_expiry() {
        // Window of 16 on a 3-way join: every batch of 64 expires plenty,
        // exercising the segmented bulk-expiry plan and its cuts.
        let catalog = Catalog::uniform(&["R", "S", "T"], 16).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let arrivals = random_arrivals(3, 600, 8, 42);
        for batch in [1, 3, 64, 256] {
            assert_equivalent(catalog.clone(), &spec, &arrivals, batch);
        }
    }

    #[test]
    fn columnar_matches_row_batches_nlj_keyeq() {
        let catalog = Catalog::uniform(&["R", "S", "T"], 32).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Nlj(Predicate::KeyEq));
        let arrivals = random_arrivals(3, 400, 6, 7);
        for batch in [2, 64] {
            assert_equivalent(catalog.clone(), &spec, &arrivals, batch);
        }
    }

    #[test]
    fn columnar_matches_row_batches_time_windows() {
        let defs = vec![StreamDef::timed("R", 50), StreamDef::timed("S", 80)];
        let catalog = Catalog::new(defs).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let mut rng = SplitMix64::new(9);
        let mut ts = 0u64;
        let arrivals: Vec<_> = (0..500)
            .map(|_| {
                ts += rng.next_u64() % 7;
                (
                    StreamId((rng.next_u64() % 2) as u16),
                    rng.next_u64() % 5,
                    Some(ts),
                )
            })
            .collect();
        // Batch of 64 spans ~192 ticks on average — wider than both
        // windows, so most batches are cut into several segments; batch 8
        // mostly stays bulk. Both must agree with pure row execution.
        for batch in [8, 64] {
            assert_equivalent(catalog.clone(), &spec, &arrivals, batch);
        }
    }

    #[test]
    fn columnar_falls_back_on_non_batchable_plans() {
        let catalog = Catalog::uniform(&["A", "B"], 10).unwrap();
        let spec = PlanSpec::set_diff_chain(&["A", "B"]);
        let (mut row, mut colp) = pipes(catalog, &spec);
        let arrivals = random_arrivals(2, 100, 4, 3);
        let mut cb = ColumnarBatch::new(arrivals.len());
        for &(s, k, _) in &arrivals {
            row.push(s, k, 0).unwrap();
            cb.push(s, k, 0).unwrap();
        }
        colp.push_columnar(&cb).unwrap();
        assert_eq!(
            row.output.lineage_multiset(),
            colp.output.lineage_multiset()
        );
    }

    #[test]
    fn columnar_rejects_non_monotonic_pinned_timestamps() {
        let catalog = Catalog::uniform(&["R", "S"], 10).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let mut p = Pipeline::new(catalog, &spec).unwrap();
        let mut cb = ColumnarBatch::new(4);
        cb.push_stamped(StreamId(0), 1, 0, Some(100), None).unwrap();
        cb.push_stamped(StreamId(1), 1, 0, Some(50), None).unwrap();
        assert!(p.push_columnar(&cb).is_err());
        // The serial prefix (first row) must have landed.
        assert_eq!(p.metrics.tuples_in, 1);
    }

    /// Every cause of `BatchPlan::Fallback`, mid-batch, through
    /// `push_columnar` and — on a twin — through per-tuple `push_at` of the
    /// same rows: same `Result` variant, same `Metrics` (incl. `tuples_in`,
    /// `dropped_late`, `late_admitted`), same output lineage multiset. The
    /// columnar side must never reach the kernels.
    #[test]
    fn every_fallback_cause_equals_per_tuple_execution() {
        use crate::lateness::LatenessPolicy;
        let (r, s, t) = (StreamId(0), StreamId(1), StreamId(2));
        let regressing: Vec<Row> = vec![
            (r, 1, Some(30), None),
            (s, 1, Some(31), None),
            (t, 1, Some(29), None), // 2 ticks late
            (s, 2, Some(25), None), // 6 ticks late
            (t, 2, Some(33), None),
            (r, 2, Some(34), None),
        ];
        let unknown_stream: Vec<Row> = vec![
            (s, 1, None, None),
            (t, 1, None, None),
            (StreamId(9), 1, None, None),
            (r, 1, None, None),
        ];
        // Seqs 100.. are pinned at or past the transition mark (100), then
        // one rewinds behind it; no pinned seq collides with the warm-up's.
        let behind_transition: Vec<Row> = vec![
            (s, 1, None, Some(100)),
            (t, 1, None, Some(101)),
            (r, 1, None, Some(60)),
            (s, 2, None, Some(61)),
            (t, 2, None, Some(62)),
        ];
        struct Cause<'a> {
            name: &'a str,
            policy: Option<LatenessPolicy>,
            /// Mark a transition at seq 100 before the batch.
            transition: bool,
            rows: &'a [Row],
            /// What the batch must have done, beyond matching per-tuple.
            check: fn(&Result<()>, &jisc_common::Metrics) -> bool,
        }
        let cause = |name, policy, rows, check| Cause {
            name,
            policy,
            transition: false,
            rows,
            check,
        };
        let cases = [
            cause("regressing ts, strict", None, &regressing, |r, _| {
                matches!(r, Err(JiscError::InvalidConfig(_)))
            }),
            cause(
                "regressing ts, drop",
                Some(LatenessPolicy::Drop),
                &regressing,
                |r, m| r.is_ok() && (m.dropped_late, m.late_admitted) == (2, 0),
            ),
            cause(
                "regressing ts, admit",
                Some(LatenessPolicy::AdmitWithinBound { bound: 3 }),
                &regressing,
                |r, m| r.is_ok() && (m.dropped_late, m.late_admitted) == (1, 1),
            ),
            cause("unknown stream", None, &unknown_stream, |r, _| {
                matches!(r, Err(JiscError::UnknownStream(_)))
            }),
            Cause {
                transition: true,
                ..cause("seq behind transition", None, &behind_transition, |r, _| {
                    r.is_ok()
                })
            },
        ];
        for Cause {
            name,
            policy,
            transition,
            rows,
            check,
        } in cases
        {
            let catalog = Catalog::uniform(&["R", "S", "T"], 8).unwrap();
            let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
            let (mut col, mut twin) = pipes(catalog, &spec);
            for p in [&mut col, &mut twin] {
                for i in 0..20u64 {
                    p.push_at(StreamId((i % 3) as u16), i % 3, 0, i).unwrap();
                }
                p.set_lateness_policy(policy);
                if transition {
                    p.set_next_seq(100);
                    p.mark_transition();
                }
            }
            let installed = col.kernels.install.elements;
            let got = col.push_columnar(&columnar_of(rows));
            let want = push_rows_per_tuple(&mut twin, rows);
            assert_eq!(
                col.kernels.install.elements, installed,
                "{name}: the batch reached the kernels"
            );
            assert!(
                check(&got, &col.metrics),
                "{name}: {got:?} {:?}",
                col.metrics
            );
            let variant = |r: &Result<()>| r.as_ref().err().map(std::mem::discriminant);
            assert_eq!(variant(&got), variant(&want), "{name}: {got:?} vs {want:?}");
            assert_eq!(col.metrics, twin.metrics, "{name}: metrics");
            assert_eq!(
                col.output.lineage_multiset(),
                twin.output.lineage_multiset(),
                "{name}: output"
            );
        }
    }

    /// The kernels' warm-up stages are hints: they may not leak into the
    /// deterministic counters. `Metrics` after a fixed-seed run through the
    /// segmented columnar path (time windows, expiry in every batch,
    /// multi-entry chains) must equal, field for field, the counts recorded
    /// from the commit before the kernels were staged — a warm-up that
    /// bumped `probe_depth` or `probes` fails here, not in a dashboard.
    #[test]
    fn columnar_metrics_equal_the_counts_recorded_before_staging() {
        let names = ["R", "S", "T", "U"];
        let catalog = Catalog::new(names.iter().map(|n| StreamDef::timed(*n, 200)).collect());
        let spec = PlanSpec::left_deep(&names, JoinStyle::Hash);
        let mut p = Pipeline::new(catalog.unwrap(), &spec).unwrap();
        let arrivals = random_arrivals(4, 6000, 40, 21);
        let mut cb = ColumnarBatch::new(64);
        for chunk in arrivals.chunks(64) {
            cb.clear();
            for &(s, k, _) in chunk {
                cb.push(s, k, 0).unwrap();
            }
            p.push_columnar(&cb).unwrap();
        }
        let recorded = jisc_common::Metrics {
            tuples_in: 6000,
            tuples_out: 10574,
            probes: 32558,
            inserts: 27189,
            removals: 26728,
            probe_depth: 62734,
            slab_rehashes: 21,
            slab_slot_reuses: 26459,
            ..Default::default()
        };
        assert_eq!(p.metrics, recorded);
    }

    #[test]
    fn kernel_stats_accumulate() {
        let catalog = Catalog::uniform(&["R", "S"], 100).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let mut p = Pipeline::new(catalog, &spec).unwrap();
        let mut cb = ColumnarBatch::new(8);
        for i in 0..8u64 {
            cb.push(StreamId((i % 2) as u16), i % 3, 0).unwrap();
        }
        p.push_columnar(&cb).unwrap();
        assert!(p.kernels.any());
        assert_eq!(p.kernels.hash.elements, 8);
        assert_eq!(p.kernels.hash.invocations, 1);
        assert!(p.kernels.install.elements > 0, "deltas installed");
        let footer = p.kernels.footer();
        assert!(footer.starts_with("kernels: hash=8@"), "{footer}");
    }
}
