//! The pipelined execution engine: streams in, operator tree, results out.
//!
//! A [`Pipeline`] owns a compiled [`Plan`], the per-stream sliding-window
//! rings, the freshness bookkeeping of §4.4, the output sink, and the
//! execution metrics. Tuples are [`Pipeline::ingest`]ed into per-operator
//! input queues and drained by [`Pipeline::run_with`] under a pluggable
//! [`Semantics`] — the default semantics implement plain symmetric-hash-join
//! pipelining (§2.1); the JISC, Moving State, and Parallel Track strategies
//! in `jisc-core` supply their own.

use std::sync::Arc;

use jisc_common::{
    hash_key, BaseTuple, FxHashMap, FxHashSet, JiscError, Key, Lineage, Metrics, Result, SeqNo,
    StreamId, Tuple,
};

use crate::ops::DefaultSemantics;
use crate::output::OutputSink;
use crate::plan::{NodeId, OpKind, Payload, Plan, QueueItem, Signature};
use crate::predicate::Predicate;
use crate::spec::{Catalog, PlanSpec, WindowSpec};
use crate::state::State;

/// Pluggable operator semantics: how one queued item is processed at a node.
///
/// Implementations receive the whole pipeline so they can probe sibling
/// states, insert results, and forward items. [`DefaultSemantics`] gives the
/// paper's plain pipelined execution; migration strategies override it.
///
/// Window expiry on batchable plans (scans and equi-joins) does not go
/// through [`Semantics::process`] when it comes from a columnar batch or a
/// watermark: the retraction kernel (`crate::columnar`) replays the one
/// `Remove` walk those operators have — remove the entries containing the
/// tuple, forward while something was removed or the key is still pending
/// completion — including the §4.3 pending-key bookkeeping
/// ([`Pipeline::note_removal`]), which is a no-op on complete states.
pub trait Semantics {
    /// Process one queue item at `node`.
    fn process(&mut self, p: &mut Pipeline, node: NodeId, item: QueueItem);

    /// Hook called by the columnar flush once per probe direction whose
    /// probed state is incomplete, before any delta tuple reads it — the
    /// batched counterpart of whatever per-item preparation `process` does
    /// before probing the opposite state. `keys`/`hashes` are the probing
    /// delta's key column in probe order (duplicates included). The default
    /// is a no-op (plain pipelining needs none); JISC semantics complete
    /// every pending key of the column here, after which the probes read
    /// the state like a complete one.
    fn complete_keys(
        &mut self,
        _p: &mut Pipeline,
        _state_node: NodeId,
        _keys: &[Key],
        _hashes: &[u64],
    ) {
    }
}

/// Result of [`Pipeline::adopt_states`]: which signatures were adopted into
/// the running plan, and the donor states that were discarded.
#[derive(Debug)]
pub struct AdoptionOutcome {
    /// Signatures whose states moved into the new plan.
    pub adopted: Vec<Signature>,
    /// Old-plan states with no matching node in the new plan.
    pub discarded: Vec<(Signature, State)>,
}

/// The execution engine for one query.
#[derive(Debug)]
pub struct Pipeline {
    pub(crate) catalog: Catalog,
    pub(crate) plan: Plan,
    /// Per-stream window ring: `(timestamp, tuple)` in arrival order,
    /// oldest at the front. Timestamps drive time-based windows; count
    /// windows ignore them.
    pub(crate) rings: Vec<std::collections::VecDeque<(u64, Arc<BaseTuple>)>>,
    /// Per-stream, per-key sequence number of the most recent arrival
    /// (Definition 2 freshness is an O(1) probe of this map, §4.4).
    pub(crate) fresh: Vec<FxHashMap<Key, SeqNo>>,
    pub(crate) next_seq: SeqNo,
    /// Most recent arrival timestamp (monotonicity enforced for push_at).
    pub(crate) last_ts: u64,
    /// Event-time watermark high-water mark: highest `ts` ever passed to
    /// [`Pipeline::apply_watermark_with`]. Purely an idempotence filter —
    /// expiry itself is driven through `last_ts` — and deliberately *not*
    /// part of the base-state snapshot: after a restore it resets to 0 and
    /// replayed watermarks are simply re-absorbed as no-ops.
    pub(crate) watermark: u64,
    /// Active lateness policy for out-of-order arrivals; `None` means
    /// strict (a regressing timestamp is an error).
    pub(crate) lateness: Option<crate::lateness::LatenessPolicy>,
    /// Cached: does any stream use a time-based window?
    pub(crate) has_time_windows: bool,
    pub(crate) last_transition_seq: SeqNo,
    /// Items currently sitting in operator input queues (scheduler state).
    pub(crate) pending_items: usize,
    /// Reused per-arrival buffer for tuples expiring out of the windows,
    /// so the steady-state ingest path allocates nothing.
    pub(crate) expired_scratch: Vec<Arc<BaseTuple>>,
    /// Reused buffer for join-probe results (see
    /// [`Pipeline::take_probe_scratch`]).
    probe_scratch: Vec<Tuple>,
    /// Reusable scratch of the columnar execution path (hash columns,
    /// per-node SoA deltas; see [`crate::columnar`]).
    pub(crate) col: crate::columnar::ColScratch,
    /// Per-kernel time/element counters of the columnar path (not part of
    /// [`Metrics`]: wall-clock timings are non-deterministic, and
    /// `Metrics` must stay comparable across equivalent runs).
    pub kernels: crate::columnar::KernelStats,
    /// Query output.
    pub output: OutputSink,
    /// Execution counters.
    pub metrics: Metrics,
    /// Per-state spill config applied by [`Pipeline::enable_spill`];
    /// remembered so plan replacements re-tier fresh states.
    pub(crate) spill_cfg: Option<crate::spill::SpillConfig>,
}

impl Pipeline {
    /// Compile `spec` against `catalog` and build an empty pipeline.
    pub fn new(catalog: Catalog, spec: &PlanSpec) -> Result<Self> {
        let plan = Plan::compile(&catalog, spec)?;
        let n = catalog.len();
        let has_time_windows = !catalog.all_count_windows();
        Ok(Pipeline {
            catalog,
            plan,
            rings: vec![Default::default(); n],
            fresh: vec![Default::default(); n],
            next_seq: 0,
            last_ts: 0,
            watermark: 0,
            lateness: None,
            has_time_windows,
            last_transition_seq: 0,
            pending_items: 0,
            expired_scratch: Vec::new(),
            probe_scratch: Vec::new(),
            col: Default::default(),
            kernels: Default::default(),
            output: OutputSink::new(),
            metrics: Metrics::new(),
            spill_cfg: None,
        })
    }

    // ----- accessors -----

    /// The stream catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The running plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Mutable access to the running plan (migration layer).
    pub fn plan_mut(&mut self) -> &mut Plan {
        &mut self.plan
    }

    /// Sequence number the next arrival will get.
    pub fn next_seq(&self) -> SeqNo {
        self.next_seq
    }

    /// Align this pipeline's sequence counter with another's. The Parallel
    /// Track strategy spawns a second pipeline mid-stream and both must
    /// assign identical sequence numbers to the same arrivals so lineages
    /// (the duplicate-elimination identity) agree across plans.
    pub fn set_next_seq(&mut self, seq: SeqNo) {
        self.next_seq = seq;
        self.last_transition_seq = self.last_transition_seq.min(seq);
    }

    /// Sequence number recorded at the most recent plan transition.
    pub fn last_transition_seq(&self) -> SeqNo {
        self.last_transition_seq
    }

    /// Current window contents of a stream (oldest first), with the
    /// timestamp each tuple arrived at.
    pub fn window_of(&self, s: StreamId) -> &std::collections::VecDeque<(u64, Arc<BaseTuple>)> {
        &self.rings[s.0 as usize]
    }

    /// Monotonic work counter used for latency measurements.
    pub fn work_now(&self) -> u64 {
        self.metrics.total_work()
    }

    // ----- ingestion -----

    /// Accept one arrival: assigns a sequence number, classifies freshness,
    /// slides the stream's window (enqueuing the expiry removal first), and
    /// enqueues the insert at the stream's scan node. Does **not** run the
    /// pipeline; call [`Pipeline::run_with`] (or use a strategy executor).
    ///
    /// One arrival must be fully processed before the next is ingested
    /// (enforced): with symmetric joins, batching arrivals would let a
    /// tuple probe partners that arrived *after* it, changing the query's
    /// answer relative to the arrival order.
    pub fn ingest(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        let ts = self.last_ts.max(self.next_seq);
        self.ingest_at(stream, key, payload, ts)
    }

    /// [`Pipeline::ingest`] with an explicit arrival timestamp (drives
    /// time-based windows; must be monotonically non-decreasing). For
    /// count-windowed streams the timestamp is recorded but irrelevant.
    ///
    /// Time-window expiry: every tuple whose age reaches the stream's
    /// window duration at this timestamp is removed — possibly several per
    /// arrival, possibly none.
    pub fn ingest_at(&mut self, stream: StreamId, key: Key, payload: u64, ts: u64) -> Result<()> {
        if self.pending_items > 0 {
            return Err(JiscError::InvalidConfig(
                "previous arrival not yet processed: run the pipeline before \
                 ingesting the next tuple"
                    .into(),
            ));
        }
        let ts = match self.admit_ts(ts)? {
            Some(ts) => ts,
            None => return Ok(()), // late tuple dropped, accounted in metrics
        };
        self.last_ts = ts;
        let scan = self
            .plan
            .scan_of(stream)
            .ok_or_else(|| JiscError::UnknownStream(format!("{stream}")))?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.metrics.tuples_in += 1;

        // Slide windows before recording the new arrival, so the expiring
        // tuples' freshness reflects arrivals strictly before this one.
        self.slide_windows(stream, ts);
        self.enqueue_removes();

        let prev = self.fresh[stream.0 as usize].insert(key, seq);
        let fresh = prev.is_none_or(|s| s < self.last_transition_seq);
        let base = Arc::new(BaseTuple::new(stream, seq, key, payload));
        self.rings[stream.0 as usize].push_back((ts, Arc::clone(&base)));
        self.pending_items += 1;
        self.plan.node_mut(scan).queue.push_back(QueueItem {
            from: None,
            payload: Payload::Insert {
                tuple: Tuple::Base(base),
                fresh,
            },
        });
        Ok(())
    }

    /// [`Pipeline::ingest`] by stream name.
    pub fn ingest_named(&mut self, stream: &str, key: Key, payload: u64) -> Result<()> {
        let id = self.catalog.id(stream)?;
        self.ingest(id, key, payload)
    }

    /// Is a (hypothetical) arrival with `key` on `stream` fresh right now
    /// (Definition 2)? O(1), as in §4.4.
    pub fn is_fresh(&self, stream: StreamId, key: Key) -> bool {
        self.fresh[stream.0 as usize]
            .get(&key)
            .is_none_or(|&s| s < self.last_transition_seq)
    }

    // ----- execution -----

    /// Drain all queues to quiescence under the given semantics.
    pub fn run_with(&mut self, sem: &mut impl Semantics) {
        // Bottom-up passes: children drain before parents, so one pass
        // usually reaches quiescence; the pending-item counter makes both
        // the outer loop and the per-node scans cheap to terminate.
        while self.pending_items > 0 {
            for i in 0..self.plan.topo().len() {
                let id = self.plan.topo()[i];
                while let Some(item) = self.plan.node_mut(id).queue.pop_front() {
                    self.pending_items -= 1;
                    sem.process(self, id, item);
                }
            }
        }
    }

    /// Drain all queues under the default (plain pipelined) semantics.
    pub fn run(&mut self) {
        self.run_with(&mut DefaultSemantics);
    }

    /// Ingest then immediately run with the given semantics.
    pub fn push_with(
        &mut self,
        sem: &mut impl Semantics,
        stream: StreamId,
        key: Key,
        payload: u64,
    ) -> Result<()> {
        self.ingest(stream, key, payload)?;
        self.run_with(sem);
        Ok(())
    }

    /// Ingest then immediately run with default semantics.
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        self.push_with(&mut DefaultSemantics, stream, key, payload)
    }

    /// Ingest at an explicit timestamp, then run with the given semantics.
    pub fn push_at_with(
        &mut self,
        sem: &mut impl Semantics,
        stream: StreamId,
        key: Key,
        payload: u64,
        ts: u64,
    ) -> Result<()> {
        self.ingest_at(stream, key, payload, ts)?;
        self.run_with(sem);
        Ok(())
    }

    /// Ingest at an explicit timestamp, then run with default semantics.
    pub fn push_at(&mut self, stream: StreamId, key: Key, payload: u64, ts: u64) -> Result<()> {
        self.push_at_with(&mut DefaultSemantics, stream, key, payload, ts)
    }

    /// Slide the windows for an arrival on `stream` at `ts`, collecting
    /// the tuples that fall out into `expired_scratch` (cleared first).
    /// Count windows slide only on their own stream's arrivals; time
    /// windows are driven by the clock, so *every* time-windowed stream is
    /// aged on every arrival — a tuple is inside its window while
    /// `ts - arrival < d`.
    fn slide_windows(&mut self, stream: StreamId, ts: u64) {
        self.expired_scratch.clear();
        if self.has_time_windows {
            self.expire_time_windows(ts);
        }
        if let WindowSpec::Count(w) = self.catalog.window_spec(stream) {
            let ring = &mut self.rings[stream.0 as usize];
            if ring.len() == w {
                self.expired_scratch
                    .push(ring.pop_front().expect("non-empty ring").1);
            }
        }
    }

    /// Pop every tuple whose age reaches its stream's time window at `ts`
    /// into `expired_scratch`, streams in catalog order.
    fn expire_time_windows(&mut self, ts: u64) {
        for i in 0..self.catalog.len() {
            if let WindowSpec::Time(d) = self.catalog.window_spec(StreamId(i as u16)) {
                let ring = &mut self.rings[i];
                while ring
                    .front()
                    .is_some_and(|(at, _)| ts.saturating_sub(*at) >= d)
                {
                    self.expired_scratch
                        .push(ring.pop_front().expect("non-empty ring").1);
                }
            }
        }
    }

    /// Enqueue one `Remove` per tuple of `expired_scratch` at its stream's
    /// scan node (draining the scratch) — the per-item expiry path of
    /// per-tuple ingestion and of watermarks on non-batchable plans.
    fn enqueue_removes(&mut self) {
        let mut expired = std::mem::take(&mut self.expired_scratch);
        for old in expired.drain(..) {
            let scan = self.plan.scan_of(old.stream).expect("windowed stream");
            let fresh = self.is_fresh(old.stream, old.key);
            self.enqueue(
                scan,
                QueueItem {
                    from: None,
                    payload: Payload::Remove {
                        stream: old.stream,
                        seq: old.seq,
                        key: old.key,
                        fresh,
                    },
                },
            );
        }
        self.expired_scratch = expired;
    }

    // ----- punctuation -----

    /// Advance the watermark to `ts`: expire every tuple whose age reaches
    /// its stream's time window at `ts`, exactly as a serial
    /// [`Pipeline::ingest_at`] sequence reaching `ts` would, and drain the
    /// resulting removals to quiescence. Count windows are arrival-driven
    /// and unaffected.
    pub fn advance_watermark_with(&mut self, sem: &mut impl Semantics, ts: u64) -> Result<()> {
        if self.pending_items > 0 {
            return Err(JiscError::InvalidConfig(
                "previous arrival not yet processed: run the pipeline before \
                 advancing the watermark"
                    .into(),
            ));
        }
        if ts < self.last_ts {
            return Err(JiscError::InvalidConfig(format!(
                "timestamps must be monotonic: {ts} < {}",
                self.last_ts
            )));
        }
        self.last_ts = ts;
        self.expired_scratch.clear();
        self.expire_time_windows(ts);
        if self.plan.batchable() {
            // Same retraction kernel as a columnar batch's expiry run.
            let mut col = std::mem::take(&mut self.col);
            self.run_removes(&mut col);
            self.col = col;
        } else {
            self.enqueue_removes();
            self.run_with(sem);
        }
        Ok(())
    }

    /// Apply an event-time watermark: "no arrival below `ts` will follow".
    ///
    /// Unlike [`Pipeline::advance_watermark_with`] — which treats a
    /// regressing `ts` as a producer bug — a watermark is monotone and
    /// idempotent by construction: a stale or repeated announcement is an
    /// accepted no-op. That is what lets several sources with independent
    /// clocks (or a router min-aligning over per-stream frontiers)
    /// re-announce frontiers freely without coordinating. Where the
    /// watermark does advance past the arrival clock it has exactly the
    /// expiry effect of [`Pipeline::advance_watermark_with`].
    pub fn apply_watermark_with(&mut self, sem: &mut impl Semantics, ts: u64) -> Result<()> {
        if ts <= self.watermark {
            return Ok(()); // stale or repeated: idempotent no-op
        }
        self.watermark = ts;
        if ts < self.last_ts {
            // Behind the arrival clock: every expiry it could trigger has
            // already happened. Record the frontier and move on.
            return Ok(());
        }
        self.advance_watermark_with(sem, ts)
    }

    /// Highest watermark ever applied (0 if none).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The arrival clock: timestamp of the most recent arrival (or the
    /// highest expiry/watermark applied past it).
    pub fn last_ts(&self) -> u64 {
        self.last_ts
    }

    // ----- lateness policy -----

    /// Install (or clear, with `None`) the lateness policy applied to
    /// out-of-order arrivals. With no policy a regressing timestamp is an
    /// error; see [`crate::lateness`] for the policy semantics and why
    /// this in-place form is best-effort (exactness-sensitive callers put
    /// a [`crate::lateness::LatenessGate`] in front instead).
    pub fn set_lateness_policy(&mut self, policy: Option<crate::lateness::LatenessPolicy>) {
        self.lateness = policy;
    }

    // ----- memory-budgeted tiered state -----

    /// Put every hash-layout state of the plan under a shared memory
    /// budget: `cfg.budget_bytes` is split evenly across them, and each
    /// state spills its oldest entries to compressed on-disk cold segments
    /// under `cfg.dir` past its share, faulting chains back just-in-time
    /// when probed (see [`crate::spill`]). List (theta) states stay
    /// resident — they are probe-scanned wholesale, so tiering them would
    /// fault everything back on every probe. The config is remembered:
    /// states created by later plan replacements are tiered on arrival.
    pub fn enable_spill(&mut self, cfg: crate::spill::SpillConfig) -> Result<()> {
        let ids: Vec<NodeId> = self.plan.ids().collect();
        let hash_states = ids
            .iter()
            .filter(|&&i| self.plan.node(i).state.kind() == crate::state::StoreKind::Hash)
            .count()
            .max(1);
        let per = crate::spill::SpillConfig {
            budget_bytes: (cfg.budget_bytes / hash_states).max(1),
            ..cfg.clone()
        };
        for id in ids {
            let st = &mut self.plan.node_mut(id).state;
            if st.kind() == crate::state::StoreKind::Hash && !st.spill_enabled() {
                st.enable_spill(per.clone())?;
            }
        }
        self.spill_cfg = Some(per);
        Ok(())
    }

    /// Is a memory budget active on this pipeline's states?
    pub fn spill_enabled(&self) -> bool {
        self.spill_cfg.is_some()
    }

    /// Aggregated cold-tier occupancy across all states (`None` when no
    /// budget is active).
    pub fn spill_stats(&self) -> Option<crate::spill::SpillStats> {
        self.spill_cfg.as_ref()?;
        let mut total = crate::spill::SpillStats::default();
        for id in self.plan.ids() {
            if let Some(s) = self.plan.node(id).state.spill_stats() {
                total.entries += s.entries;
                total.keys += s.keys;
                total.segments += s.segments;
                total.disk_bytes += s.disk_bytes;
            }
        }
        Some(total)
    }

    /// Estimated hot-tier bytes across all states (the figure the budget
    /// governs; see [`crate::slab::HOT_ENTRY_EST_BYTES`]).
    pub fn hot_bytes(&self) -> usize {
        self.plan
            .ids()
            .map(|i| self.plan.node(i).state.hot_bytes())
            .sum()
    }

    /// Merged wall-clock fault-back latency distribution across all tiered
    /// states (`None` when no budget is active).
    pub fn fault_latency(&self) -> Option<jisc_telemetry::HistogramSnapshot> {
        self.spill_cfg.as_ref()?;
        let mut merged = jisc_telemetry::HistogramSnapshot::empty();
        for id in self.plan.ids() {
            if let Some(s) = self.plan.node(id).state.fault_latency() {
                merged.merge(&s);
            }
        }
        Some(merged)
    }

    /// The active lateness policy, if any.
    pub fn lateness_policy(&self) -> Option<crate::lateness::LatenessPolicy> {
        self.lateness
    }

    /// Admit, clamp, or reject an arrival timestamp against the clock
    /// under the active lateness policy. Returns the effective timestamp
    /// to ingest at, or `None` when the tuple is dropped as late (counted
    /// in `metrics.dropped_late`; callers skip the tuple entirely, so a
    /// seq pinned via `set_next_seq` is simply not consumed).
    fn admit_ts(&mut self, ts: u64) -> Result<Option<u64>> {
        if ts >= self.last_ts {
            return Ok(Some(ts));
        }
        match self.lateness {
            None => Err(JiscError::InvalidConfig(format!(
                "timestamps must be monotonic: {ts} < {}",
                self.last_ts
            ))),
            Some(crate::lateness::LatenessPolicy::Drop) => {
                self.metrics.dropped_late += 1;
                Ok(None)
            }
            Some(crate::lateness::LatenessPolicy::AdmitWithinBound { bound }) => {
                if self.last_ts - ts <= bound {
                    // Clamp to the clock: the tuple joins the present. Its
                    // window placement differs from a perfectly ordered
                    // run's — accounted, best-effort degradation.
                    self.metrics.late_admitted += 1;
                    Ok(Some(self.last_ts))
                } else {
                    self.metrics.dropped_late += 1;
                    Ok(None)
                }
            }
        }
    }

    // ----- helpers used by operator semantics -----

    /// Probe node `n`'s state for `key`, appending matches to `out`
    /// (clones matches; `Arc` bumps). This is the single state-probe entry
    /// point: hot paths pass the recycled
    /// [`Pipeline::take_probe_scratch`] buffer, cold paths a local `Vec`.
    pub fn lookup_state_into(&mut self, n: NodeId, key: Key, out: &mut Vec<Tuple>) {
        let node = self.plan.node_mut(n);
        node.state.fault_in_key(key, &mut self.metrics);
        node.state.lookup_into(key, &mut self.metrics, out);
    }

    /// [`Pipeline::lookup_state_into`] with the key's hash already
    /// computed — the batch kernel and state completion pre-hash once per
    /// tuple. Accounting is identical.
    pub fn lookup_state_into_hashed(&mut self, n: NodeId, h: u64, key: Key, out: &mut Vec<Tuple>) {
        let node = self.plan.node_mut(n);
        node.state.fault_in_key(key, &mut self.metrics);
        node.state
            .for_each_match_hashed(h, key, &mut self.metrics, |t| out.push(t.clone()));
    }

    /// Number of entries matching `key` in node `n`'s state, without
    /// materializing them.
    pub fn state_match_count(&mut self, n: NodeId, key: Key) -> usize {
        self.plan.node(n).state.match_count(key, &mut self.metrics)
    }

    /// Borrow the pipeline's reusable probe buffer (empty). Operator
    /// semantics cannot hold a `&Tuple` into a state while also mutating
    /// the pipeline, so probes clone matches into a buffer first; taking
    /// this one instead of allocating keeps the steady-state join path
    /// allocation-free. Return it with
    /// [`Pipeline::recycle_probe_scratch`] when drained. Nested takes are
    /// harmless: the inner take sees a fresh `Vec`, and recycling keeps
    /// whichever buffer has the larger capacity.
    pub fn take_probe_scratch(&mut self) -> Vec<Tuple> {
        let mut buf = std::mem::take(&mut self.probe_scratch);
        buf.clear();
        buf
    }

    /// Give back a buffer obtained from [`Pipeline::take_probe_scratch`].
    pub fn recycle_probe_scratch(&mut self, mut buf: Vec<Tuple>) {
        buf.clear();
        if buf.capacity() > self.probe_scratch.capacity() {
            self.probe_scratch = buf;
        }
    }

    /// Theta-scan node `n`'s state, appending matches to `out` — the
    /// single theta-probe entry point (see
    /// [`Pipeline::lookup_state_into`]).
    pub fn scan_theta_state_into(
        &mut self,
        n: NodeId,
        pred: Predicate,
        probe_key: Key,
        stored_is_left: bool,
        out: &mut Vec<Tuple>,
    ) {
        let node = self.plan.node_mut(n);
        node.state.fault_in_all(&mut self.metrics);
        node.state
            .scan_theta_into(pred, probe_key, stored_is_left, &mut self.metrics, out);
    }

    /// Does node `n`'s state contain `key`?
    pub fn state_contains_key(&mut self, n: NodeId, key: Key) -> bool {
        self.plan.node(n).state.contains_key(key, &mut self.metrics)
    }

    /// Insert into node `n`'s state.
    pub fn state_insert(&mut self, n: NodeId, t: Tuple) {
        self.plan.node_mut(n).state.insert(t, &mut self.metrics);
    }

    /// [`Pipeline::state_insert`] with the key's hash already computed.
    pub fn state_insert_hashed(&mut self, n: NodeId, h: u64, t: Tuple) {
        self.plan
            .node_mut(n)
            .state
            .insert_hashed(h, t, &mut self.metrics);
    }

    /// Insert into node `n`'s state unless an equal-lineage entry exists.
    pub fn state_insert_if_absent(&mut self, n: NodeId, t: Tuple) -> bool {
        self.plan
            .node_mut(n)
            .state
            .insert_if_absent(t, &mut self.metrics)
    }

    /// Remove entries containing a base tuple from node `n`'s state;
    /// returns the number removed.
    pub fn state_remove_containing(
        &mut self,
        n: NodeId,
        stream: StreamId,
        seq: SeqNo,
        key: Key,
    ) -> usize {
        self.plan
            .node_mut(n)
            .state
            .remove_containing(stream, seq, key, &mut self.metrics)
    }

    /// Remove entries whose lineage is a superset of `lin` from node `n`;
    /// returns the number removed.
    pub fn state_remove_superset(&mut self, n: NodeId, lin: &Lineage, key: Key) -> usize {
        self.plan
            .node_mut(n)
            .state
            .remove_superset(lin, key, &mut self.metrics)
    }

    /// Remove all entries stored under `key` from node `n`'s state;
    /// returns the number removed.
    pub fn state_remove_key(&mut self, n: NodeId, key: Key) -> usize {
        self.plan
            .node_mut(n)
            .state
            .remove_key(key, &mut self.metrics)
    }

    /// Remove one exact entry (by lineage) from node `n`'s state.
    pub fn state_remove_by_lineage(&mut self, n: NodeId, lin: &Lineage, key: Key) -> bool {
        self.plan
            .node_mut(n)
            .state
            .remove_by_lineage(lin, key, &mut self.metrics)
    }

    /// Does node `n`'s state contain any entry with a constituent older
    /// than `seq`? (Parallel Track discard check, §3.3.)
    pub fn state_has_entry_older_than(&mut self, n: NodeId, seq: SeqNo) -> bool {
        let node = self.plan.node_mut(n);
        node.state.fault_in_all(&mut self.metrics);
        node.state.has_entry_older_than(seq, &mut self.metrics)
    }

    /// Fault node `n`'s entire cold tier back into the hot tier (full-scan
    /// consumers: eager migration rebuilds, state iteration). Returns how
    /// many entries came back; a no-op without a cold tier.
    pub fn state_fault_in_all(&mut self, n: NodeId) -> usize {
        self.plan.node_mut(n).state.fault_in_all(&mut self.metrics)
    }

    /// Enqueue an item at node `n`.
    pub fn enqueue(&mut self, n: NodeId, item: QueueItem) {
        self.pending_items += 1;
        self.plan.node_mut(n).queue.push_back(item);
    }

    /// Forward a payload from `node` to its parent, or handle it at the top:
    /// inserts are emitted as query output; removals of emitted results are
    /// counted as retractions.
    pub fn forward_or_emit(&mut self, node: NodeId, payload: Payload) {
        match self.plan.node(node).parent {
            Some(parent) => self.enqueue(
                parent,
                QueueItem {
                    from: Some(node),
                    payload,
                },
            ),
            None => match payload {
                Payload::Insert { tuple, .. } => self.emit(tuple),
                Payload::Remove { .. }
                | Payload::RemoveEntry { .. }
                | Payload::SuppressKey { .. } => {
                    self.output.retractions += 1;
                }
            },
        }
    }

    /// Emit a result tuple at the root.
    pub fn emit(&mut self, t: Tuple) {
        self.metrics.tuples_out += 1;
        let work = self.metrics.total_work();
        self.output.emit(t, work);
    }

    // ----- migration support -----

    /// Record that a plan transition has been decided *now*: future arrivals
    /// are classified fresh/attempted relative to this instant (§4.4), and
    /// the sink is armed for a latency measurement (§6.3).
    pub fn mark_transition(&mut self) {
        self.last_transition_seq = self.next_seq;
        self.metrics.transitions += 1;
        let work = self.metrics.total_work();
        self.output.arm_latency(work);
    }

    /// Swap in a new plan, returning the old one. Queues of the old plan
    /// must be empty (safe transition, §4.1) — enforced, since discarding
    /// states under queued tuples breaks correctness.
    pub fn replace_plan(&mut self, new_plan: Plan) -> Plan {
        assert!(
            self.plan.queues_empty(),
            "safe transition requires empty input queues (buffer-clearing phase, §4.1)"
        );
        let old = std::mem::replace(&mut self.plan, new_plan);
        // Re-tier fresh hash states under the remembered budget (adopted
        // states carry their tier with them; see `adopt_states`).
        if let Some(per) = self.spill_cfg.clone() {
            for id in self.plan.ids().collect::<Vec<_>>() {
                let st = &mut self.plan.node_mut(id).state;
                if st.kind() == crate::state::StoreKind::Hash && !st.spill_enabled() {
                    st.enable_spill(per.clone())
                        .expect("fresh state has no cold tier to clobber");
                }
            }
        }
        old
    }

    /// Compile a spec against this pipeline's catalog (new-plan construction).
    pub fn compile(&self, spec: &PlanSpec) -> Result<Plan> {
        Plan::compile(&self.catalog, spec)
    }

    // ----- completion bookkeeping (§4.3) -----

    /// §4.3 child-completion notification: when `n`'s state becomes
    /// complete, a Case-3 parent whose other child is also complete can
    /// finally resolve its pending set; completion may then cascade upward.
    pub fn on_state_completed(&mut self, n: NodeId) {
        let mut cur = n;
        while let Some(par) = self.plan.node(cur).parent {
            let parent = self.plan.node(par);
            if parent.state.is_complete() || parent.state.counter().is_some() {
                // Complete already, or Known pending that resolves by counter.
                return;
            }
            let (Some(l), Some(r)) = (parent.left, parent.right) else {
                return;
            };
            let (ls, rs) = (&self.plan.node(l).state, &self.plan.node(r).state);
            if !(ls.is_complete() && rs.is_complete()) {
                return;
            }
            // Residual pending keys: the counter basis of §4.3 (smaller
            // child key set; outer keys for set-difference) minus keys
            // already completed on demand. Keys fully handled by
            // post-transition processing may linger in the residual; their
            // later completion is a deduplicated no-op.
            let basis = match parent.op {
                OpKind::SetDiff => ls.distinct_keys(),
                _ if ls.distinct_key_count() <= rs.distinct_key_count() => ls.distinct_keys(),
                _ => rs.distinct_keys(),
            };
            let residual = match parent.state.completed_keys() {
                Some(done) => basis.difference(done).copied().collect(),
                None => basis,
            };
            if !self.plan.node_mut(par).state.resolve_case3(residual) {
                return;
            }
            cur = par;
        }
    }

    /// After removals for `key` passed through incomplete state `n`: drop
    /// the key from the pending set if the children can no longer produce
    /// anything for it (window expiry made the completion moot) — keeps the
    /// §4.3 counter converging under sliding windows. Call it only once no
    /// removal for `key` is still to be forwarded from `n` in the current
    /// expiry run: a dropped key stops `needs_completion` from forwarding,
    /// and the children have already lost *every* tuple of the run, so
    /// dropping it between two same-key removals would strand the second
    /// one's entries in (adopted, complete) states above.
    pub fn note_removal(&mut self, n: NodeId, key: Key) {
        let node = self.plan.node(n);
        let st = &node.state;
        if st.is_complete() || st.counter().is_none() || !st.needs_completion(key) {
            return;
        }
        let (Some(l), Some(r)) = (node.left, node.right) else {
            return;
        };
        let is_set_diff = matches!(node.op, OpKind::SetDiff);
        // A child can be declared key-empty only if its own entries for the
        // key are authoritative: an incomplete child that still needs
        // completion for the key may be hiding entries it has not
        // materialized yet.
        let l_empty =
            !self.plan.node(l).state.needs_completion(key) && !self.state_contains_key(l, key);
        let moot = if is_set_diff {
            // Visible set is provably empty: no outer candidates, or an
            // inner match positively suppresses the key.
            l_empty || self.state_contains_key(r, key)
        } else {
            let r_empty =
                !self.plan.node(r).state.needs_completion(key) && !self.state_contains_key(r, key);
            l_empty || r_empty
        };
        if moot && self.plan.node_mut(n).state.note_key_expired(key) {
            self.on_state_completed(n);
        }
    }

    // ----- recovery support -----

    /// Capture the pipeline's base state — window rings, freshness maps,
    /// and clocks — for a recovery checkpoint. Operator states are *not*
    /// captured; the recovery layer rebuilds them from the restored scan
    /// states (see [`crate::snapshot::BaseStateSnapshot`]).
    ///
    /// Returns `None` when the pipeline cannot be snapshotted right now:
    /// mid-event (queued items in flight), or when
    /// the plan contains an aggregate (aggregate accumulators are not part
    /// of the base state, so a base snapshot could not restore them; such
    /// plans recover by full replay instead).
    pub fn snapshot_base_state(&self) -> Option<crate::snapshot::BaseStateSnapshot> {
        if self.pending_items > 0 {
            return None;
        }
        if self
            .plan
            .ids()
            .any(|i| matches!(self.plan.node(i).op, OpKind::Aggregate(_)))
        {
            return None;
        }
        Some(crate::snapshot::BaseStateSnapshot {
            rings: self
                .rings
                .iter()
                .map(|r| r.iter().cloned().collect())
                .collect(),
            fresh: self.fresh.clone(),
            next_seq: self.next_seq,
            last_ts: self.last_ts,
            last_transition_seq: self.last_transition_seq,
        })
    }

    /// Restore a snapshot into a freshly built pipeline (same catalog, the
    /// plan that was running when the snapshot was taken): window rings,
    /// freshness maps, and clocks are reinstated, and each windowed tuple
    /// is re-inserted into its stream's scan state directly — **without**
    /// enqueuing or emitting, so restoring produces no output. Operator
    /// states above the scans stay empty; the caller (the recovery layer)
    /// decides whether to complete them lazily or rebuild them eagerly.
    pub fn restore_base_state(&mut self, snap: &crate::snapshot::BaseStateSnapshot) -> Result<()> {
        if self.next_seq != 0 || self.pending_items > 0 || self.rings.iter().any(|r| !r.is_empty())
        {
            return Err(JiscError::InvalidConfig(
                "snapshots restore only into a freshly built pipeline".into(),
            ));
        }
        if snap.rings.len() != self.rings.len() || snap.fresh.len() != self.fresh.len() {
            return Err(JiscError::InvalidConfig(format!(
                "snapshot has {} streams, catalog has {}",
                snap.rings.len(),
                self.rings.len()
            )));
        }
        for (i, ring) in snap.rings.iter().enumerate() {
            let scan = self
                .plan
                .scan_of(StreamId(i as u16))
                .ok_or_else(|| JiscError::UnknownStream(format!("stream index {i}")))?;
            // Pre-size the scan state for the whole window so restore-replay
            // pays no growth rehashes (entry count bounds the key count).
            self.plan
                .node_mut(scan)
                .state
                .reserve(ring.len(), ring.len(), &mut self.metrics);
            for (ts, base) in ring {
                self.rings[i].push_back((*ts, Arc::clone(base)));
                self.state_insert(scan, Tuple::Base(Arc::clone(base)));
            }
        }
        self.fresh = snap.fresh.clone();
        self.next_seq = snap.next_seq;
        self.last_ts = snap.last_ts;
        self.last_transition_seq = snap.last_transition_seq;
        Ok(())
    }

    // ----- elastic range handover (repartitioning) -----

    /// Extract the base state of every key whose hash lies in `ranges` —
    /// the source half of an elastic range handover. Matching window-ring
    /// and freshness entries are removed and returned in ring (arrival)
    /// order, and the moved keys leave their streams' scan states. Derived
    /// (join) states and completion bookkeeping are the rescale layer's
    /// concern (`jisc-core`), which can see the whole plan. Unlike a
    /// snapshot restore this runs against a *live* pipeline; it only
    /// refuses mid-event (queued items in flight).
    pub fn extract_base_range(
        &mut self,
        ranges: &[jisc_common::KeyRange],
    ) -> Result<crate::snapshot::BaseRangeExport> {
        if self.pending_items > 0 {
            return Err(JiscError::InvalidConfig(
                "range extraction requires a quiescent pipeline".into(),
            ));
        }
        let in_range = |h: u64| ranges.iter().any(|r| r.contains(h));
        let mut rings = Vec::with_capacity(self.rings.len());
        let mut fresh = Vec::with_capacity(self.fresh.len());
        let mut keys = FxHashSet::default();
        for i in 0..self.rings.len() {
            let ring = &mut self.rings[i];
            let mut moved = Vec::new();
            let mut kept = std::collections::VecDeque::with_capacity(ring.len());
            for (ts, t) in ring.drain(..) {
                if in_range(hash_key(t.key)) {
                    keys.insert(t.key);
                    moved.push((ts, t));
                } else {
                    kept.push_back((ts, t));
                }
            }
            *ring = kept;
            rings.push(moved);
            let fmap = &mut self.fresh[i];
            let mut fmoved: Vec<(Key, SeqNo)> = Vec::new();
            fmap.retain(|&k, &mut s| {
                if in_range(hash_key(k)) {
                    fmoved.push((k, s));
                    false
                } else {
                    true
                }
            });
            fmoved.sort_unstable();
            for &(k, _) in &fmoved {
                keys.insert(k);
            }
            fresh.push(fmoved);
        }
        for (i, moved) in rings.iter().enumerate() {
            if moved.is_empty() {
                continue;
            }
            let scan = self
                .plan
                .scan_of(StreamId(i as u16))
                .ok_or_else(|| JiscError::UnknownStream(format!("stream index {i}")))?;
            let mut seen = FxHashSet::default();
            for (_, t) in moved {
                if seen.insert(t.key) {
                    self.state_remove_key(scan, t.key);
                }
            }
        }
        Ok(crate::snapshot::BaseRangeExport {
            ranges: ranges.to_vec(),
            rings,
            fresh,
            keys,
        })
    }

    /// Absorb an extracted base range into this *live* pipeline — the
    /// target half of an elastic range handover. Ring entries interleave
    /// with the resident window by `(timestamp, seq)` so oldest-first
    /// expiry order is preserved, freshness entries install (taking the max
    /// on the pathological duplicate), and each moved tuple enters its
    /// stream's scan state directly — without enqueuing or emitting, so
    /// absorbing produces no output. The moved keys' derived entries are
    /// **not** rebuilt here: the caller marks them as completion debt
    /// (just-in-time) or materializes them eagerly via the rescale layer.
    pub fn absorb_base_range(&mut self, export: &crate::snapshot::BaseRangeExport) -> Result<()> {
        if self.pending_items > 0 {
            return Err(JiscError::InvalidConfig(
                "range absorption requires a quiescent pipeline".into(),
            ));
        }
        if export.rings.len() != self.rings.len() || export.fresh.len() != self.fresh.len() {
            return Err(JiscError::InvalidConfig(format!(
                "range export has {} streams, catalog has {}",
                export.rings.len(),
                self.rings.len()
            )));
        }
        let mut max_ts = self.last_ts;
        for (i, moved) in export.rings.iter().enumerate() {
            if moved.is_empty() {
                continue;
            }
            let scan = self
                .plan
                .scan_of(StreamId(i as u16))
                .ok_or_else(|| JiscError::UnknownStream(format!("stream index {i}")))?;
            self.plan
                .node_mut(scan)
                .state
                .reserve(moved.len(), moved.len(), &mut self.metrics);
            // Merge the two (ts, seq)-sorted runs; the global sequence
            // number breaks timestamp ties deterministically.
            let resident: Vec<(u64, Arc<BaseTuple>)> = self.rings[i].drain(..).collect();
            let mut a = resident.into_iter().peekable();
            let mut b = moved.iter().cloned().peekable();
            loop {
                let take_a = match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) => (x.0, x.1.seq) <= (y.0, y.1.seq),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let next = if take_a { a.next() } else { b.next() };
                self.rings[i].push_back(next.expect("peeked"));
            }
            for (ts, t) in moved {
                max_ts = max_ts.max(*ts);
                self.state_insert(scan, Tuple::Base(Arc::clone(t)));
            }
        }
        for (i, fmoved) in export.fresh.iter().enumerate() {
            let fmap = &mut self.fresh[i];
            for &(k, s) in fmoved {
                let e = fmap.entry(k).or_insert(s);
                if *e < s {
                    *e = s;
                }
            }
        }
        // The target's clock may trail the moved tuples' stamps; advance it
        // so arrival monotonicity holds for the next push.
        self.last_ts = max_ts;
        Ok(())
    }

    /// Remove every derived entry at node `n` whose key hashes into
    /// `ranges`, returning the removed keys (the rescale layer widens the
    /// export's key set with them). Thin borrow-splitting wrapper so
    /// callers outside this crate reach the state and the metrics at once.
    pub fn state_extract_key_range(
        &mut self,
        n: NodeId,
        ranges: &[jisc_common::KeyRange],
    ) -> Vec<Key> {
        self.plan
            .node_mut(n)
            .state
            .extract_key_range(ranges, &mut self.metrics)
    }

    /// Move states out of `donor` into the running plan wherever signatures
    /// match, calling `classify` on each adopted state (with the signature)
    /// and leaving non-matching new-plan states untouched. Returns the
    /// adopted signatures and the donor states that found no home (the
    /// states a migration discards). Used by every migration strategy.
    pub fn adopt_states(
        &mut self,
        donor: &mut Plan,
        mut classify: impl FnMut(Signature, &mut State),
    ) -> AdoptionOutcome {
        let mut donated = donor.take_states();
        let mut adopted = Vec::new();
        for id in self.plan.ids().collect::<Vec<_>>() {
            let sig = self.plan.node(id).signature;
            if let Some(mut st) = donated.remove(&sig) {
                classify(sig, &mut st);
                self.plan.node_mut(id).state = st;
                adopted.push(sig);
                self.metrics.states_copied += 1;
            }
        }
        AdoptionOutcome {
            adopted,
            discarded: donated.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JoinStyle;

    fn pipeline(streams: &[&str], window: usize) -> Pipeline {
        let c = Catalog::uniform(streams, window).unwrap();
        let spec = PlanSpec::left_deep(streams, JoinStyle::Hash);
        Pipeline::new(c, &spec).unwrap()
    }

    #[test]
    fn two_way_join_produces_matches() {
        let mut p = pipeline(&["R", "S"], 100);
        p.push(StreamId(0), 1, 0).unwrap();
        p.push(StreamId(1), 1, 0).unwrap(); // matches r
        p.push(StreamId(1), 2, 0).unwrap(); // no match
        p.push(StreamId(0), 2, 0).unwrap(); // matches s2
        assert_eq!(p.output.count(), 2);
        assert!(p.output.is_duplicate_free());
        assert_eq!(p.metrics.tuples_in, 4);
        assert_eq!(p.metrics.tuples_out, 2);
    }

    #[test]
    fn three_way_join_needs_all_streams() {
        let mut p = pipeline(&["R", "S", "T"], 100);
        p.push(StreamId(0), 7, 0).unwrap();
        p.push(StreamId(1), 7, 0).unwrap();
        assert_eq!(p.output.count(), 0); // no T tuple yet
        p.push(StreamId(2), 7, 0).unwrap();
        assert_eq!(p.output.count(), 1);
        assert_eq!(p.output.log[0].arity(), 3);
    }

    #[test]
    fn window_expiry_removes_matches() {
        let mut p = pipeline(&["R", "S"], 2);
        p.push(StreamId(0), 1, 0).unwrap();
        p.push(StreamId(0), 2, 0).unwrap();
        p.push(StreamId(0), 3, 0).unwrap(); // expires r(key=1)
        p.push(StreamId(1), 1, 0).unwrap(); // r(1) gone: no match
        assert_eq!(p.output.count(), 0);
        p.push(StreamId(1), 3, 0).unwrap(); // r(3) still in window
        assert_eq!(p.output.count(), 1);
    }

    #[test]
    fn freshness_tracks_transitions() {
        let mut p = pipeline(&["R", "S"], 100);
        p.push(StreamId(0), 5, 0).unwrap();
        // No transition yet: everything arriving "after the most recent
        // transition" (seq 0) with a prior same-key arrival is attempted.
        assert!(!p.is_fresh(StreamId(0), 5));
        assert!(p.is_fresh(StreamId(0), 6));
        assert!(p.is_fresh(StreamId(1), 5)); // per-stream tracking
        p.mark_transition();
        assert!(p.is_fresh(StreamId(0), 5)); // old arrival predates transition
        p.push(StreamId(0), 5, 0).unwrap();
        assert!(!p.is_fresh(StreamId(0), 5));
    }

    #[test]
    fn duplicate_keys_join_cross_product() {
        let mut p = pipeline(&["R", "S"], 100);
        p.push(StreamId(0), 1, 0).unwrap();
        p.push(StreamId(0), 1, 1).unwrap();
        p.push(StreamId(1), 1, 0).unwrap(); // joins both r's
        assert_eq!(p.output.count(), 2);
    }

    #[test]
    fn ingest_unknown_stream_errors() {
        let mut p = pipeline(&["R", "S"], 10);
        assert!(p.ingest(StreamId(9), 1, 0).is_err());
        assert!(p.ingest_named("Z", 1, 0).is_err());
    }

    #[test]
    fn root_state_materializes_results() {
        let mut p = pipeline(&["R", "S"], 100);
        p.push(StreamId(0), 1, 0).unwrap();
        p.push(StreamId(1), 1, 0).unwrap();
        let root = p.plan().root();
        assert_eq!(p.plan().node(root).state.len(), 1);
    }

    #[test]
    fn latency_marker_records_on_next_emit() {
        let mut p = pipeline(&["R", "S"], 100);
        p.push(StreamId(0), 1, 0).unwrap();
        p.mark_transition();
        assert!(p.output.latency_pending());
        p.push(StreamId(1), 1, 0).unwrap();
        assert_eq!(p.output.latency_marks.len(), 1);
    }

    /// A pipeline under a budget so tight most state lives cold must emit
    /// exactly what the unbounded pipeline emits — probes fault chains back
    /// just-in-time, expiry drops cold stubs, nothing is lost or invented.
    #[test]
    fn tiny_budget_pipeline_matches_unbounded_output() {
        let scratch = crate::spill::ScratchDir::new("pipe-spill");
        let mut hot = pipeline(&["R", "S", "T"], 64);
        let mut tiered = pipeline(&["R", "S", "T"], 64);
        tiered
            .enable_spill(crate::spill::SpillConfig::new(2048, scratch.path()))
            .unwrap();
        let mut rng = jisc_common::SplitMix64::new(77);
        for _ in 0..600 {
            let s = StreamId((rng.next_u64() % 3) as u16);
            let k = rng.next_u64() % 24;
            hot.push(s, k, 0).unwrap();
            tiered.push(s, k, 0).unwrap();
        }
        assert!(
            tiered.metrics.spill_evictions > 0,
            "budget must actually spill: {:?}",
            tiered.spill_stats()
        );
        assert!(tiered.metrics.spill_faults > 0, "probes must fault back");
        assert_eq!(
            hot.output.lineage_multiset(),
            tiered.output.lineage_multiset(),
            "tiered output diverged from unbounded"
        );
        let text = crate::explain::explain(&tiered);
        assert!(text.contains("spill_evictions="), "footer: {text}");
        assert!(text.contains("cold_entries="), "footer: {text}");
    }
}
