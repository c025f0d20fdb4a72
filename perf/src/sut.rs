//! The adapter: every call the benchmark makes into the engine crates is in
//! this file, and only through surfaces ROADMAP keeps — `AdaptiveEngine`,
//! `ShardedExecutor` / `ShardedConfig` / `ShardedReport`, `Pipeline::push_with`,
//! `ColumnarBatch`, `LatenessGate`, `PartitionMap`, `chan::bounded`,
//! `OutputSink::merged`, `SlabStore`, `ColdTier`. The other modules see plain
//! numbers, so a later change to the engine edits this file and nothing else.

use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use jisc_common::{hash_key, BaseTuple, ColumnarBatch, Event, Key, Metrics, PartitionMap};
use jisc_common::{StreamId, Tuple};
use jisc_core::{AdaptiveEngine, JiscSemantics, Strategy};
use jisc_engine::{
    Catalog, ColdTier, JoinStyle, LatenessGate, LatenessPolicy, OutputSink, Pipeline, PlanSpec,
    SlabStore, SpillConfig, StreamDef,
};
use jisc_runtime::chan;
use jisc_runtime::shard::{ShardStrategy, ShardedConfig, ShardedExecutor};
use jisc_telemetry::Registry;

use crate::gen::Arrivals;
use crate::trace::Tracer;

/// Rows per `ColumnarBatch`: the router's own staging size.
pub const BATCH: usize = 64;

/// The Figure-9 query: `joins` symmetric hash joins, left-deep, over time
/// windows that hold `window` tuples per stream when arrivals tick the clock
/// once each; and the plan a worst-case transition moves to.
#[derive(Debug, Clone)]
pub struct Job {
    pub streams: u16,
    catalog: Catalog,
    initial: PlanSpec,
    /// First and last stream swapped: every intermediate state of the old
    /// plan is missing from the new one (`jisc_workload::worst_case`).
    target: PlanSpec,
}

impl Job {
    pub fn fig9(joins: usize, window: usize) -> Job {
        let names: Vec<String> = (0..=joins).map(|i| format!("s{i}")).collect();
        let ticks = (window * names.len()) as u64;
        let catalog = Catalog::new(
            names
                .iter()
                .map(|n| StreamDef::timed(n.clone(), ticks))
                .collect(),
        )
        .expect("valid catalog");
        let plan = |order: &[String]| {
            let refs: Vec<&str> = order.iter().map(String::as_str).collect();
            PlanSpec::left_deep(&refs, JoinStyle::Hash)
        };
        let mut swapped = names.clone();
        swapped.swap(0, joins);
        Job {
            streams: names.len() as u16,
            catalog,
            initial: plan(&names),
            target: plan(&swapped),
        }
    }
}

/// Order-independent 64-bit digest of one result's lineage.
fn lineage_hash(t: &Tuple) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h = 0u64;
    t.for_each_base(&mut |b| {
        h = h.wrapping_add(mix(((b.stream.0 as u64) << 48) ^ b.seq).wrapping_add(1));
    });
    mix(h)
}

/// What the benchmark keeps of the results it takes from the program: their
/// number and an order-independent checksum, over all of them and over those
/// within a prefix that several workloads share; and the lineage digests of
/// those whose newest constituent lies in the checked prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputFold {
    pub count: u64,
    pub checksum: u64,
    shared_end: u64,
    pub shared_count: u64,
    pub shared_checksum: u64,
    prefix_end: u64,
    pub prefix: Vec<u64>,
}

impl OutputFold {
    /// Keeps digests of results whose every constituent has `seq < prefix_end`.
    pub fn new(prefix_end: u64) -> Self {
        OutputFold {
            prefix_end,
            ..OutputFold::default()
        }
    }

    /// Also sums up the results whose every constituent has `seq < shared_end`.
    pub fn sharing(mut self, shared_end: u64) -> Self {
        self.shared_end = shared_end;
        self
    }

    fn absorb(&mut self, sink: &OutputSink) {
        for t in &sink.log {
            let h = lineage_hash(t);
            let newest = t.max_seq();
            self.count += 1;
            self.checksum = self.checksum.wrapping_add(h);
            if newest < self.shared_end {
                self.shared_count += 1;
                self.shared_checksum = self.shared_checksum.wrapping_add(h);
            }
            if newest < self.prefix_end {
                self.prefix.push(h);
            }
        }
    }
}

/// Counters the program keeps, as plain numbers. Counts repeat exactly for a
/// seed; the kernel and fault timers are the program's own clocks.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub tuples_in: u64,
    pub probes: u64,
    pub inserts: u64,
    pub removals: u64,
    pub probe_depth: u64,
    pub rehashes: u64,
    pub completions: u64,
    pub transitions: u64,
    pub states_copied: u64,
    pub states_incomplete: u64,
    pub evictions: u64,
    pub faults: u64,
    pub fault_reads: u64,
    pub segments_sealed: u64,
    pub segments_dropped: u64,
    pub compactions: u64,
    /// `(elements, nanoseconds)` of the hash, probe, pair, install and expire
    /// kernels, in that order.
    pub kernels: [(u64, u64); 5],
    // Gauges: the value at the time of reading, not summed over time.
    pub cold_entries: u64,
    pub disk_bytes: u64,
    pub hot_bytes: u64,
    pub fault_p50_ns: u64,
    pub fault_p99_ns: u64,
}

/// Applies `$op!(target, other, field)` to every field of [`Counters`] that
/// accumulates over time, so the list is written once.
macro_rules! for_each_count {
    ($op:ident, $d:ident, $o:ident) => {
        for_each_count!(@each $op, $d, $o, tuples_in, probes, inserts, removals, probe_depth,
            rehashes, completions, transitions, states_copied, states_incomplete, evictions,
            faults, fault_reads, segments_sealed, segments_dropped, compactions)
    };
    (@each $op:ident, $d:ident, $o:ident, $($f:ident),*) => { $( $op!($d, $o, $f); )* };
}
macro_rules! sub_field {
    ($d:ident, $o:ident, $f:ident) => {
        $d.$f -= $o.$f
    };
}
macro_rules! add_field {
    ($d:ident, $o:ident, $f:ident) => {
        $d.$f += $o.$f
    };
}

impl Counters {
    fn of_metrics(m: &Metrics) -> Counters {
        Counters {
            tuples_in: m.tuples_in,
            probes: m.probes,
            inserts: m.inserts,
            removals: m.removals,
            probe_depth: m.probe_depth,
            rehashes: m.slab_rehashes,
            completions: m.completions,
            transitions: m.transitions,
            states_copied: m.states_copied,
            states_incomplete: m.states_incomplete,
            evictions: m.spill_evictions,
            faults: m.spill_faults,
            fault_reads: m.spill_fault_reads,
            segments_sealed: m.spill_segments_sealed,
            segments_dropped: m.spill_segments_dropped,
            compactions: m.spill_compactions,
            ..Counters::default()
        }
    }

    fn of_engine(e: &AdaptiveEngine) -> Counters {
        let mut c = Counters::of_metrics(&e.metrics());
        let pipe = e.as_jisc().expect("the job runs Strategy::Jisc").pipeline();
        let mut i = 0;
        pipe.kernels.for_each_named(|_, k| {
            c.kernels[i] = (k.elements, k.nanos);
            i += 1;
        });
        if let Some(s) = e.spill_stats() {
            c.cold_entries = s.entries as u64;
            c.disk_bytes = s.disk_bytes;
        }
        if let Some(h) = pipe.fault_latency() {
            c.fault_p50_ns = h.quantile(0.50);
            c.fault_p99_ns = h.quantile(0.99);
        }
        c.hot_bytes = e.hot_bytes() as u64;
        c
    }

    /// Counts accumulated since `earlier` was read; gauges keep their later
    /// value.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut d = self.clone();
        for_each_count!(sub_field, d, earlier);
        for (k, e) in d.kernels.iter_mut().zip(earlier.kernels) {
            *k = (k.0 - e.0, k.1 - e.1);
        }
        d
    }

    /// Sum over engines (counts and gauges alike; quantiles take the larger).
    fn plus(&self, o: &Counters) -> Counters {
        let mut d = self.clone();
        for_each_count!(add_field, d, o);
        for (k, e) in d.kernels.iter_mut().zip(o.kernels) {
            *k = (k.0 + e.0, k.1 + e.1);
        }
        d.cold_entries += o.cold_entries;
        d.disk_bytes += o.disk_bytes;
        d.hot_bytes += o.hot_bytes;
        d.fault_p50_ns = d.fault_p50_ns.max(o.fault_p50_ns);
        d.fault_p99_ns = d.fault_p99_ns.max(o.fault_p99_ns);
        d
    }
}

fn new_engine(job: &Job) -> AdaptiveEngine {
    AdaptiveEngine::new(job.catalog.clone(), &job.initial, Strategy::Jisc).expect("valid plan")
}

/// The synchronous system under test: one `AdaptiveEngine` fed columnar
/// batches by the caller's thread.
#[derive(Debug)]
pub struct Engine {
    inner: AdaptiveEngine,
    batch: ColumnarBatch,
}

impl Engine {
    pub fn new(job: &Job) -> Engine {
        Engine {
            inner: new_engine(job),
            batch: ColumnarBatch::new(BATCH),
        }
    }

    /// Put the running engine's states under a hot-memory budget of
    /// `budget_bytes`, cold segments under `dir`. Called after the warm-up:
    /// filling the windows under a budget this small takes minutes, while
    /// budgeting full windows evicts the cold share with the next batch.
    pub fn enable_spill(&mut self, budget_bytes: usize, dir: &Path) {
        self.inner
            .enable_spill(SpillConfig::new(budget_bytes, dir))
            .expect("spill directory is writable");
    }

    /// Fill the batch with `arr[range]` (at most [`BATCH`] rows).
    pub fn stage(&mut self, arr: &Arrivals, range: Range<usize>) {
        self.batch.clear();
        for i in range {
            self.batch
                .push(StreamId(arr.streams[i]), arr.keys[i], i as u64)
                .expect("range fits one batch");
        }
    }

    /// Process the staged batch to quiescence; false if the engine refused it.
    pub fn push(&mut self) -> bool {
        self.inner.push_columnar(&self.batch).is_ok()
    }

    /// Take the results emitted so far out of the engine.
    pub fn drain(&mut self, fold: &mut OutputFold) {
        fold.absorb(&self.inner.take_output());
    }

    /// Worst-case transition, to the target plan or back to the initial one.
    pub fn transition(&mut self, job: &Job, to_target: bool) -> bool {
        let spec = if to_target { &job.target } else { &job.initial };
        self.inner.transition_to(spec).is_ok()
    }

    pub fn incomplete_states(&self) -> usize {
        self.inner.incomplete_states()
    }

    pub fn counters(&self) -> Counters {
        Counters::of_engine(&self.inner)
    }
}

/// The per-tuple serial reference: `Pipeline::push_with(JiscSemantics)`, no
/// batching, migration, spill or sharding.
pub struct Reference {
    pipe: Pipeline,
    sem: JiscSemantics,
}

impl Reference {
    pub fn new(job: &Job) -> Reference {
        Reference {
            pipe: Pipeline::new(job.catalog.clone(), &job.initial).expect("valid plan"),
            sem: JiscSemantics::default(),
        }
    }

    /// One arrival on the engine's own clock (timestamp = arrival index).
    pub fn push(&mut self, stream: u16, key: u64, payload: u64) {
        self.pipe
            .push_with(&mut self.sem, StreamId(stream), key, payload)
            .expect("reference accepts in-order arrivals");
    }

    /// One arrival at an explicit event time (the gate-released sequence).
    pub fn push_at(&mut self, stream: u16, key: u64, payload: u64, ts: u64) {
        self.pipe
            .push_at_with(&mut self.sem, StreamId(stream), key, payload, ts)
            .expect("reference accepts the gate's monotone release order");
    }

    pub fn fold(&self, prefix_end: u64) -> OutputFold {
        let mut f = OutputFold::new(prefix_end);
        f.absorb(&self.pipe.output);
        f
    }
}

/// A harness-side lateness gate: what the router's gate will release and
/// drop, computed outside the program.
pub struct Gate {
    gate: LatenessGate<(StreamId, Key, u64)>,
    out: Vec<(u64, (StreamId, Key, u64))>,
}

impl Gate {
    pub fn new(bound: u64) -> Gate {
        Gate {
            gate: LatenessGate::new(LatenessPolicy::AdmitWithinBound { bound }),
            out: Vec::new(),
        }
    }

    /// Offer one arrival; `f(stream, key, payload, ts)` sees each release.
    pub fn offer(
        &mut self,
        ts: u64,
        stream: u16,
        key: u64,
        payload: u64,
        mut f: impl FnMut(u16, u64, u64, u64),
    ) {
        self.gate
            .offer(ts, (StreamId(stream), key, payload), &mut self.out);
        for (ts, (s, k, p)) in self.out.drain(..) {
            f(s.0, k, p, ts);
        }
    }

    pub fn dropped(&self) -> u64 {
        self.gate.stats.dropped_late
    }
}

/// What `ShardedExecutor::finish` reports, as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct ShardedOutcome {
    pub events: u64,
    pub dropped_late: u64,
    pub late_admitted: u64,
    pub shed_tuples: u64,
    pub shard_events: Vec<u64>,
    pub peak_queue_depth: u64,
    pub checkpoints: u64,
    pub replayed_tuples: u64,
    /// The program's own ingest-to-apply histogram (router flush to worker
    /// apply), never the basis of an end-to-end number.
    pub apply_p50_ns: u64,
    pub apply_p99_ns: u64,
}

/// The sharded system under test: router thread (the caller) plus `shards`
/// supervised workers, default queue and checkpoint settings.
pub struct Sharded(ShardedExecutor);

impl Sharded {
    pub fn spawn(job: &Job, shards: usize, lateness_bound: u64, watermark_every: u64) -> Sharded {
        let config = ShardedConfig {
            strategy: ShardStrategy::Jisc,
            lateness: Some(LatenessPolicy::AdmitWithinBound {
                bound: lateness_bound,
            }),
            watermark_every,
            ..ShardedConfig::for_shards(shards)
        };
        let exec = ShardedExecutor::spawn_with(job.catalog.clone(), &job.initial, config)
            .expect("valid plan");
        assert!(exec.is_exact(), "time windows shard exactly");
        Sharded(exec)
    }

    /// Offer one arrival at event time `ts`; blocks on back-pressure.
    pub fn offer(&mut self, stream: u16, key: u64, payload: u64, ts: u64) -> bool {
        self.0.push_at(StreamId(stream), key, payload, ts).is_ok()
    }

    /// Drain, join the workers and merge their sinks; `None` if the run failed.
    pub fn finish(self, fold: &mut OutputFold) -> Option<ShardedOutcome> {
        let r = self.0.finish().ok()?;
        fold.absorb(&r.output);
        Some(ShardedOutcome {
            events: r.events,
            dropped_late: r.dropped_late,
            late_admitted: r.late_admitted,
            shed_tuples: r.shed_tuples,
            shard_events: r.shard_events.clone(),
            peak_queue_depth: r.peak_queue_depth.iter().copied().max().unwrap_or(0),
            checkpoints: r.checkpoints,
            replayed_tuples: r.replayed_tuples,
            apply_p50_ns: r.latency.quantile(0.50),
            apply_p99_ns: r.latency.quantile(0.99),
        })
    }
}

/// Span names of the router replica, one per public part it chains.
pub mod stage {
    pub const OFFER: &str = "engine.lateness.offer";
    pub const ROUTE: &str = "common.partition.route";
    pub const STAGE: &str = "common.columnar.stage";
    pub const HANDOFF: &str = "runtime.chan.handoff";
    pub const ENGINE: &str = "replica.engine";
    pub const MERGE: &str = "engine.output.merge";
    /// The caller folding and releasing the merged results.
    pub const TAKE: &str = "client.take_results";
}

/// The sharded runtime's public parts chained on one thread, a span per call:
/// lateness gate, partition map, columnar staging, a bounded channel per
/// shard, one engine per shard, and the final merge. What the real router
/// does beyond these (replay log, checkpoints, supervision) is not here, so
/// the difference between this chain's prediction and the measured run is
/// the cost of what the chain leaves out.
pub struct Replica {
    gate: Gate,
    pmap: PartitionMap,
    released: Vec<(u16, u64, u64, u64)>,
    keys: Vec<Key>,
    route: Vec<u32>,
    staging: Vec<ColumnarBatch>,
    chans: Vec<(chan::Sender<ColumnarBatch>, chan::Receiver<ColumnarBatch>)>,
    engines: Vec<AdaptiveEngine>,
    frontiers: Vec<u64>,
    watermark: u64,
    watermark_every: u64,
    since_watermark: u64,
    next_seq: u64,
    pub shard_tuples: Vec<u64>,
    pub failed_offers: u64,
}

impl Replica {
    pub fn new(job: &Job, shards: usize, lateness_bound: u64, watermark_every: u64) -> Replica {
        let queue = ShardedConfig::for_shards(shards).queue_capacity;
        Replica {
            gate: Gate::new(lateness_bound),
            pmap: PartitionMap::uniform(shards),
            released: Vec::new(),
            keys: Vec::new(),
            route: Vec::new(),
            staging: (0..shards).map(|_| ColumnarBatch::new(BATCH)).collect(),
            chans: (0..shards).map(|_| chan::bounded(queue)).collect(),
            engines: (0..shards).map(|_| new_engine(job)).collect(),
            frontiers: vec![0; job.streams as usize],
            watermark: 0,
            watermark_every,
            since_watermark: 0,
            next_seq: 0,
            shard_tuples: vec![0; shards],
            failed_offers: 0,
        }
    }

    /// Offer `order[range]` (event-time positions into `arr`) and carry what
    /// the gate releases through routing, staging, hand-off and the engines.
    pub fn offer_chunk(
        &mut self,
        arr: &Arrivals,
        order: &[u32],
        range: Range<usize>,
        tr: &mut Tracer,
        batch: u32,
    ) {
        let sp = tr.enter(stage::OFFER, batch);
        let released = &mut self.released;
        for &pos in &order[range] {
            let i = pos as usize;
            self.gate.offer(
                i as u64,
                arr.streams[i],
                arr.keys[i],
                i as u64,
                |s, k, p, ts| released.push((s, k, p, ts)),
            );
        }
        tr.exit(sp);
        self.carry_released(tr, batch);
    }

    fn carry_released(&mut self, tr: &mut Tracer, batch: u32) {
        let sp = tr.enter(stage::ROUTE, batch);
        self.keys.clear();
        self.keys.extend(self.released.iter().map(|r| r.1));
        self.pmap.route_column(&self.keys, &mut self.route);
        tr.exit(sp);

        let sp = tr.enter(stage::STAGE, batch);
        let released = std::mem::take(&mut self.released);
        for (j, &(stream, key, payload, ts)) in released.iter().enumerate() {
            let s = self.route[j] as usize;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.shard_tuples[s] += 1;
            let f = &mut self.frontiers[stream as usize];
            *f = (*f).max(ts);
            self.staging[s]
                .push_stamped(StreamId(stream), key, payload, Some(ts), Some(seq))
                .expect("staging batch is cut on full");
            if self.staging[s].is_full() {
                self.flush(s, tr, batch);
            }
            self.since_watermark += 1;
            if self.since_watermark >= self.watermark_every {
                self.advance_watermark(tr, batch);
            }
        }
        self.released = released;
        self.released.clear();
        tr.exit(sp);
    }

    fn flush(&mut self, s: usize, tr: &mut Tracer, batch: u32) {
        if self.staging[s].is_empty() {
            return;
        }
        // As the router does: the full batch moves into the queue and a fresh
        // one takes its place.
        let full = std::mem::replace(&mut self.staging[s], ColumnarBatch::new(BATCH));
        let sp = tr.enter(stage::HANDOFF, batch);
        let (tx, rx) = &self.chans[s];
        let sent = tx.send(full).is_ok();
        let got = rx.recv();
        tr.exit(sp);
        let sp = tr.enter(stage::ENGINE, batch);
        let ok = match (sent, got) {
            (true, Ok(b)) => self.engines[s].push_columnar(&b).is_ok(),
            _ => false,
        };
        tr.exit(sp);
        if !ok {
            self.failed_offers += 1;
        }
    }

    /// The router's min-aligned watermark broadcast: staged rows first, then
    /// the smallest per-stream frontier to every engine.
    fn advance_watermark(&mut self, tr: &mut Tracer, batch: u32) {
        self.since_watermark = 0;
        let aligned = self.frontiers.iter().copied().min().unwrap_or(0);
        if aligned <= self.watermark {
            return;
        }
        for s in 0..self.staging.len() {
            self.flush(s, tr, batch);
        }
        let sp = tr.enter(stage::ENGINE, batch);
        for e in &mut self.engines {
            if e.on_event(Event::Watermark(aligned)).is_err() {
                self.failed_offers += 1;
            }
        }
        tr.exit(sp);
        self.watermark = aligned;
    }

    /// End of stream: flush the staged rows and merge the shards' sinks. The
    /// gate keeps what it still holds — the replica is compared with a run
    /// over the same offers, not with a reference.
    pub fn finish(&mut self, tr: &mut Tracer, fold: &mut OutputFold) {
        for s in 0..self.staging.len() {
            self.flush(s, tr, u32::MAX);
        }
        let sp = tr.enter(stage::MERGE, u32::MAX);
        let merged = OutputSink::merged(self.engines.iter_mut().map(|e| e.take_output()));
        tr.exit(sp);
        let sp = tr.enter(stage::TAKE, u32::MAX);
        fold.absorb(&merged);
        drop(merged);
        tr.exit(sp);
    }

    pub fn counters(&self) -> Counters {
        self.engines
            .iter()
            .map(Counters::of_engine)
            .reduce(|a, b| a.plus(&b))
            .unwrap_or_default()
    }
}

fn per_op(ns: u128, ops: usize) -> f64 {
    ns as f64 / ops.max(1) as f64
}

/// `SlabStore` in isolation at a state of `state` entries, driven with the
/// given key column: nanoseconds per insert, per probe and per oldest-first
/// removal (window expiry's access pattern).
pub fn slab_micro(keys: &[u64], state: usize) -> (f64, f64, f64) {
    const BLOCK: usize = 256;
    let mut m = Metrics::new();
    let mut store = SlabStore::new();
    // Entry `seq` of the column: its hash, its key, and the tuple stored.
    let entry = |seq: usize| {
        let key = keys[seq];
        let tuple = Tuple::base(BaseTuple::new(StreamId(0), seq as u64, key, 0));
        (hash_key(key), key, tuple)
    };
    let state = state.min(keys.len() / 2);
    for (h, key, tuple) in (0..state).map(entry) {
        store.insert_hashed(h, key, tuple, &mut m);
    }
    let (mut ins, mut probe, mut rem, mut ops) = (0u128, 0u128, 0u128, 0usize);
    let mut hits = 0usize;
    let mut seq = state;
    while seq + BLOCK <= keys.len() {
        let block: Vec<_> = (seq..seq + BLOCK).map(entry).collect();
        let t0 = Instant::now();
        for (h, key, tuple) in block {
            store.insert_hashed(h, key, tuple, &mut m);
        }
        let t1 = Instant::now();
        for s in seq..seq + BLOCK {
            // Probe a key that has been resident for half a window.
            let k = keys[s - state / 2];
            store.for_each_match_hashed(hash_key(k), k, &mut m, |_| hits += 1);
        }
        let t2 = Instant::now();
        for (oldest, &key) in keys.iter().enumerate().skip(seq - state).take(BLOCK) {
            hits += store.remove_containing(StreamId(0), oldest as u64, key, &mut m);
        }
        let t3 = Instant::now();
        ins += (t1 - t0).as_nanos();
        probe += (t2 - t1).as_nanos();
        rem += (t3 - t2).as_nanos();
        ops += BLOCK;
        seq += BLOCK;
    }
    black_box(hits);
    (per_op(ins, ops), per_op(probe, ops), per_op(rem, ops))
}

/// `ColdTier` in isolation on the first `entries` keys of the given column:
/// nanoseconds per entry evicted by `spill_batch` (encode, append, seal) and
/// per entry returned by `fault_keys` (read, decode), in eviction runs of 256
/// and probes of [`BATCH`].
pub fn cold_micro(keys: &[u64], entries: usize, dir: &Path) -> (f64, f64) {
    const RUN: usize = 256;
    let keys = &keys[..entries.min(keys.len())];
    let mut m = Metrics::new();
    let mut tier = ColdTier::new(SpillConfig::new(0, dir)).expect("spill directory is writable");
    let t0 = Instant::now();
    let mut evicted = 0usize;
    for (r, run) in keys.chunks(RUN).enumerate() {
        let batch: Vec<(Key, Tuple)> = run
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let seq = (r * RUN + i) as u64;
                (k, Tuple::base(BaseTuple::new(StreamId(0), seq, k, seq)))
            })
            .collect();
        tier.spill_batch(&batch, &mut m);
        evicted += batch.len();
    }
    let evict_ns = t0.elapsed().as_nanos();
    let t1 = Instant::now();
    let mut faulted = 0usize;
    for probe in keys.chunks(BATCH) {
        for (_, tuples) in tier.fault_keys(probe, &mut m) {
            faulted += tuples.len();
        }
    }
    let fault_ns = t1.elapsed().as_nanos();
    (per_op(evict_ns, evicted), per_op(fault_ns, faulted))
}

/// The telemetry registry's hot-path primitives in isolation: nanoseconds per
/// histogram record and per counter add.
pub fn telemetry_micro() -> (f64, f64) {
    const N: usize = 1_000_000;
    let reg = Registry::new();
    let (h, c) = (reg.histogram("perf_probe_ns"), reg.counter("perf_probe"));
    let t0 = Instant::now();
    for i in 0..N {
        h.record(black_box(i as u64));
    }
    let t1 = Instant::now();
    for i in 0..N {
        c.add(black_box(i as u64 & 1));
    }
    let t2 = Instant::now();
    black_box(reg.snapshot());
    (
        per_op((t1 - t0).as_nanos(), N),
        per_op((t2 - t1).as_nanos(), N),
    )
}
