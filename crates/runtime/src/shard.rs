//! Key-partitioned parallel execution with supervised, recoverable workers.
//!
//! The paper's queries join all streams on one shared attribute (§2.1), so
//! an equi-join plan is embarrassingly parallel over that attribute: tuples
//! with different keys never contribute to the same output, and every
//! operator state is a disjoint union of per-key slices. [`ShardedExecutor`]
//! exploits this by hashing each arrival's key onto one of `N` worker
//! threads, each running an independent engine over its partition of the
//! input.
//!
//! # Correctness
//!
//! The router assigns every arrival the *global* sequence number and
//! timestamp a serial [`Pipeline`](jisc_engine::Pipeline) would have used,
//! and each worker rewinds its pipeline's sequence counter to the routed
//! value before ingesting (`Pipeline::set_next_seq`). Stored tuples
//! therefore carry identical
//! identities to a serial run, and the merged output log is
//! lineage-for-lineage equal to serial execution whenever the partitioning
//! is lossless:
//!
//! - **Hash equi-joins and set-differences** probe only equal keys, and all
//!   arrivals of a key land on the same shard, so every serial match is
//!   found and no cross-key match can exist. `KeyEq` nested-loops joins are
//!   equi-joins in disguise and shard the same way.
//! - **Time windows** expire by timestamp comparison against the arriving
//!   tuple. A stale tuple could only produce a late join with a same-key
//!   arrival — which is routed to its own shard and expires it first (the
//!   expiry sweep runs before the insert), so per-shard expiry is
//!   observationally identical to serial expiry.
//! - **Count windows** slide per arrival, and a shard only observes its own
//!   partition's arrivals: each shard keeps the most recent `w` tuples *of
//!   its partition* (a per-shard quota) rather than of the whole stream.
//!   The executor still runs, but [`ShardedExecutor::is_exact`] reports
//!   `false` for `N > 1` because eviction timing differs from serial.
//! - **General theta predicates** (`KeyLeq`, band joins, cross products)
//!   match across different keys, so key partitioning would lose results.
//!   Plans containing them fall back to a single worker (`shards() == 1`),
//!   which is serial execution on a background thread.
//!
//! # In-band events
//!
//! Shard queues carry the unified [`Event`] stream: data travels as
//! [`Event::Columnar`] (router-staged [`ColumnarBatch`]es stamping each
//! tuple with its global sequence number and timestamp), and
//! [`ShardedExecutor::transition`] validates the new plan once on the
//! router (compile, same-query and reorderability checks), then broadcasts
//! [`Event::MigrationBarrier`] on every shard's FIFO queue. Each worker
//! thus performs its transition at exactly the same global arrival
//! boundary: after every routed event with a smaller sequence number and
//! before every later one. Because shards are key-disjoint, the per-shard
//! transition sequence numbers classify exactly the same tuples as fresh
//! (§4.4) as the serial boundary would, and just-in-time completion
//! proceeds independently per shard.
//!
//! # Supervision and recovery
//!
//! Workers run under `catch_unwind` (see the `supervisor` module). When one
//! faults, the router: quiesces the survivors with in-band [`Event::Flush`]
//! punctuation, reaps the dead thread and collects its structured
//! [`WorkerFault`], rebuilds the shard's engine from its last lightweight
//! checkpoint (base state only — derived join states come back via the
//! JISC completion procedures, `jisc_core::recovery`), and replays the
//! post-checkpoint suffix of events from a router-side replay buffer. The
//! failed incarnation's un-checkpointed output was discarded with it, so
//! replay regenerates those results exactly once — the recovered run's
//! merged output is the same lineage multiset a fault-free run produces.
//!
//! Checkpoints ride the shard queues as in-band marks every
//! [`ShardedConfig::checkpoint_every`] routed tuples; the replay buffer is
//! pruned as checkpoints complete, bounding both recovery time and router
//! memory. With checkpointing disabled the replay buffer holds the whole
//! history and recovery degenerates to full re-execution.
//!
//! # Elastic rescaling
//!
//! Routing is table-driven: an epoch-stamped [`PartitionMap`] assigns
//! contiguous hashed-key ranges to shards, and
//! [`ShardedExecutor::apply_map`] moves ranges between shards *while the
//! stream runs*. The protocol reuses the JISC recovery machinery
//! (`jisc_core::rescale`): the router broadcasts the new map in-band as
//! [`Event::Repartition`] (every shard observes the epoch cut at the same
//! positional boundary), asks each source shard to extract the moved keys'
//! *base* state at that exact position, and forwards the slice to the
//! target, which installs it as just-in-time completion debt — probed keys
//! complete first, and ingest never stops (the router keeps routing by the
//! new map immediately; workers drain concurrently). Derived join state is
//! never shipped: the target recompletes it from the base slice, which is
//! what makes a handover cheap enough to run mid-stream.
//!
//! Export and install are positional events in the shard queues, so the
//! crash story composes: a source that faults before (or while) extracting
//! is respawned and replays up to the export request, re-extracting the
//! same deterministic slice; duplicate replies are deduplicated by
//! `(epoch, from, to)`. Shards that own nothing under the new map are
//! retired — queue closed, output collected — and their ids are never
//! reused. [`ShardedExecutor::split_hot_key`], `scale_up`, and
//! `scale_down` are convenience wrappers producing successor maps.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jisc_common::{
    ColumnarBatch, Event, FxHashSet, JiscError, Key, KeyRange, Metrics, PartitionMap, Result,
    SeqNo, StreamId, WorkerFault,
};
use jisc_core::migrate::{verify_reorderable, verify_same_query};
use jisc_core::AdaptiveEngine;
use jisc_engine::plan::Plan;
use jisc_engine::{
    BaseRangeExport, Catalog, DurableCheckpointStore, LatenessGate, LatenessPolicy, OpKind,
    OutputSink, PlanSpec, Predicate, SpillConfig,
};
use jisc_telemetry::{
    FlightEventKind, FlightRecorder, HistogramSnapshot, Registry, TelemetrySnapshot,
};

use crate::chan;
use crate::fault::{payload_string, FaultInjector, FaultPlan};
use crate::supervisor::{
    worker_loop, CheckpointData, RangeInstall, ShardMsg, ShardResult, ToRouter, WorkerCtx,
    WorkerTelemetry,
};

pub use crate::supervisor::ShardStrategy;

/// Events are shipped in batches to amortize queue synchronization.
const BATCH: usize = 64;

/// What the router does when a shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block until the worker drains (backpressure; the default).
    #[default]
    Block,
    /// Block at most this long, then fail the send with
    /// [`JiscError::SendTimeout`].
    Timeout(Duration),
    /// Drop the data batch (counted in `shed_tuples`). Control events
    /// (barriers, flushes) are never shed — they block instead.
    Shed,
}

/// Configuration for a supervised sharded run.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Migration strategy every shard engine runs.
    pub strategy: ShardStrategy,
    /// Requested worker count (min 1; non-partitionable plans force 1).
    pub shards: usize,
    /// Per-shard queue capacity (events).
    pub queue_capacity: usize,
    /// Routed tuples per shard between checkpoint marks; `0` disables
    /// checkpointing (recovery then replays the full history).
    pub checkpoint_every: u64,
    /// Recoveries tolerated per shard before the run fails with
    /// [`JiscError::WorkerPanic`]. Injected faults disarm after firing, so
    /// replay succeeds; a *deterministic* genuine bug exhausts this cap
    /// instead of respawning forever.
    pub max_recoveries: u32,
    /// Queue-full behaviour on the data plane.
    pub overload: OverloadPolicy,
    /// Scripted faults (tests and recovery benchmarks); empty = none.
    pub faults: FaultPlan,
    /// Lateness policy for out-of-order [`ShardedExecutor::push_at`]
    /// arrivals. `None` (the default) keeps the strict contract — a
    /// regressing timestamp is an error. With a policy installed the
    /// router runs a [`LatenessGate`] ahead of routing: arrivals within
    /// the bound are buffered and re-released in timestamp order (shards
    /// still see a monotone stream, so the merged output equals the
    /// in-order run's over the admitted set), arrivals beyond it are
    /// dropped and counted in the report's `dropped_late`.
    pub lateness: Option<LatenessPolicy>,
    // --- telemetry ---
    // Every run carries a per-shard metric registry and a shared
    // control-plane flight recorder; sample them live with
    // [`ShardedExecutor::telemetry`] or read the final
    // [`ShardedReport::telemetry`]. The knobs below tune what feeds them.
    /// Broadcast a min-aligned event-time [`Event::Watermark`] to every
    /// live shard each time this many tuples have been routed (`0`, the
    /// default, disables). The watermark is the minimum of the per-stream
    /// routed-timestamp frontiers, so sharded window expiry advances by
    /// event time even on shards whose partition has gone quiet. Each
    /// broadcast is also recorded in the flight recorder.
    pub watermark_every: u64,
    /// Optional telemetry phase classifier: maps each routed tuple's
    /// event timestamp to a phase id (`0` = default/steady). The router
    /// cuts its staged batches whenever the phase changes, so every
    /// delivered batch is single-phase and its latency lands in that
    /// phase's histogram (`ingest_latency_ns` for phase 0,
    /// `ingest_latency_ns_phase<p>` otherwise). The chaos experiments
    /// use this to split steady-state from burst latency.
    pub phase: Option<PhaseClassifier>,
    // --- durability ---
    /// Memory-budgeted tiered join state: when set, every shard engine's
    /// hash states run under `budget_bytes` of hot memory with overflow
    /// spilled oldest-first to compressed on-disk cold segments under
    /// `dir/shard-<i>`, faulted back just in time when probed (see
    /// [`jisc_engine::SpillConfig`]). `None` (the default) keeps all
    /// state in memory.
    pub spill: Option<SpillSettings>,
    /// Durable checkpoints: when set, every completed checkpoint's base
    /// snapshot is also persisted to a hash-chain-verified on-disk store
    /// under `<dir>/shard-<i>` ([`jisc_engine::DurableCheckpointStore`]),
    /// and [`ShardedExecutor::spawn_with`] restores each shard from its
    /// newest durable snapshot (verifying the manifest chain) before
    /// accepting traffic — recovery across *process* restarts, not just
    /// worker-thread crashes. The router's global sequence and timestamp
    /// clocks resume from the recovered snapshot, so the restarted run's
    /// output composes lineage-exactly with the pre-restart run's over
    /// the checkpointed prefix; the caller feeds the suffix. Spawn with
    /// the plan that was active at the persisted checkpoint.
    pub durable_dir: Option<PathBuf>,
}

/// Per-shard memory budget for tiered join state; see
/// [`ShardedConfig::spill`].
#[derive(Debug, Clone)]
pub struct SpillSettings {
    /// Hot-tier budget in bytes, applied to each shard's engine (split
    /// evenly across that engine's hash states).
    pub budget_bytes: usize,
    /// Root directory for cold segments; each shard writes under its own
    /// `shard-<i>` subdirectory.
    pub dir: PathBuf,
}

/// Maps a routed tuple's event timestamp to a telemetry phase id; see
/// [`ShardedConfig::phase`]. Cloning shares the classifier function.
#[derive(Clone)]
pub struct PhaseClassifier(Arc<dyn Fn(u64) -> u32 + Send + Sync>);

impl PhaseClassifier {
    /// Wraps a `timestamp → phase id` function.
    pub fn new(f: impl Fn(u64) -> u32 + Send + Sync + 'static) -> Self {
        PhaseClassifier(Arc::new(f))
    }

    /// The phase for an event timestamp.
    pub fn classify(&self, ts: u64) -> u32 {
        (self.0)(ts)
    }
}

impl std::fmt::Debug for PhaseClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PhaseClassifier(..)")
    }
}

impl ShardedConfig {
    /// Hardware-aware default worker count:
    /// `std::thread::available_parallelism()`, or 1 when it cannot be
    /// determined. Worker shards are CPU-bound (the per-shard engine is
    /// the hot path), so defaulting past the core count oversubscribes
    /// the machine — measured at 0.79× serial throughput for N=8 on a
    /// small container — without any latency benefit.
    pub fn default_shards() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Clamp an explicit shard request to `[1, default_shards()]`.
    /// Explicit requests passed to
    /// [`ShardedExecutor::spawn_with`](crate::ShardedExecutor) are honored
    /// as given (tests and experiments deliberately oversubscribe); this
    /// helper is for callers that want a hardware-respecting count derived
    /// from a configured ceiling.
    pub fn capped_shards(requested: usize) -> usize {
        requested.clamp(1, Self::default_shards())
    }

    /// Configuration scaled to an explicit shard count. The router keeps
    /// one replay buffer per shard, each holding up to `checkpoint_every`
    /// tuples' worth of events — so the *aggregate* replay memory is
    /// `shards × checkpoint_every`. This constructor holds that aggregate
    /// at what the default configuration grants the machine
    /// (`default_shards() × 1024`): oversubscribing shards past the core
    /// count shrinks the per-shard checkpoint interval (floor 128) instead
    /// of multiplying router-side replay memory.
    pub fn for_shards(shards: usize) -> Self {
        let n = shards.max(1);
        let budget = Self::default_shards() as u64 * 1024;
        ShardedConfig {
            strategy: ShardStrategy::Jisc,
            shards: n,
            queue_capacity: 256,
            checkpoint_every: (budget / n as u64).clamp(128, 1024),
            max_recoveries: 4,
            overload: OverloadPolicy::Block,
            faults: FaultPlan::new(),
            lateness: None,
            watermark_every: 0,
            phase: None,
            spill: None,
            durable_dir: None,
        }
    }

    /// The spill configuration for shard `s` (its own cold-segment
    /// subdirectory), if spill is enabled.
    pub fn shard_spill(&self, s: usize) -> Option<SpillConfig> {
        self.spill
            .as_ref()
            .map(|sp| SpillConfig::new(sp.budget_bytes, sp.dir.join(format!("shard-{s}"))))
    }

    /// The durable checkpoint directory for shard `s`, if durable
    /// checkpointing is enabled.
    pub fn shard_durable(&self, s: usize) -> Option<PathBuf> {
        self.durable_dir
            .as_ref()
            .map(|d| d.join(format!("shard-{s}")))
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self::for_shards(Self::default_shards())
    }
}

/// Whether a sharded run's merged output is guaranteed lineage-equal to a
/// serial run of the same arrival sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exactness {
    /// One shard, or all windows are time-based: merged output is
    /// lineage-for-lineage identical to serial execution.
    Exact,
    /// Count windows with `N > 1` shards: each shard applies the window to
    /// its own partition (a per-shard quota), so eviction timing differs
    /// from serial and the output is an approximation.
    ApproximateCountWindows,
}

impl Exactness {
    /// Convenience predicate: `true` iff [`Exactness::Exact`].
    pub fn is_exact(self) -> bool {
        matches!(self, Exactness::Exact)
    }
}

/// Final report of a sharded run; see [`OutputSink::merged`] for how the
/// per-shard logs combine.
#[derive(Debug)]
pub struct ShardedReport {
    /// Total arrivals routed.
    pub events: u64,
    /// Arrivals routed to each shard (length = effective shard count).
    pub shard_events: Vec<u64>,
    /// Merged result count (== `output.count()`).
    pub outputs: u64,
    /// Plan transitions broadcast.
    pub transitions: u64,
    /// Whether the merged output is guaranteed lineage-equal to a serial
    /// run of the same arrival sequence.
    pub exactness: Exactness,
    /// Merged, lineage-sorted output.
    pub output: OutputSink,
    /// Summed execution counters.
    pub metrics: Metrics,
    /// States still incomplete across all shards (JISC only).
    pub incomplete_states: usize,
    /// Structured faults observed (empty on a clean run).
    pub faults: Vec<WorkerFault>,
    /// Shard recoveries performed.
    pub recoveries: u64,
    /// Events re-sent from the replay buffer during recoveries.
    pub replayed_events: u64,
    /// Tuples re-sent from the replay buffer during recoveries.
    pub replayed_tuples: u64,
    /// Wall-clock time spent in recovery (reap + restore + replay).
    pub recovery_wall: Duration,
    /// Completed checkpoints (with base-state snapshots).
    pub checkpoints: u64,
    /// Tuples dropped by the [`OverloadPolicy::Shed`] policy.
    pub shed_tuples: u64,
    /// Tuples shed per shard (same length as `shard_events`).
    pub shed_by_shard: Vec<u64>,
    /// Sends that failed with [`JiscError::SendTimeout`] under
    /// [`OverloadPolicy::Timeout`].
    pub send_timeouts: u64,
    /// Highest queue depth the router observed per shard (sampled at each
    /// send; a lower bound on the true peak).
    pub peak_queue_depth: Vec<u64>,
    /// Cumulative state probes per shard (the elastic controller's load
    /// signal; from each shard's final metrics).
    pub probes_by_shard: Vec<u64>,
    /// Partition-map rescales applied (`apply_map` calls that moved ranges).
    pub rescales: u64,
    /// Final partition epoch.
    pub partition_epoch: u64,
    /// Window tuples shipped source → target across all rescales.
    pub migrated_tuples: u64,
    /// Tuples rejected as late (router gate + engine policies combined).
    /// Never silently lost: `events + dropped_late` equals the tuples
    /// offered to the executor.
    pub dropped_late: u64,
    /// Out-of-order tuples admitted within the lateness bound.
    pub late_admitted: u64,
    /// Final min-aligned event-time watermark broadcast (0 if watermarks
    /// were disabled or never aligned).
    pub watermark: u64,
    /// Last watermark delivered to each shard slot (0 for shards retired
    /// before the first broadcast).
    pub watermarks_by_shard: Vec<u64>,
    /// Ingest-to-apply latency distribution in nanoseconds (router
    /// staged → worker applied), merged across shards and phases.
    /// Always on, O(1) per batch, constant memory. Tuples applied by an
    /// incarnation that later died before checkpointing them are absent
    /// (their registry died with them); replayed tuples keep their
    /// original ingest stamp, so recovered runs measure
    /// recovery-inclusive latency.
    pub latency: HistogramSnapshot,
    /// Per-phase latency split `(phase id, histogram)`, ascending by
    /// phase. One entry (phase 0) unless a [`ShardedConfig::phase`]
    /// classifier was installed.
    pub latency_by_phase: Vec<(u32, HistogramSnapshot)>,
    /// Full telemetry sample at finish: merged and per-shard registry
    /// snapshots (engine counters, kernel costs, latency histograms)
    /// plus the retained control-plane flight events.
    pub telemetry: TelemetrySnapshot,
    /// Duplicate deliveries dropped by the workers' delivery guards.
    pub dup_deliveries_dropped: u64,
    /// Reordered deliveries healed back into sequence order by the guards.
    pub reorders_healed: u64,
}

impl ShardedReport {
    /// A human-readable per-shard load footer in the `explain` style:
    /// one line per shard (events, peak queue depth, shed tuples, probes),
    /// then run-wide shed/timeout/rescale totals. Retired shards keep
    /// their line — their history is part of the run.
    pub fn footer(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "shards: {} | partition epoch {} | rescales {} | migrated tuples {}",
            self.shard_events.len(),
            self.partition_epoch,
            self.rescales,
            self.migrated_tuples,
        );
        for (i, &ev) in self.shard_events.iter().enumerate() {
            let _ = writeln!(
                s,
                "  shard {i}: events {ev} | peak queue {} | shed {} | probes {}",
                self.peak_queue_depth.get(i).copied().unwrap_or(0),
                self.shed_by_shard.get(i).copied().unwrap_or(0),
                self.probes_by_shard.get(i).copied().unwrap_or(0),
            );
        }
        let _ = writeln!(
            s,
            "  totals: shed {} | send timeouts {} | checkpoints {} | recoveries {}",
            self.shed_tuples, self.send_timeouts, self.checkpoints, self.recoveries,
        );
        let _ = write!(
            s,
            "  event time: watermark {} | dropped late {} | late admitted {} \
             | dup deliveries dropped {} | reorders healed {}",
            self.watermark,
            self.dropped_late,
            self.late_admitted,
            self.dup_deliveries_dropped,
            self.reorders_healed,
        );
        if self.latency.count() > 0 {
            let _ = write!(
                s,
                "\n  {}",
                jisc_telemetry::render::line(
                    "latency",
                    &[
                        ("count", self.latency.count().to_string()),
                        ("p50_ns", self.latency.quantile(0.5).to_string()),
                        ("p99_ns", self.latency.quantile(0.99).to_string()),
                        ("p999_ns", self.latency.quantile(0.999).to_string()),
                    ],
                )
            );
        }
        s
    }
}

/// The router's record of a shard's last completed checkpoint.
#[derive(Debug, Clone)]
struct ShardCheckpoint {
    spec: PlanSpec,
    snapshot: jisc_engine::BaseStateSnapshot,
    covered: u64,
    tuples: u64,
}

enum SendOutcome {
    Sent,
    Shed(u64),
    TimedOut(u64),
    Disconnected,
}

/// One entry of a shard's replay buffer: everything the router has sent on
/// the shard's positional event stream, re-sendable after a fault. Rescale
/// export/install requests are positional like data events, so a respawned
/// incarnation re-extracts (or re-installs) at exactly the original stream
/// position.
#[derive(Debug, Clone)]
enum ReplayEvent {
    Event(Event<PlanSpec>),
    ExportRange {
        epoch: u64,
        to: usize,
        ranges: Vec<KeyRange>,
    },
    /// Shared with the live send: replaying does not deep-copy the slice.
    InstallRange(Arc<RangeInstall>),
}

impl ReplayEvent {
    fn to_msg(&self) -> ShardMsg {
        match self {
            ReplayEvent::Event(ev) => ShardMsg::Event(ev.clone()),
            ReplayEvent::ExportRange { epoch, to, ranges } => ShardMsg::ExportRange {
                epoch: *epoch,
                to: *to,
                ranges: ranges.clone(),
            },
            ReplayEvent::InstallRange(i) => ShardMsg::InstallRange(Arc::clone(i)),
        }
    }

    /// Data tuples this entry carries (for shed/replay accounting).
    fn tuple_count(&self) -> u64 {
        match self {
            ReplayEvent::Event(Event::Columnar(b)) => b.len() as u64,
            _ => 0,
        }
    }

    /// Only data events may be shed; everything else is control plane.
    fn sheddable(&self) -> bool {
        self.tuple_count() > 0
    }
}

/// Key-partitioned parallel runtime: `N` supervised worker threads, each
/// owning an independent engine over the hash-partition of keys it is
/// responsible for. Worker panics are recovered from checkpoints without
/// terminating the run; see the module docs.
///
/// ```
/// use jisc_engine::{Catalog, JoinStyle, PlanSpec};
/// use jisc_runtime::shard::{ShardStrategy, ShardedConfig, ShardedExecutor};
/// use jisc_common::StreamId;
///
/// let catalog = Catalog::new(vec![
///     jisc_engine::StreamDef::timed("R", 100),
///     jisc_engine::StreamDef::timed("S", 100),
/// ]).unwrap();
/// let plan = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
/// let config = ShardedConfig {
///     strategy: ShardStrategy::Jisc,
///     shards: 2,
///     queue_capacity: 256,
///     ..ShardedConfig::default()
/// };
/// let mut exec = ShardedExecutor::spawn_with(catalog, &plan, config).unwrap();
/// exec.push(StreamId(0), 7, 0).unwrap();
/// exec.push(StreamId(1), 7, 0).unwrap();
/// let report = exec.finish().unwrap();
/// assert_eq!(report.outputs, 1);
/// assert!(report.exactness.is_exact());
/// ```
#[derive(Debug)]
pub struct ShardedExecutor {
    /// Per-shard router state, slot-indexed; retired slots stay (their ids
    /// are never reused).
    slots: Vec<Slot>,
    /// Reused output of the shard-routing kernel (`push_columnar`).
    route_scratch: Vec<u32>,
    catalog: Catalog,
    /// Compiled current plan, kept for router-side transition validation.
    current: Plan,
    /// Spec of the current plan (what a newly spawned elastic shard runs).
    current_spec: PlanSpec,
    /// The routing table: hashed-key ranges → shard, epoch-stamped.
    pmap: PartitionMap,
    config: ShardedConfig,
    exactness: Exactness,
    next_seq: SeqNo,
    last_ts: u64,
    events: u64,
    transitions: u64,
    // --- supervision state ---
    ctrl_tx: chan::Sender<ToRouter>,
    ctrl_rx: chan::Receiver<ToRouter>,
    injector: Arc<FaultInjector>,
    /// Output drained at completed checkpoints (durable across faults).
    saved: Vec<OutputSink>,
    faults: Vec<WorkerFault>,
    recoveries: u64,
    replayed_events: u64,
    replayed_tuples: u64,
    recovery_wall: Duration,
    checkpoints: u64,
    shed_tuples: u64,
    // --- elastic state ---
    /// `(epoch, from, to)` exports already forwarded to their target;
    /// dedups the duplicate replies a crash-replayed source re-sends.
    installed: FxHashSet<(u64, usize, usize)>,
    /// Export replies that arrived outside `apply_map`'s wait loop (e.g.
    /// while draining control traffic during an unrelated recovery);
    /// consumed by the wait loop.
    pending_exports: Vec<(usize, u64, usize, Box<BaseRangeExport>)>,
    rescales: u64,
    migrated_tuples: u64,
    send_timeouts: u64,
    // --- event-time + latency state ---
    /// Router-side lateness gate (present when [`ShardedConfig::lateness`]
    /// is set): re-sorts bounded disorder before sharding so routed
    /// traffic is globally timestamp-ordered.
    gate: Option<LatenessGate<(StreamId, Key, u64)>>,
    /// Reused drain buffer for gate releases (avoids a per-push alloc).
    gate_scratch: Vec<(u64, (StreamId, Key, u64))>,
    /// Highest routed timestamp per stream; their min is the aligned
    /// watermark no future arrival on any stream can regress below.
    stream_frontiers: Vec<u64>,
    /// Last aligned watermark broadcast to the shards.
    watermark: u64,
    /// Tuples routed since the last watermark broadcast.
    since_watermark: u64,
    // --- telemetry ---
    /// Run-wide control-plane flight recorder, shared with every worker;
    /// its origin instant is also the epoch for batch ingest stamps.
    flight: FlightRecorder,
    /// Current phase id from [`ShardedConfig::phase`] (0 without one).
    current_phase: u32,
    /// First durable-persistence failure. Surfaced as an error by
    /// [`ShardedExecutor::finish`]: a run that promised durability but
    /// could not write it must not report success.
    durable_error: Option<String>,
}

/// The router's record of one shard slot: its live incarnation, what a
/// respawn restarts it from, and its load accounting.
#[derive(Debug)]
struct Slot {
    /// Sender; `None` once the shard's queue has been closed.
    tx: Option<chan::Sender<ShardMsg>>,
    worker: Option<JoinHandle<Option<ShardResult>>>,
    /// Clean result reaped early (a worker that finished during recovery
    /// bookkeeping in `finish`).
    finished: Option<ShardResult>,
    /// Staging buffer in columnar layout: routed rows land here and ship
    /// as [`Event::Columnar`] — the worker's vectorized path consumes them
    /// without re-materializing rows.
    batch: ColumnarBatch,
    /// Plan a checkpoint-less incarnation starts from: the initial plan for
    /// the original shards, the plan current at spawn for elastic ones.
    /// Transitions leave it alone — such an incarnation replays its full
    /// history, barriers included.
    spawn_spec: PlanSpec,
    /// Last completed checkpoint; every incarnation starts from it.
    ckpt: Option<ShardCheckpoint>,
    /// Post-checkpoint event suffix, cloned at send time and pruned as
    /// checkpoints complete.
    replay: VecDeque<ReplayEvent>,
    /// Events sent (positional clock shared with the workers).
    sent: u64,
    /// Tuples routed since the last checkpoint request.
    since_ckpt: u64,
    recoveries: u64,
    /// Arrivals routed here.
    events: u64,
    /// Highest queue depth observed at a send.
    peak_queue: u64,
    /// Tuples shed under [`OverloadPolicy::Shed`].
    shed: u64,
    /// Cumulative probes as of the last checkpoint (live signal; the final
    /// report uses the shard's final metrics instead).
    probes: u64,
    /// Last watermark delivered.
    watermark: u64,
    /// The live incarnation's metric registry. Each incarnation gets a
    /// fresh one: a dead incarnation's un-checkpointed telemetry is
    /// discarded exactly like its un-checkpointed output.
    registry: Registry,
    /// Durable checkpoint store (when [`ShardedConfig::durable_dir`] is set).
    durable: Option<DurableCheckpointStore>,
}

impl Slot {
    fn new(spawn_spec: PlanSpec) -> Self {
        Slot {
            tx: None,
            worker: None,
            finished: None,
            batch: ColumnarBatch::new(BATCH),
            spawn_spec,
            ckpt: None,
            replay: VecDeque::new(),
            sent: 0,
            since_ckpt: 0,
            recoveries: 0,
            events: 0,
            peak_queue: 0,
            shed: 0,
            probes: 0,
            watermark: 0,
            registry: Registry::new(),
            durable: None,
        }
    }

    /// True when no incarnation is running: never started, reaped, or its
    /// thread has exited (cleanly or after reporting a fault).
    fn is_down(&self) -> bool {
        self.worker.as_ref().is_none_or(|h| h.is_finished())
    }
}

/// True if hash partitioning by key preserves the plan's semantics: every
/// binary operator matches only equal keys.
fn key_partitionable(plan: &Plan) -> bool {
    plan.ids().all(|id| match &plan.node(id).op {
        OpKind::NljJoin(pred) => *pred == Predicate::KeyEq,
        OpKind::Scan(_) | OpKind::HashJoin | OpKind::SetDiff | OpKind::Aggregate(_) => true,
    })
}

impl ShardedExecutor {
    /// Spawn a supervised sharded runtime.
    ///
    /// Plans with non-equi theta joins are not key-partitionable and fall
    /// back to a single worker; check [`ShardedExecutor::shards`]. With a
    /// transition-capable strategy the plan must be reorderable (as for
    /// [`jisc_core::JiscExec`]), since transitions may be requested later.
    pub fn spawn_with(catalog: Catalog, spec: &PlanSpec, config: ShardedConfig) -> Result<Self> {
        let current = Plan::compile(&catalog, spec)?;
        if config.strategy.supports_transitions() {
            verify_reorderable(&current)?;
        }
        let n = if key_partitionable(&current) {
            config.shards.max(1)
        } else {
            1
        };
        let exactness = if n == 1
            || catalog
                .ids()
                .all(|s| matches!(catalog.window_spec(s), jisc_engine::WindowSpec::Time(_)))
        {
            Exactness::Exact
        } else {
            Exactness::ApproximateCountWindows
        };
        // The control channel is sized so every worker can deposit a fault,
        // a checkpoint, and a couple of rescale export replies without ever
        // blocking against the router — generously, since elastic scale-ups
        // add workers after this capacity is fixed.
        let (ctrl_tx, ctrl_rx) = chan::bounded::<ToRouter>((n * 8).max(32));
        let injector = Arc::new(FaultInjector::new(config.faults.clone()));
        if !config.faults.is_empty() {
            crate::fault::install_quiet_hook();
        }
        // Durable recovery: restarting the whole process resumes each
        // shard from its newest hash-chain-verified snapshot, and the
        // router's global clocks resume past the recovered prefix so new
        // arrivals carry seqs/timestamps a single uninterrupted run would
        // have assigned. The snapshot also seeds the slot's checkpoint, so
        // a fault before this process's first checkpoint recovers from it
        // rather than from an empty engine.
        let (mut resume_seq, mut resume_ts) = (0u64, 0u64);
        let mut slots = Vec::with_capacity(n);
        for i in 0..n {
            let mut slot = Slot::new(spec.clone());
            if let Some(dir) = config.shard_durable(i) {
                if let Some((_, snapshot)) = DurableCheckpointStore::recover_latest(&dir)? {
                    resume_seq = resume_seq.max(snapshot.next_seq);
                    resume_ts = resume_ts.max(snapshot.last_ts);
                    slot.ckpt = Some(ShardCheckpoint {
                        spec: spec.clone(),
                        snapshot,
                        covered: 0,
                        tuples: 0,
                    });
                }
                slot.durable = Some(DurableCheckpointStore::open(dir)?);
            }
            slots.push(slot);
        }
        let catalog_len = catalog.len();
        let mut exec = ShardedExecutor {
            slots,
            route_scratch: Vec::new(),
            catalog,
            current,
            current_spec: spec.clone(),
            pmap: PartitionMap::uniform(n),
            exactness,
            next_seq: resume_seq,
            last_ts: resume_ts,
            events: 0,
            transitions: 0,
            ctrl_tx,
            ctrl_rx,
            injector,
            saved: Vec::new(),
            faults: Vec::new(),
            recoveries: 0,
            replayed_events: 0,
            replayed_tuples: 0,
            recovery_wall: Duration::ZERO,
            checkpoints: 0,
            shed_tuples: 0,
            installed: FxHashSet::default(),
            pending_exports: Vec::new(),
            rescales: 0,
            migrated_tuples: 0,
            send_timeouts: 0,
            gate: config.lateness.map(LatenessGate::new),
            gate_scratch: Vec::new(),
            stream_frontiers: vec![0; catalog_len],
            watermark: 0,
            since_watermark: 0,
            flight: FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY),
            current_phase: 0,
            durable_error: None,
            config,
        };
        for s in 0..n {
            exec.start_worker(s)?;
        }
        Ok(exec)
    }

    /// Shard slots allocated (1 when the plan forced a serial fallback).
    /// Includes shards retired by a rescale; see
    /// [`ShardedExecutor::live_shards`] for current owners.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Shard ids that currently own key ranges (ascending).
    pub fn live_shards(&self) -> Vec<usize> {
        self.pmap.live_shards()
    }

    /// The current routing table.
    pub fn partition_map(&self) -> &PartitionMap {
        &self.pmap
    }

    /// Per-shard load signals for an elastic controller: for every slot,
    /// `(events routed, queue depth now, probes at last checkpoint)`.
    /// Retired slots report their final history.
    pub fn shard_loads(&self) -> Vec<(u64, u64, u64)> {
        self.slots
            .iter()
            .map(|slot| {
                let depth = slot.tx.as_ref().map_or(0, |tx| tx.len() as u64);
                (slot.events, depth, slot.probes)
            })
            .collect()
    }

    /// Samples the run's telemetry right now: every shard's registry
    /// snapshot (merged name-wise into the headline view) plus the
    /// retained control-plane flight events. Never blocks the workers —
    /// registries are read through relaxed atomics.
    ///
    /// Before snapshotting, the router refreshes its own load gauges on
    /// each shard registry (`routed_events`, `queue_depth`,
    /// `routed_probes` — the [`ShardedExecutor::shard_loads`] triple), so
    /// an elastic controller can run off the snapshot alone.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        for (slot, (events, depth, probes)) in self.slots.iter().zip(self.shard_loads()) {
            let r = &slot.registry;
            r.gauge("routed_events").set(events as f64);
            r.gauge("queue_depth").set(depth as f64);
            r.gauge("routed_probes").set(probes as f64);
        }
        TelemetrySnapshot::from_shards(
            self.slots
                .iter()
                .enumerate()
                .map(|(s, slot)| (s, slot.registry.snapshot()))
                .collect(),
            self.flight.events(),
        )
    }

    /// The run's shared flight recorder — harnesses drop `Note` markers
    /// into it and dump it on invariant failures.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Whether the merged output is guaranteed lineage-equal to a serial
    /// run; see [`Exactness`].
    pub fn exactness(&self) -> Exactness {
        self.exactness
    }

    /// Convenience for `self.exactness().is_exact()`.
    pub fn is_exact(&self) -> bool {
        self.exactness.is_exact()
    }

    /// Arrivals routed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Shard recoveries performed so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Structured faults observed so far.
    pub fn faults(&self) -> &[WorkerFault] {
        &self.faults
    }

    /// Route one arrival, timestamping exactly as a serial
    /// [`Pipeline::ingest`](jisc_engine::Pipeline) would
    /// (`ts = max(last_ts, next_seq)`).
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        let ts = self.last_ts.max(self.next_seq);
        self.push_at(stream, key, payload, ts)
    }

    /// Route one arrival at an explicit timestamp.
    ///
    /// Without a [`ShardedConfig::lateness`] policy timestamps must be
    /// monotone, exactly as before. With one, arrivals may be out of order:
    /// the router's [`LatenessGate`] re-sorts them within the policy's
    /// bound before routing (so shards still see a timestamp-ordered
    /// stream) and drops-and-counts anything later than the bound. Dropped
    /// tuples consume no sequence number and appear in the final report's
    /// `dropped_late`, keeping `offered == events + dropped_late +
    /// buffered` at all times.
    pub fn push_at(&mut self, stream: StreamId, key: Key, payload: u64, ts: u64) -> Result<()> {
        if stream.0 as usize >= self.catalog.len() {
            return Err(JiscError::UnknownStream(format!(
                "stream index {}",
                stream.0
            )));
        }
        let Some(gate) = self.gate.as_mut() else {
            return self.route_stamped(stream, key, payload, ts);
        };
        let mut out = std::mem::take(&mut self.gate_scratch);
        let dropped_before = gate.stats.dropped_late;
        gate.offer(ts, (stream, key, payload), &mut out);
        let dropped = gate.stats.dropped_late - dropped_before;
        if dropped > 0 {
            self.flight
                .record(FlightEventKind::LatenessDrop { count: dropped });
        }
        let result = out.drain(..).try_for_each(|(ts, (stream, key, payload))| {
            self.route_stamped(stream, key, payload, ts)
        });
        self.gate_scratch = out;
        result
    }

    /// Route one in-order arrival: stamp it with the global clocks and
    /// stage it on its owner shard. Callers guarantee `ts` is monotone
    /// (the gate re-orders; the ungated path forwards caller order).
    fn route_stamped(&mut self, stream: StreamId, key: Key, payload: u64, ts: u64) -> Result<()> {
        if ts < self.last_ts {
            return Err(JiscError::Internal(format!(
                "timestamps must be monotone: {ts} < {}",
                self.last_ts
            )));
        }
        self.stage(self.pmap.shard_for_key(key), stream, key, payload, ts)?;
        if self.config.watermark_every > 0 {
            self.since_watermark += 1;
            if self.since_watermark >= self.config.watermark_every {
                self.advance_watermarks()?;
            }
        }
        Ok(())
    }

    /// Stage one routed arrival on shard `s`: cut the batches on a phase
    /// change, stamp the arrival with the next global sequence number and
    /// `ts`, advance the counts and the stream's frontier, and flush the
    /// shard's batch once it is full. The one staging step of both ingest
    /// paths; each keeps its own validation and watermark cadence.
    fn stage(&mut self, s: usize, stream: StreamId, key: Key, payload: u64, ts: u64) -> Result<()> {
        self.cut_phase(ts)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.last_ts = ts;
        self.events += 1;
        let frontier = &mut self.stream_frontiers[stream.0 as usize];
        *frontier = (*frontier).max(ts);
        let slot = &mut self.slots[s];
        slot.events += 1;
        slot.batch
            .push_stamped(stream, key, payload, Some(ts), Some(seq))
            .expect("staging batch is cut on full");
        if slot.batch.is_full() {
            self.flush(s)?;
        }
        Ok(())
    }

    /// Broadcast the min-aligned event-time watermark: the smallest
    /// per-stream routed frontier, which no future arrival on any stream
    /// can regress below (gated traffic releases in timestamp order;
    /// ungated traffic is monotone by contract). Staged batches are
    /// flushed first so the watermark lands after every tuple it covers;
    /// shards apply it as a monotone, idempotent expiry sweep, which makes
    /// the broadcast safe to replay during recovery.
    fn advance_watermarks(&mut self) -> Result<()> {
        self.since_watermark = 0;
        let Some(aligned) = self.stream_frontiers.iter().copied().min() else {
            return Ok(());
        };
        if aligned <= self.watermark {
            return Ok(());
        }
        self.flush_all()?;
        for s in self.open_slots() {
            self.send_event(s, Event::Watermark(aligned))?;
            self.slots[s].watermark = aligned;
        }
        self.watermark = aligned;
        self.flight
            .record(FlightEventKind::Watermark { frontier: aligned });
        Ok(())
    }

    /// Reclassify the telemetry phase at `ts`; on a change, cut every
    /// staged batch first so each delivered batch is single-phase.
    fn cut_phase(&mut self, ts: u64) -> Result<()> {
        let Some(p) = self.config.phase.as_ref().map(|c| c.classify(ts)) else {
            return Ok(());
        };
        if p != self.current_phase {
            self.flush_all()?;
            self.current_phase = p;
        }
        Ok(())
    }

    /// Route a whole columnar batch in bulk: one pass of the shard-routing
    /// kernel over the key column, then per-shard columnar staging — rows
    /// are never re-materialized. Clocks are assigned exactly as
    /// [`ShardedExecutor::push_at`] does per arrival (a pinned timestamp is
    /// honored and checked for monotonicity; a missing one defaults to
    /// `max(last_ts, next_seq)`). Input sequence numbers are ignored — the
    /// router owns the global arrival clock. Batches carrying payload
    /// blobs are rejected: blob handles are relative to their own batch's
    /// arena and cannot be re-staged per shard.
    pub fn push_columnar(&mut self, batch: &ColumnarBatch) -> Result<()> {
        if !batch.arena().is_empty() {
            return Err(JiscError::InvalidConfig(
                "cannot route a columnar batch with payload blobs across shards".into(),
            ));
        }
        // Validate up front so the routing loop below cannot fail between
        // shards (an invalid row would otherwise leave a routed prefix).
        let mut ts_check = self.last_ts;
        for i in 0..batch.len() {
            let stream = batch.streams()[i];
            if stream.0 as usize >= self.catalog.len() {
                return Err(JiscError::UnknownStream(format!(
                    "stream index {}",
                    stream.0
                )));
            }
            if let Some(ts) = batch.ts_at(i) {
                if ts < ts_check {
                    return Err(JiscError::Internal(format!(
                        "timestamps must be monotone: {ts} < {ts_check}"
                    )));
                }
                ts_check = ts;
            }
        }
        let mut route = std::mem::take(&mut self.route_scratch);
        self.pmap.route_column(batch.keys(), &mut route);
        let (keys, streams, payloads) = (batch.keys(), batch.streams(), batch.payloads());
        let staged = route.iter().enumerate().try_for_each(|(i, &s)| {
            let ts = batch.ts_at(i).unwrap_or(self.last_ts.max(self.next_seq));
            self.stage(s as usize, streams[i], keys[i], payloads[i], ts)
        });
        self.route_scratch = route;
        staged?;
        if self.config.watermark_every > 0 {
            self.since_watermark += batch.len() as u64;
            if self.since_watermark >= self.config.watermark_every {
                self.advance_watermarks()?;
            }
        }
        Ok(())
    }

    /// Broadcast a plan transition as an in-band barrier: it reaches every
    /// shard after all previously routed events and before all later ones.
    /// The plan is validated here so workers cannot fail mid-stream.
    pub fn transition(&mut self, spec: &PlanSpec) -> Result<()> {
        if !self.config.strategy.supports_transitions() {
            return Err(JiscError::Internal(
                "plan transitions require a migration-capable strategy".into(),
            ));
        }
        let new_plan = Plan::compile(&self.catalog, spec)?;
        verify_same_query(&self.current, &new_plan)?;
        verify_reorderable(&new_plan)?;
        if !key_partitionable(&new_plan) && self.slots.len() > 1 {
            return Err(JiscError::Internal(
                "new plan is not key-partitionable; cannot transition a sharded run".into(),
            ));
        }
        self.flush_all()?;
        for s in self.open_slots() {
            self.send_event(s, Event::MigrationBarrier(spec.clone()))?;
        }
        self.current = new_plan;
        self.current_spec = spec.clone();
        self.transitions += 1;
        Ok(())
    }

    /// Install a successor partition map mid-stream: spawn any new target
    /// shards, broadcast the epoch cut in-band, move the reassigned
    /// ranges' state source → target as a JISC handover, and retire shards
    /// that own nothing under the new map. Ingest resumes the moment this
    /// returns — targets carry the moved keys as completion debt and
    /// complete them on first probe while the stream keeps flowing.
    ///
    /// Requirements: `new_map` must be valid, advance the epoch by exactly
    /// one, and the run must be *losslessly* partitionable at any width —
    /// exact sharding (time windows, or a single live shard on both sides),
    /// a key-partitionable plan, and no aggregates (their accumulators are
    /// not per-key, so moved contributions could never be expired by the
    /// source).
    pub fn apply_map(&mut self, new_map: PartitionMap) -> Result<()> {
        new_map.validate()?;
        if new_map.epoch() != self.pmap.epoch() + 1 {
            return Err(JiscError::InvalidConfig(format!(
                "partition epoch must advance by exactly one ({} -> {})",
                self.pmap.epoch(),
                new_map.epoch()
            )));
        }
        let all_timed = self.catalog.ids().all(|s| {
            matches!(
                self.catalog.window_spec(s),
                jisc_engine::WindowSpec::Time(_)
            )
        });
        let multi = self.pmap.live_shards().len() > 1 || new_map.live_shards().len() > 1;
        if multi && !all_timed {
            return Err(JiscError::InvalidConfig(
                "rescaling to multiple shards requires time windows; count windows keep \
                 per-shard quotas a handover would reshuffle"
                    .into(),
            ));
        }
        if multi && !key_partitionable(&self.current) {
            return Err(JiscError::InvalidConfig(
                "plan is not key-partitionable; cannot rescale past one shard".into(),
            ));
        }
        if self
            .current
            .ids()
            .any(|id| matches!(self.current.node(id).op, OpKind::Aggregate(_)))
        {
            return Err(JiscError::InvalidConfig(
                "aggregate accumulators are not per-key; cannot rescale this plan".into(),
            ));
        }
        let moves = new_map.moves_from(&self.pmap);
        self.flush_all()?;
        // Spawn every target slot before the epoch punctuation, so a new
        // shard's positional stream also starts at the cut.
        for mv in &moves {
            self.ensure_shard_slot(mv.to)?;
        }
        // Epoch punctuation: every live shard observes the new map at the
        // same positional boundary of its queue.
        for s in self.open_slots() {
            self.send_event(s, Event::Repartition(new_map.clone()))?;
        }
        self.flight.record(FlightEventKind::RepartitionCut {
            epoch: new_map.epoch(),
        });
        // One export request per (source, target) pair, carrying all the
        // ranges moving between that pair.
        let mut grouped: Vec<((usize, usize), Vec<KeyRange>)> = Vec::new();
        for mv in &moves {
            match grouped
                .iter_mut()
                .find(|(pair, _)| *pair == (mv.from, mv.to))
            {
                Some((_, ranges)) => ranges.push(mv.range),
                None => grouped.push(((mv.from, mv.to), vec![mv.range])),
            }
        }
        let epoch = new_map.epoch();
        for ((from, to), ranges) in &grouped {
            self.send_replayable(
                *from,
                ReplayEvent::ExportRange {
                    epoch,
                    to: *to,
                    ranges: ranges.clone(),
                },
            )?;
        }
        // Wait for every export and forward it to its target. Workers keep
        // draining their queues throughout — only the router blocks here,
        // and only until the sources reach the export position. Faults are
        // recovered in-loop: a respawned source replays up to the export
        // request and re-extracts the same deterministic slice (duplicate
        // replies are deduplicated by `(epoch, from, to)`).
        while grouped
            .iter()
            .any(|((from, to), _)| !self.installed.contains(&(epoch, *from, *to)))
        {
            while let Some((from, e, to, export)) = self.pending_exports.pop() {
                self.dispatch_install(from, e, to, export)?;
            }
            match self.ctrl_rx.recv_timeout(Duration::from_millis(1)) {
                Ok(ToRouter::RangeExport {
                    shard,
                    epoch: e,
                    to,
                    export,
                }) => {
                    if !self.installed.contains(&(e, shard, to)) {
                        self.dispatch_install(shard, e, to, export)?;
                    }
                }
                Ok(ToRouter::Fault(f)) => {
                    let shard = f.shard;
                    self.faults.push(f);
                    // Recover only if the named worker is actually down:
                    // the health sweep below may already have replaced the
                    // faulted incarnation, and reaping its healthy
                    // successor would spin forever waiting for a live
                    // thread to finish.
                    if self.slots[shard].is_down() {
                        self.reap(shard);
                        self.respawn(shard)?;
                    }
                }
                Ok(ToRouter::Checkpoint(c)) => self.apply_checkpoint(c),
                Err(_) => {
                    // Timeout tick: sweep for shards that died *before*
                    // this loop with their fault already consumed by a
                    // `poll_ctrl` (which records faults but does not
                    // recover). Nothing else sends to a shard while the
                    // router waits here, so without this sweep a
                    // pre-loop death — e.g. a panic landing on the very
                    // batch the rescale's flush pushed — parks the
                    // export handshake forever.
                    for s in self.open_slots() {
                        if self.slots[s].is_down() {
                            self.reap(s);
                            self.respawn(s)?;
                        }
                    }
                }
            }
        }
        // Shards owning nothing under the new map are done: close their
        // queues and collect their output. Their ids are never reused.
        for s in self.open_slots() {
            if new_map.ranges_of(s).is_empty() {
                self.retire(s);
            }
        }
        self.pmap = new_map;
        self.rescales += 1;
        Ok(())
    }

    /// Split the hash range containing `key` so the key (and its hash
    /// neighborhood) lands on a freshly spawned shard; returns the new
    /// shard's id. The canonical response to one hot key dominating a
    /// shard.
    pub fn split_hot_key(&mut self, key: Key) -> Result<usize> {
        let (map, target) = self.pmap.split_key(key, None);
        self.apply_map(map)?;
        Ok(target)
    }

    /// Halve the busiest live shard's hash share onto a freshly spawned
    /// shard (busiest by routed-event count); returns the new shard's id.
    pub fn scale_up(&mut self) -> Result<usize> {
        let busiest = self
            .pmap
            .live_shards()
            .into_iter()
            .max_by_key(|&s| self.slots[s].events)
            .ok_or_else(|| JiscError::Internal("no live shards".into()))?;
        let (map, target) = self.pmap.split_shard(busiest, None)?;
        self.apply_map(map)?;
        Ok(target)
    }

    /// Move all of `from`'s ranges onto `into` and retire `from`.
    pub fn scale_down(&mut self, from: usize, into: usize) -> Result<()> {
        let map = self.pmap.merge_into(from, into)?;
        self.apply_map(map)
    }

    /// Forward an export to its target shard as an install, recording the
    /// `(epoch, from, to)` tuple so duplicate replies are dropped.
    // The box is how the export arrives in the ctrl message; taking it
    // whole keeps the O(window-share) payload off the stack until the
    // single move into the Arc.
    #[allow(clippy::boxed_local)]
    fn dispatch_install(
        &mut self,
        from: usize,
        epoch: u64,
        to: usize,
        export: Box<BaseRangeExport>,
    ) -> Result<()> {
        if !self.installed.insert((epoch, from, to)) {
            return Ok(());
        }
        self.migrated_tuples += export.window_tuples() as u64;
        self.flight.record(FlightEventKind::ExportHandover {
            from: from as u64,
            to: to as u64,
            tuples: export.window_tuples() as u64,
        });
        let install = Arc::new(RangeInstall {
            epoch,
            export: *export,
        });
        self.send_replayable(to, ReplayEvent::InstallRange(install))
    }

    /// Grow the slot table to include slot `s` and start a fresh worker
    /// there (running the current plan with empty state) if the slot has
    /// never been used. Errors if `s` names a retired shard — ids are not
    /// reused, so a stale map cannot resurrect dead state.
    fn ensure_shard_slot(&mut self, s: usize) -> Result<()> {
        while self.slots.len() <= s {
            self.slots.push(Slot::new(self.current_spec.clone()));
        }
        let slot = &mut self.slots[s];
        if slot.tx.is_some() || slot.worker.is_some() {
            return Ok(()); // already live
        }
        if slot.finished.is_some() || slot.sent > 0 {
            return Err(JiscError::InvalidConfig(format!(
                "shard {s} was retired; shard ids are not reused"
            )));
        }
        slot.spawn_spec = self.current_spec.clone();
        if slot.durable.is_none() {
            if let Some(dir) = self.config.shard_durable(s) {
                slot.durable = Some(DurableCheckpointStore::open(dir)?);
            }
        }
        self.start_worker(s)
    }

    /// Start a worker incarnation on slot `s`: restore the engine from the
    /// slot's last checkpoint (fresh at its spawn plan without one), attach
    /// the spill tier, install a fresh registry and spawn the thread. The
    /// first spawn, an elastic target and every recovery all start here.
    fn start_worker(&mut self, s: usize) -> Result<()> {
        let slot = &mut self.slots[s];
        let (spec, snapshot, start_index, start_tuples) = match &slot.ckpt {
            Some(k) => (&k.spec, Some(&k.snapshot), k.covered, k.tuples),
            None => (&slot.spawn_spec, None, 0, 0),
        };
        let mut engine = AdaptiveEngine::restore(
            self.catalog.clone(),
            spec,
            self.config.strategy.core_strategy(),
            snapshot,
        )?;
        if let Some(spill_cfg) = self.config.shard_spill(s) {
            engine.enable_spill(spill_cfg)?;
        }
        let (tx, rx) = chan::bounded::<ShardMsg>(self.config.queue_capacity.max(1));
        // Fresh registry: a dead incarnation's un-checkpointed telemetry is
        // discarded with it, exactly like its output — replay regenerates
        // both on the new incarnation.
        slot.registry = Registry::new();
        let ctx = WorkerCtx {
            shard: s,
            start_index,
            start_tuples,
            spec: spec.clone(),
            injector: Arc::clone(&self.injector),
            ctrl: self.ctrl_tx.clone(),
            telemetry: WorkerTelemetry::new(slot.registry.clone(), self.flight.clone()),
        };
        let handle = std::thread::Builder::new()
            .name(format!("jisc-shard-{s}"))
            .spawn(move || worker_loop(engine, rx, ctx))
            .expect("spawn shard thread");
        slot.tx = Some(tx);
        slot.worker = Some(handle);
        Ok(())
    }

    /// Ids of the slots whose queue is open (live shards, ascending).
    fn open_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&s| self.slots[s].tx.is_some())
            .collect()
    }

    /// Close a shard's queue and collect its final output. Its replay
    /// buffer and checkpoint are kept (a fault racing the close still
    /// recovers through the normal path); its id is never routed again.
    fn retire(&mut self, s: usize) {
        self.slots[s].tx = None;
        self.reap(s);
    }

    /// Drain all shards and merge their results. Worker faults on the
    /// final events are recovered here too — a panic mid-stream or
    /// mid-drain never loses the run.
    pub fn finish(mut self) -> Result<ShardedReport> {
        // End of stream: everything still held by the lateness gate is now
        // releasable — route it in timestamp order before the final flush.
        let mut released = std::mem::take(&mut self.gate_scratch);
        if let Some(gate) = self.gate.as_mut() {
            gate.flush(&mut released);
        }
        for (ts, (stream, key, payload)) in released.drain(..) {
            self.route_stamped(stream, key, payload, ts)?;
        }
        self.gate_scratch = released;
        self.flush_all()?;
        // Final punctuation: drain any residual operator queues before the
        // workers snapshot their results. Retired shards were already
        // drained and collected when their ranges moved away.
        for s in self.open_slots() {
            self.send_event(s, Event::Flush)?;
        }
        let n = self.slots.len();
        let mut results = Vec::with_capacity(n);
        for s in 0..n {
            let result = loop {
                if let Some(r) = self.slots[s].finished.take() {
                    break r;
                }
                self.slots[s].tx = None; // close this shard's queue
                self.reap(s);
                match self.slots[s].finished.take() {
                    Some(r) => break r,
                    None => {
                        // Faulted on the final events: recover and retry.
                        self.respawn(s)?;
                    }
                }
            };
            results.push(result);
        }
        let mut metrics = Metrics::new();
        let mut incomplete = 0;
        let mut probes_by_shard = Vec::with_capacity(n);
        let mut sinks = std::mem::take(&mut self.saved);
        let (mut dup_dropped, mut reorders_healed) = (0, 0);
        for r in results {
            metrics.merge(&r.metrics);
            incomplete += r.incomplete_states;
            probes_by_shard.push(r.metrics.probes);
            sinks.push(r.output);
            dup_dropped += r.dup_deliveries_dropped;
            reorders_healed += r.reorders_healed;
        }
        // Every worker mirrored its final counters into its registry on
        // clean exit, so this sample is the authoritative final view.
        let telemetry = self.telemetry();
        let mut latency = HistogramSnapshot::empty();
        let mut latency_by_phase: Vec<(u32, HistogramSnapshot)> = Vec::new();
        for (name, h) in &telemetry.merged.histograms {
            let Some(phase) = WorkerTelemetry::latency_phase_of(name) else {
                continue;
            };
            latency.merge(h);
            latency_by_phase.push((phase, h.clone()));
        }
        latency_by_phase.sort_unstable_by_key(|&(p, _)| p);
        let (gate_dropped, gate_admitted) = self
            .gate
            .as_ref()
            .map_or((0, 0), |g| (g.stats.dropped_late, g.stats.late_admitted));
        let (dropped_late, late_admitted) = (
            gate_dropped + metrics.dropped_late,
            gate_admitted + metrics.late_admitted,
        );
        if let Some(e) = self.durable_error.take() {
            return Err(JiscError::Internal(format!(
                "durable checkpointing failed: {e}"
            )));
        }
        let output = OutputSink::merged(sinks);
        let per_slot = |f: fn(&Slot) -> u64| self.slots.iter().map(f).collect::<Vec<u64>>();
        Ok(ShardedReport {
            events: self.events,
            shard_events: per_slot(|slot| slot.events),
            outputs: output.count() as u64,
            transitions: self.transitions,
            exactness: self.exactness,
            output,
            metrics,
            incomplete_states: incomplete,
            faults: std::mem::take(&mut self.faults),
            recoveries: self.recoveries,
            replayed_events: self.replayed_events,
            replayed_tuples: self.replayed_tuples,
            recovery_wall: self.recovery_wall,
            checkpoints: self.checkpoints,
            shed_tuples: self.shed_tuples,
            shed_by_shard: per_slot(|slot| slot.shed),
            send_timeouts: self.send_timeouts,
            peak_queue_depth: per_slot(|slot| slot.peak_queue),
            probes_by_shard,
            rescales: self.rescales,
            partition_epoch: self.pmap.epoch(),
            migrated_tuples: self.migrated_tuples,
            dropped_late,
            late_admitted,
            watermark: self.watermark,
            watermarks_by_shard: per_slot(|slot| slot.watermark),
            latency,
            latency_by_phase,
            telemetry,
            dup_deliveries_dropped: dup_dropped,
            reorders_healed,
        })
    }

    fn flush(&mut self, s: usize) -> Result<()> {
        self.poll_ctrl();
        if self.slots[s].batch.is_empty() {
            return Ok(());
        }
        let mut batch = std::mem::replace(&mut self.slots[s].batch, ColumnarBatch::new(BATCH));
        let len = batch.len() as u64;
        // One ingest stamp covers the whole batch: its rows were staged
        // at most `BATCH` pushes ago, and the queue wait the latency
        // histogram measures starts here. The stamp survives the replay
        // buffer, so a replayed batch measures recovery-inclusive
        // latency against its original send.
        let origin_ns = self.flight.origin().elapsed().as_nanos() as u64;
        batch.stamp_telemetry(origin_ns, self.current_phase);
        self.send_event(s, Event::Columnar(batch))?;
        let slot = &mut self.slots[s];
        if self.config.checkpoint_every > 0 {
            slot.since_ckpt += len;
            if slot.since_ckpt >= self.config.checkpoint_every {
                slot.since_ckpt = 0;
                // In-band mark; not part of the positional event clock.
                if let Some(tx) = &slot.tx {
                    let _ = tx.send(ShardMsg::Checkpoint);
                }
            }
        }
        Ok(())
    }

    fn flush_all(&mut self) -> Result<()> {
        for s in 0..self.slots.len() {
            self.flush(s)?;
        }
        Ok(())
    }

    /// Send one event on a shard's queue under the overload policy; see
    /// [`ShardedExecutor::send_replayable`].
    fn send_event(&mut self, s: usize, ev: Event<PlanSpec>) -> Result<()> {
        self.send_replayable(s, ReplayEvent::Event(ev))
    }

    /// Send one replayable entry on a shard's queue, recovering the shard
    /// (and retrying) if its worker has died. Data events honor the
    /// overload policy; control and rescale traffic (barriers, flushes,
    /// repartition marks, exports, installs) always blocks — shedding or
    /// timing one out would leave shards disagreeing about stream
    /// positions. On success the entry is recorded in the positional clock
    /// and the replay buffer.
    fn send_replayable(&mut self, s: usize, rev: ReplayEvent) -> Result<()> {
        loop {
            let outcome = {
                let Some(tx) = &self.slots[s].tx else {
                    return Err(JiscError::Internal("shard queue closed".into()));
                };
                if !rev.sheddable() {
                    match tx.send(rev.to_msg()) {
                        Ok(()) => SendOutcome::Sent,
                        Err(_) => SendOutcome::Disconnected,
                    }
                } else {
                    match self.config.overload {
                        OverloadPolicy::Block => match tx.send(rev.to_msg()) {
                            Ok(()) => SendOutcome::Sent,
                            Err(_) => SendOutcome::Disconnected,
                        },
                        OverloadPolicy::Timeout(d) => match tx.send_timeout(rev.to_msg(), d) {
                            Ok(()) => SendOutcome::Sent,
                            Err(chan::SendTimeoutError::Timeout(_)) => {
                                SendOutcome::TimedOut(d.as_millis() as u64)
                            }
                            Err(chan::SendTimeoutError::Disconnected(_)) => {
                                SendOutcome::Disconnected
                            }
                        },
                        OverloadPolicy::Shed => match tx.try_send(rev.to_msg()) {
                            Ok(()) => SendOutcome::Sent,
                            Err(chan::TrySendError::Full(_)) => {
                                SendOutcome::Shed(rev.tuple_count())
                            }
                            Err(chan::TrySendError::Disconnected(_)) => SendOutcome::Disconnected,
                        },
                    }
                }
            };
            match outcome {
                SendOutcome::Sent => {
                    let slot = &mut self.slots[s];
                    slot.sent += 1;
                    if let Some(tx) = &slot.tx {
                        // Sample the post-send depth (lower bound on peak).
                        slot.peak_queue = slot.peak_queue.max(tx.len() as u64);
                    }
                    slot.replay.push_back(rev);
                    return Ok(());
                }
                SendOutcome::Shed(tuples) => {
                    // Never sent: not in the positional clock, not replayed.
                    self.shed_tuples += tuples;
                    self.slots[s].shed += tuples;
                    self.flight.record(FlightEventKind::OverloadShed {
                        shard: s as u64,
                        tuples,
                    });
                    return Ok(());
                }
                SendOutcome::TimedOut(millis) => {
                    self.send_timeouts += 1;
                    return Err(JiscError::SendTimeout { millis });
                }
                SendOutcome::Disconnected => {
                    self.reap(s);
                    self.respawn(s)?;
                    // Loop: retry the send on the respawned worker.
                }
            }
        }
    }

    /// Drain pending worker → router control messages without blocking.
    fn poll_ctrl(&mut self) {
        while let Ok(msg) = self.ctrl_rx.try_recv() {
            match msg {
                ToRouter::Fault(f) => self.faults.push(f),
                ToRouter::Checkpoint(c) => self.apply_checkpoint(c),
                ToRouter::RangeExport {
                    shard,
                    epoch,
                    to,
                    export,
                } => {
                    if self.installed.contains(&(epoch, shard, to)) {
                        continue; // duplicate reply from a replayed incarnation
                    }
                    // Dispatching the install can respawn a dead target, so
                    // it happens in `apply_map`'s wait loop, not here.
                    self.pending_exports.push((shard, epoch, to, export));
                }
            }
        }
    }

    fn apply_checkpoint(&mut self, c: CheckpointData) {
        let s = c.shard;
        let slot = &mut self.slots[s];
        // Load signal first: valid even when the snapshot is declined.
        // `max` keeps it monotone across respawned incarnations (a
        // restored engine's counters restart below the true cumulative).
        slot.probes = slot.probes.max(c.probes);
        let (Some(snapshot), Some(output)) = (c.snapshot, c.output) else {
            // The engine declined to snapshot (e.g. mid-migration Parallel
            // Track); the previous checkpoint stays authoritative.
            return;
        };
        self.checkpoints += 1;
        self.flight.record(FlightEventKind::CheckpointTaken {
            shard: s as u64,
            covered: c.covered,
        });
        // Durable tier: fold the snapshot into the shard's hash-chained
        // segment store before the in-memory record takes over. `covered`
        // is the seq tag `recover_latest` hands back; pruning keeps the
        // newest two snapshots so disk stays bounded.
        if let Some(store) = slot.durable.as_mut() {
            if let Err(e) = store
                .persist(&snapshot, c.covered)
                .and_then(|_| store.prune(2))
            {
                self.durable_error.get_or_insert_with(|| e.to_string());
            }
        }
        // Prune the replay buffer: events the checkpoint now covers can
        // never need replaying again.
        let old_covered = slot.ckpt.as_ref().map_or(0, |k| k.covered);
        for _ in old_covered..c.covered {
            slot.replay.pop_front();
        }
        slot.ckpt = Some(ShardCheckpoint {
            spec: c.spec,
            snapshot,
            covered: c.covered,
            tuples: c.tuples,
        });
        self.saved.push(output);
    }

    /// Wait for shard `s`'s thread to exit and collect what it left behind:
    /// a clean result (stashed in `finished`), or fault messages on the
    /// control channel.
    fn reap(&mut self, s: usize) {
        while !self.slots[s].is_down() {
            self.poll_ctrl();
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(h) = self.slots[s].worker.take() {
            match h.join() {
                Ok(Some(result)) => self.slots[s].finished = Some(result),
                Ok(None) => {} // fault arrives via the control channel
                Err(payload) => {
                    // Unwind escaped the supervised loop (should not
                    // happen); synthesize a fault record so nothing is
                    // silently lost.
                    self.faults.push(WorkerFault {
                        shard: s,
                        payload: payload_string(payload.as_ref()),
                        last_seq: 0,
                        tuples: 0,
                    });
                }
            }
        }
        self.poll_ctrl();
    }

    /// Rebuild shard `s` from its last checkpoint and replay the
    /// post-checkpoint suffix. Loops internally if the worker dies again
    /// during replay, up to [`ShardedConfig::max_recoveries`].
    fn respawn(&mut self, s: usize) -> Result<()> {
        let wall = Instant::now();
        loop {
            self.flight
                .record(FlightEventKind::WorkerFault { shard: s as u64 });
            // Diagnostic of last resort: a worker fault dumps the control
            // plane to `$JISC_FLIGHT_DUMP` even if the run later recovers
            // (subsequent faults overwrite with a fresher view).
            if let Ok(path) = std::env::var("JISC_FLIGHT_DUMP") {
                self.flight.dump_to(std::path::Path::new(&path));
            }
            self.slots[s].recoveries += 1;
            self.recoveries += 1;
            if self.slots[s].recoveries > self.config.max_recoveries as u64 {
                let payload = self
                    .faults
                    .iter()
                    .rev()
                    .find(|f| f.shard == s)
                    .map(|f| f.payload.clone())
                    .unwrap_or_else(|| "repeated worker failure".into());
                self.recovery_wall += wall.elapsed();
                return Err(JiscError::WorkerPanic { shard: s, payload });
            }
            // Quiesce survivors at a barrier point: in-band Flush
            // punctuation drains their operator queues so the recovered
            // run resumes from a consistent, quiescent frontier.
            for (o, slot) in self.slots.iter_mut().enumerate() {
                if o == s {
                    continue;
                }
                let Some(tx) = &slot.tx else { continue };
                if tx.send(ShardMsg::Event(Event::Flush)).is_ok() {
                    slot.sent += 1;
                    slot.replay.push_back(ReplayEvent::Event(Event::Flush));
                }
                // A dead survivor is recovered by its own next send.
            }
            // Rebuild the engine from the checkpoint (fresh + full replay
            // when no checkpoint has completed yet).
            self.start_worker(s)?;
            // Replay the post-checkpoint suffix; the failed incarnation's
            // un-checkpointed output died with it, so these events emit
            // their results exactly once.
            let slot = &self.slots[s];
            let mut replay_ok = true;
            let mut replayed_here = 0u64;
            for rev in &slot.replay {
                self.replayed_events += 1;
                self.replayed_tuples += rev.tuple_count();
                replayed_here += 1;
                let sent = slot
                    .tx
                    .as_ref()
                    .is_some_and(|tx| tx.send(rev.to_msg()).is_ok());
                if !sent {
                    replay_ok = false;
                    break;
                }
            }
            if replay_ok {
                self.recovery_wall += wall.elapsed();
                self.flight.record(FlightEventKind::WorkerRecovered {
                    shard: s as u64,
                    replayed: replayed_here,
                });
                return Ok(());
            }
            // Died again during replay (a deterministic fault): reap the
            // corpse and let the cap above decide whether to try again.
            self.reap(s);
        }
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        // Close queues so workers exit even if `finish` was never called.
        for slot in &mut self.slots {
            slot.tx = None;
        }
        for slot in &mut self.slots {
            if let Some(h) = slot.worker.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_core::jisc::{jisc_transition, JiscSemantics};
    use jisc_engine::{JoinStyle, Pipeline, StreamDef};

    fn timed_catalog(streams: &[&str], ticks: u64) -> Catalog {
        Catalog::new(
            streams
                .iter()
                .map(|s| StreamDef::timed(*s, ticks))
                .collect(),
        )
        .unwrap()
    }

    fn serial_run(catalog: Catalog, spec: &PlanSpec, events: &[(u16, Key, u64)]) -> Pipeline {
        let mut pipe = Pipeline::new(catalog, spec).unwrap();
        let mut sem = JiscSemantics::default();
        for &(s, k, p) in events {
            pipe.push_with(&mut sem, StreamId(s), k, p).unwrap();
        }
        pipe
    }

    /// `shards` JISC workers with `queue_capacity`, default supervision.
    fn config(shards: usize, queue_capacity: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            queue_capacity,
            ..ShardedConfig::default()
        }
    }

    fn arrivals(n: u64, streams: u16, keys: u64) -> Vec<(u16, Key, u64)> {
        (0..n)
            .map(|i| ((i % streams as u64) as u16, (i * 7 + 3) % keys, i))
            .collect()
    }

    #[test]
    fn sharded_matches_serial_on_time_windows() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        for n in [1, 2, 4] {
            let mut exec = ShardedExecutor::spawn_with(
                timed_catalog(&["R", "S", "T"], 40),
                &spec,
                config(n, 64),
            )
            .unwrap();
            assert_eq!(exec.shards(), n);
            assert_eq!(exec.exactness(), Exactness::Exact);
            for &(s, k, p) in &events {
                exec.push(StreamId(s), k, p).unwrap();
            }
            let report = exec.finish().unwrap();
            assert_eq!(report.events, 600);
            assert_eq!(
                report.output.lineage_multiset(),
                serial.output.lineage_multiset(),
                "shards={n}"
            );
        }
    }

    #[test]
    fn merged_output_is_deterministic_and_lineage_sorted() {
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let events = arrivals(400, 2, 9);
        let run = |n| {
            let mut exec =
                ShardedExecutor::spawn_with(timed_catalog(&["R", "S"], 30), &spec, config(n, 32))
                    .unwrap();
            for &(s, k, p) in &events {
                exec.push(StreamId(s), k, p).unwrap();
            }
            exec.finish().unwrap()
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(a.output.log, b.output.log, "merge must be deterministic");
        let lineages: Vec<_> = a.output.log.iter().map(|t| t.lineage()).collect();
        let mut sorted = lineages.clone();
        sorted.sort();
        assert_eq!(lineages, sorted);
    }

    #[test]
    fn barrier_transition_matches_serial_migration() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let new_spec = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        let events = arrivals(500, 3, 13);
        // serial reference with the same mid-stream migration
        let mut serial = Pipeline::new(timed_catalog(&["R", "S", "T"], 60), &spec).unwrap();
        let mut sem = JiscSemantics::default();
        for &(s, k, p) in &events[..250] {
            serial.push_with(&mut sem, StreamId(s), k, p).unwrap();
        }
        jisc_transition(&mut serial, &new_spec).unwrap();
        for &(s, k, p) in &events[250..] {
            serial.push_with(&mut sem, StreamId(s), k, p).unwrap();
        }
        for n in [1, 2, 4] {
            let mut exec = ShardedExecutor::spawn_with(
                timed_catalog(&["R", "S", "T"], 60),
                &spec,
                config(n, 64),
            )
            .unwrap();
            for &(s, k, p) in &events[..250] {
                exec.push(StreamId(s), k, p).unwrap();
            }
            exec.transition(&new_spec).unwrap();
            for &(s, k, p) in &events[250..] {
                exec.push(StreamId(s), k, p).unwrap();
            }
            let report = exec.finish().unwrap();
            assert_eq!(report.transitions, 1);
            assert_eq!(
                report.output.lineage_multiset(),
                serial.output.lineage_multiset(),
                "shards={n}"
            );
            assert_eq!(
                report.incomplete_states, 0,
                "completion must finish draining"
            );
        }
    }

    #[test]
    fn theta_plans_fall_back_to_serial() {
        let catalog = timed_catalog(&["R", "S"], 50);
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Nlj(Predicate::BandWithin(2)));
        let exec = ShardedExecutor::spawn_with(
            catalog,
            &spec,
            ShardedConfig {
                strategy: ShardStrategy::Pipelined,
                ..config(4, 32)
            },
        )
        .unwrap();
        assert_eq!(exec.shards(), 1, "band joins are not key-partitionable");
        let report = exec.finish().unwrap();
        assert_eq!(report.events, 0);
    }

    #[test]
    fn count_windows_report_inexact() {
        let catalog = Catalog::uniform(&["R", "S"], 10).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let exec = ShardedExecutor::spawn_with(catalog, &spec, config(4, 32)).unwrap();
        assert_eq!(exec.shards(), 4);
        assert_eq!(
            exec.exactness(),
            Exactness::ApproximateCountWindows,
            "per-shard count-window quotas are approximate"
        );
        assert!(!exec.is_exact());
    }

    #[test]
    fn default_shards_track_available_parallelism() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(ShardedConfig::default().shards, cores);
        assert_eq!(ShardedConfig::default_shards(), cores);
        // Explicit requests clamp through the helper but are never raised.
        assert_eq!(ShardedConfig::capped_shards(0), 1);
        assert_eq!(ShardedConfig::capped_shards(1), 1);
        assert_eq!(ShardedConfig::capped_shards(cores), cores);
        assert_eq!(ShardedConfig::capped_shards(cores + 8), cores);
        // Explicit shard counts passed to spawn are honored as given, so
        // tests and experiments can still deliberately oversubscribe.
        let catalog = Catalog::uniform(&["R", "S"], 10).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let exec = ShardedExecutor::spawn_with(catalog, &spec, config(3, 32)).unwrap();
        assert_eq!(exec.shards(), 3);
    }

    #[test]
    fn default_semantics_rejects_transitions() {
        let catalog = timed_catalog(&["R", "S"], 50);
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let mut exec = ShardedExecutor::spawn_with(
            catalog,
            &spec,
            ShardedConfig {
                strategy: ShardStrategy::Pipelined,
                ..config(2, 32)
            },
        )
        .unwrap();
        let swapped = PlanSpec::left_deep(&["S", "R"], JoinStyle::Hash);
        assert!(exec.transition(&swapped).is_err());
        exec.finish().unwrap();
    }

    // --- supervision and recovery ---

    fn fault_free_reference(
        spec: &PlanSpec,
        events: &[(u16, Key, u64)],
        shards: usize,
    ) -> ShardedReport {
        let mut exec = ShardedExecutor::spawn_with(
            timed_catalog(&["R", "S", "T"], 40),
            spec,
            config(shards, 64),
        )
        .unwrap();
        for &(s, k, p) in events {
            exec.push(StreamId(s), k, p).unwrap();
        }
        exec.finish().unwrap()
    }

    fn supervised_run(
        spec: &PlanSpec,
        events: &[(u16, Key, u64)],
        config: ShardedConfig,
    ) -> Result<ShardedReport> {
        let mut exec =
            ShardedExecutor::spawn_with(timed_catalog(&["R", "S", "T"], 40), spec, config)?;
        for &(s, k, p) in events {
            exec.push(StreamId(s), k, p)?;
        }
        exec.finish()
    }

    #[test]
    fn worker_panic_is_recovered_and_output_matches_fault_free() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let reference = fault_free_reference(&spec, &events, 2);
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                checkpoint_every: 100,
                faults: FaultPlan::new().panic_at(0, 150),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].shard, 0);
        assert!(report.faults[0].payload.contains("injected panic"));
        assert!(report.checkpoints > 0, "checkpoint cadence must fire");
        assert!(report.replayed_tuples > 0, "recovery replays a suffix");
        assert!(
            report.replayed_tuples < report.events,
            "checkpoints bound the replay suffix"
        );
        assert_eq!(
            report.output.lineage_multiset(),
            reference.output.lineage_multiset(),
            "recovered run must match the fault-free lineage multiset"
        );
    }

    #[test]
    fn recovery_without_checkpoints_replays_full_history() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(400, 3, 11);
        let reference = fault_free_reference(&spec, &events, 2);
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                checkpoint_every: 0,
                faults: FaultPlan::new().panic_at(1, 120),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.checkpoints, 0);
        assert_eq!(
            report.output.lineage_multiset(),
            reference.output.lineage_multiset()
        );
    }

    #[test]
    fn panic_during_replay_recovers_again_under_the_cap() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(500, 3, 13);
        let reference = fault_free_reference(&spec, &events, 2);
        // Two faults on the same shard: the second trips during the first
        // recovery's replay (full-history replay re-crosses position 130).
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                checkpoint_every: 0,
                faults: FaultPlan::new().panic_at(0, 110).panic_at(0, 130),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.recoveries, 2);
        assert_eq!(report.faults.len(), 2);
        assert_eq!(
            report.output.lineage_multiset(),
            reference.output.lineage_multiset()
        );
    }

    #[test]
    fn max_recoveries_exhaustion_surfaces_worker_panic() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(500, 3, 13);
        let err = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                checkpoint_every: 0,
                max_recoveries: 1,
                faults: FaultPlan::new().panic_at(0, 110).panic_at(0, 130),
                ..ShardedConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, JiscError::WorkerPanic { shard: 0, .. }),
            "expected WorkerPanic, got {err:?}"
        );
    }

    #[test]
    fn dropped_batch_fault_loses_tuples_but_run_survives() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let reference = fault_free_reference(&spec, &events, 2);
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                faults: FaultPlan::new().drop_batch_at(0, 150),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.recoveries, 0, "a dropped batch is not a crash");
        assert!(
            report.outputs < reference.outputs,
            "dropped tuples must lose some results"
        );
    }

    #[test]
    fn delayed_worker_changes_nothing_but_wall_time() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(300, 3, 11);
        let reference = fault_free_reference(&spec, &events, 2);
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                faults: FaultPlan::new().delay_at(0, 60, 30).delay_at(1, 60, 30),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.recoveries, 0);
        assert_eq!(
            report.output.lineage_multiset(),
            reference.output.lineage_multiset()
        );
    }

    #[test]
    fn recovery_spans_plan_transitions() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let new_spec = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        let events = arrivals(500, 3, 13);
        // Fault-free sharded reference with the same mid-stream migration.
        let run = |config: ShardedConfig| {
            let mut exec =
                ShardedExecutor::spawn_with(timed_catalog(&["R", "S", "T"], 60), &spec, config)
                    .unwrap();
            for &(s, k, p) in &events[..250] {
                exec.push(StreamId(s), k, p).unwrap();
            }
            exec.transition(&new_spec).unwrap();
            for &(s, k, p) in &events[250..] {
                exec.push(StreamId(s), k, p).unwrap();
            }
            exec.finish().unwrap()
        };
        let reference = run(ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        });
        // Crash after the barrier, recover from a pre-barrier position
        // (full-history replay re-runs the barrier itself).
        let report = run(ShardedConfig {
            shards: 2,
            checkpoint_every: 0,
            faults: FaultPlan::new().panic_at(0, 170),
            ..ShardedConfig::default()
        });
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.transitions, 1);
        assert_eq!(
            report.output.lineage_multiset(),
            reference.output.lineage_multiset()
        );
    }

    #[test]
    fn shed_policy_drops_data_batches_when_a_worker_stalls() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(900, 3, 17);
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                queue_capacity: 1,
                overload: OverloadPolicy::Shed,
                faults: FaultPlan::new().delay_at(0, 10, 150).delay_at(1, 10, 150),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert!(report.shed_tuples > 0, "stalled workers must shed load");
        assert_eq!(report.recoveries, 0);
    }

    // --- elastic rescaling ---

    #[test]
    fn live_split_matches_serial_and_migrates_state() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        let mut exec =
            ShardedExecutor::spawn_with(timed_catalog(&["R", "S", "T"], 40), &spec, config(2, 64))
                .unwrap();
        for &(s, k, p) in &events[..300] {
            exec.push(StreamId(s), k, p).unwrap();
        }
        let target = exec.split_hot_key(3).unwrap();
        assert_eq!(target, 2, "fresh shard id past the spawn-time bound");
        assert_eq!(exec.partition_map().epoch(), 1);
        assert_eq!(exec.partition_map().shard_for_key(3), target);
        for &(s, k, p) in &events[300..] {
            exec.push(StreamId(s), k, p).unwrap();
        }
        let report = exec.finish().unwrap();
        assert_eq!(report.rescales, 1);
        assert_eq!(report.partition_epoch, 1);
        assert!(
            report.migrated_tuples > 0,
            "key 3 had window state to hand over"
        );
        assert_eq!(report.shard_events.len(), 3);
        assert!(report.shard_events[2] > 0, "post-split arrivals rerouted");
        assert_eq!(
            report.output.lineage_multiset(),
            serial.output.lineage_multiset(),
            "a live split must not change the output"
        );
        assert_eq!(report.incomplete_states, 0, "handover debt fully drained");
        let footer = report.footer();
        assert!(footer.contains("rescales 1"), "footer: {footer}");
        assert!(footer.contains("shard 2:"), "footer: {footer}");
    }

    /// The acceptance property: every strategy survives a mid-stream split,
    /// scale-up, and scale-down — with one concurrent injected fault — and
    /// still produces the fixed-shard serial lineage multiset.
    #[test]
    fn splits_merges_and_a_fault_match_serial_for_all_strategies() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(900, 3, 17);
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        let reference = serial.output.lineage_multiset();
        for strategy in [
            ShardStrategy::Pipelined,
            ShardStrategy::Jisc,
            ShardStrategy::MovingState,
            ShardStrategy::ParallelTrack { check_period: 10 },
        ] {
            for faults in [FaultPlan::new(), FaultPlan::new().panic_at(0, 500)] {
                let faulted = !faults.is_empty();
                let mut exec = ShardedExecutor::spawn_with(
                    timed_catalog(&["R", "S", "T"], 40),
                    &spec,
                    ShardedConfig {
                        strategy,
                        shards: 2,
                        queue_capacity: 64,
                        checkpoint_every: 128,
                        faults,
                        ..ShardedConfig::default()
                    },
                )
                .unwrap();
                for &(s, k, p) in &events[..300] {
                    exec.push(StreamId(s), k, p).unwrap();
                }
                let split_target = exec.split_hot_key(3).unwrap();
                for &(s, k, p) in &events[300..500] {
                    exec.push(StreamId(s), k, p).unwrap();
                }
                let up_target = exec.scale_up().unwrap();
                assert_ne!(split_target, up_target, "shard ids are never reused");
                for &(s, k, p) in &events[500..700] {
                    exec.push(StreamId(s), k, p).unwrap();
                }
                // Scale back down: merge the scale-up shard away again.
                let live = exec.live_shards();
                assert!(live.contains(&up_target));
                let into = *live.iter().find(|&&s| s != up_target).unwrap();
                exec.scale_down(up_target, into).unwrap();
                assert!(!exec.live_shards().contains(&up_target));
                for &(s, k, p) in &events[700..] {
                    exec.push(StreamId(s), k, p).unwrap();
                }
                let report = exec.finish().unwrap();
                assert_eq!(report.rescales, 3, "{strategy:?}");
                assert_eq!(report.partition_epoch, 3, "{strategy:?}");
                assert!(report.migrated_tuples > 0, "{strategy:?}");
                if faulted {
                    assert!(report.recoveries >= 1, "{strategy:?} fault must recover");
                }
                assert_eq!(
                    report.output.lineage_multiset(),
                    reference,
                    "{strategy:?} faulted={faulted}: rescaled run diverged from serial"
                );
            }
        }
    }

    #[test]
    fn repartition_events_survive_checkpoint_and_replay() {
        // A worker that crashes *after* an epoch cut must re-apply the
        // Event::Repartition from its replay buffer (checkpoint-less full
        // replay) or resume beyond it (post-rescale checkpoint) — either
        // way the restored shard must agree with the router about range
        // ownership, or routed keys would silently miss their state.
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        for checkpoint_every in [0u64, 96] {
            let mut exec = ShardedExecutor::spawn_with(
                timed_catalog(&["R", "S", "T"], 40),
                &spec,
                ShardedConfig {
                    shards: 2,
                    queue_capacity: 64,
                    checkpoint_every,
                    // Shard 0 crosses local position 200 well after the
                    // split at global position 300: the panic lands in the
                    // post-rescale suffix.
                    faults: FaultPlan::new().panic_at(0, 200),
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            for &(s, k, p) in &events[..300] {
                exec.push(StreamId(s), k, p).unwrap();
            }
            exec.split_hot_key(3).unwrap();
            for &(s, k, p) in &events[300..] {
                exec.push(StreamId(s), k, p).unwrap();
            }
            let report = exec.finish().unwrap();
            assert!(
                report.recoveries >= 1,
                "ckpt {checkpoint_every}: the scripted post-rescale panic must fire"
            );
            assert!(report.replayed_events > 0);
            assert_eq!(report.rescales, 1);
            assert_eq!(report.partition_epoch, 1);
            assert_eq!(
                report.output.lineage_multiset(),
                serial.output.lineage_multiset(),
                "ckpt {checkpoint_every}: recovery across the epoch cut diverged"
            );
        }
    }

    #[test]
    fn rescale_recovers_a_worker_that_dies_on_the_rescales_own_flush() {
        // Regression: a panic landing on the very batch `apply_map`'s
        // flush_all pushes kills the export *source* before the export
        // wait loop starts. Its fault message can be consumed by an
        // earlier `poll_ctrl` (which records faults but does not
        // recover), and nothing else sends to a shard while the router
        // waits for its export — only the wait loop's health sweep
        // brings the source back to serve the handshake. Without the
        // sweep this test deadlocks whenever the worker's fault loses
        // the race with the export send.
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let hot = 3u64;
        let owner = PartitionMap::uniform(2).shard_for_key(hot);
        let events: Vec<(u16, Key, u64)> = (0..200u64).map(|i| ((i % 3) as u16, hot, i)).collect();
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        let mut exec = ShardedExecutor::spawn_with(
            timed_catalog(&["R", "S", "T"], 40),
            &spec,
            ShardedConfig {
                shards: 2,
                queue_capacity: 64,
                // Every tuple routes to `owner` (one hot key); batches of
                // 64 flush at positions 64 and 128, so the staged 2-tuple
                // batch covering positions 129..=130 is delivered by the
                // rescale's own flush — and dies there.
                faults: FaultPlan::new().panic_at(owner, 130),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        for &(s, k, p) in &events[..130] {
            exec.push(StreamId(s), k, p).unwrap();
        }
        let target = exec.split_hot_key(hot).unwrap();
        assert_eq!(target, 2, "split spawns a fresh shard");
        for &(s, k, p) in &events[130..] {
            exec.push(StreamId(s), k, p).unwrap();
        }
        let report = exec.finish().unwrap();
        assert!(
            report.recoveries >= 1,
            "the flush-batch panic must fire and recover"
        );
        assert_eq!(report.rescales, 1);
        assert_eq!(
            report.output.lineage_multiset(),
            serial.output.lineage_multiset(),
            "recovery inside the rescale handshake diverged"
        );
    }

    #[test]
    fn rescale_composes_with_plan_transition() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let new_spec = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        let events = arrivals(600, 3, 13);
        // Serial reference with the same mid-stream migration.
        let mut serial = Pipeline::new(timed_catalog(&["R", "S", "T"], 60), &spec).unwrap();
        let mut sem = JiscSemantics::default();
        for &(s, k, p) in &events[..200] {
            serial.push_with(&mut sem, StreamId(s), k, p).unwrap();
        }
        jisc_transition(&mut serial, &new_spec).unwrap();
        for &(s, k, p) in &events[200..] {
            serial.push_with(&mut sem, StreamId(s), k, p).unwrap();
        }
        let mut exec =
            ShardedExecutor::spawn_with(timed_catalog(&["R", "S", "T"], 60), &spec, config(2, 64))
                .unwrap();
        for &(s, k, p) in &events[..200] {
            exec.push(StreamId(s), k, p).unwrap();
        }
        exec.transition(&new_spec).unwrap();
        for &(s, k, p) in &events[200..400] {
            exec.push(StreamId(s), k, p).unwrap();
        }
        // Split after the transition: the new shard spawns on the *new*
        // plan and receives its state slice against it.
        exec.split_hot_key(5).unwrap();
        for &(s, k, p) in &events[400..] {
            exec.push(StreamId(s), k, p).unwrap();
        }
        let report = exec.finish().unwrap();
        assert_eq!(report.transitions, 1);
        assert_eq!(report.rescales, 1);
        assert_eq!(
            report.output.lineage_multiset(),
            serial.output.lineage_multiset()
        );
    }

    #[test]
    fn rescale_gates_reject_unsound_maps() {
        // Count windows: per-shard quotas make a handover unsound.
        let catalog = Catalog::uniform(&["R", "S"], 10).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let mut exec = ShardedExecutor::spawn_with(catalog, &spec, config(2, 32)).unwrap();
        assert!(exec.split_hot_key(3).is_err());
        exec.finish().unwrap();

        // Epoch discipline: a stale or skipping epoch is rejected.
        let mut exec =
            ShardedExecutor::spawn_with(timed_catalog(&["R", "S"], 50), &spec, config(2, 32))
                .unwrap();
        let same_epoch = PartitionMap::uniform(2);
        assert!(exec.apply_map(same_epoch).is_err(), "epoch must advance");
        let (skipped, _) = exec.partition_map().split_key(1, None).0.split_key(2, None);
        assert!(exec.apply_map(skipped).is_err(), "epoch must not skip");

        // Retired ids are never reused: merging ranges back onto a retired
        // shard is refused.
        let target = exec.split_hot_key(7).unwrap();
        exec.scale_down(target, 0).unwrap(); // retires `target`
        let back = exec.partition_map().split_key(7, Some(target)).0;
        assert!(
            exec.apply_map(back).is_err(),
            "a retired shard id must not be resurrected"
        );
        exec.finish().unwrap();
    }

    #[test]
    fn for_shards_caps_aggregate_replay_budget() {
        let cores = ShardedConfig::default_shards() as u64;
        assert_eq!(ShardedConfig::for_shards(1).checkpoint_every, 1024);
        assert_eq!(
            ShardedConfig::default().checkpoint_every,
            1024,
            "default (shards == cores) keeps the historical interval"
        );
        // Oversubscribing shards shrinks the per-shard interval so the
        // aggregate `shards × checkpoint_every` budget does not balloon.
        let over = ShardedConfig::for_shards(cores as usize * 4);
        assert_eq!(over.checkpoint_every, 1024 / 4);
        let extreme = ShardedConfig::for_shards(cores as usize * 1024);
        assert_eq!(extreme.checkpoint_every, 128, "floor keeps cadence sane");
    }

    #[test]
    fn timeout_policy_surfaces_send_timeout() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(900, 3, 17);
        let err = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                queue_capacity: 1,
                overload: OverloadPolicy::Timeout(Duration::from_millis(5)),
                faults: FaultPlan::new().delay_at(0, 10, 400).delay_at(1, 10, 400),
                ..ShardedConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, JiscError::SendTimeout { .. }),
            "expected SendTimeout, got {err:?}"
        );
    }

    #[test]
    fn duplicate_and_reordered_deliveries_are_healed() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                queue_capacity: 64,
                faults: FaultPlan::new()
                    .duplicate_at(0, 50)
                    .duplicate_at(1, 80)
                    .reorder_at(0, 150)
                    .reorder_at(1, 200),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.faults.len(), 0, "misdeliveries are not crashes");
        assert_eq!(report.dup_deliveries_dropped, 2, "both duplicates dropped");
        assert_eq!(report.reorders_healed, 2, "both reorders healed");
        assert_eq!(
            report.output.lineage_multiset(),
            serial.output.lineage_multiset(),
            "guarded misdeliveries must not change the output"
        );
    }

    #[test]
    fn misdeliveries_compose_with_crash_recovery() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                queue_capacity: 64,
                checkpoint_every: 128,
                faults: FaultPlan::new()
                    .duplicate_at(0, 40)
                    .reorder_at(1, 60)
                    .panic_at(0, 120)
                    .panic_at(1, 150),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.recoveries, 2);
        assert_eq!(
            report.output.lineage_multiset(),
            serial.output.lineage_multiset(),
            "crashes layered on misdeliveries must still converge"
        );
    }

    // --- event time: watermarks, lateness, latency ---

    #[test]
    fn aligned_watermarks_drive_expiry_without_changing_lineage() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        let mut exec = ShardedExecutor::spawn_with(
            timed_catalog(&["R", "S", "T"], 40),
            &spec,
            ShardedConfig {
                shards: 4,
                queue_capacity: 64,
                watermark_every: 64,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        for &(s, k, p) in &events {
            exec.push(StreamId(s), k, p).unwrap();
        }
        let report = exec.finish().unwrap();
        assert!(
            report.watermark > 0,
            "600 arrivals at cadence 64 must broadcast watermarks"
        );
        for (s, &wm) in report.watermarks_by_shard.iter().enumerate() {
            assert_eq!(wm, report.watermark, "shard {s} missed the broadcast");
        }
        assert_eq!(report.dropped_late, 0);
        assert_eq!(
            report.output.lineage_multiset(),
            serial.output.lineage_multiset(),
            "watermark sweeps must expire exactly what arrival-driven sweeps do"
        );
    }

    #[test]
    fn lateness_gate_restores_bounded_disorder_to_serial_lineage() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        // In-order reference: ts = arrival index.
        let events = arrivals(600, 3, 17);
        let serial = serial_run(timed_catalog(&["R", "S", "T"], 40), &spec, &events);
        // Bounded disorder: reverse each 8-block (observed lateness <= 7).
        let mut scrambled: Vec<(usize, (u16, Key, u64))> =
            events.iter().copied().enumerate().collect();
        for chunk in scrambled.chunks_mut(8) {
            chunk.reverse();
        }
        let mut exec = ShardedExecutor::spawn_with(
            timed_catalog(&["R", "S", "T"], 40),
            &spec,
            ShardedConfig {
                shards: 4,
                queue_capacity: 64,
                lateness: Some(LatenessPolicy::AdmitWithinBound { bound: 8 }),
                watermark_every: 100,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        for &(ts, (s, k, p)) in &scrambled {
            exec.push_at(StreamId(s), k, p, ts as u64).unwrap();
        }
        // A straggler far beyond the bound: dropped and accounted, never an
        // error, never silently lost.
        exec.push_at(StreamId(0), 3, 9999, 5).unwrap();
        let report = exec.finish().unwrap();
        assert_eq!(report.events, 600, "all bounded-late tuples admitted");
        assert_eq!(report.dropped_late, 1, "the straggler is accounted");
        assert_eq!(
            report.events + report.dropped_late,
            601,
            "ingested + dropped_late covers everything offered"
        );
        assert!(report.late_admitted > 0, "the scramble had late arrivals");
        assert_eq!(
            report.output.lineage_multiset(),
            serial.output.lineage_multiset(),
            "gated disorder must be lineage-equal to the in-order serial run"
        );
    }

    #[test]
    fn latency_is_always_recorded_into_bounded_histograms() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                queue_capacity: 64,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        // Always on: every routed tuple lands in the histogram, no knob.
        assert_eq!(report.latency.count(), 600);
        assert_eq!(
            report.latency_by_phase.len(),
            1,
            "no classifier: everything is phase 0"
        );
        assert_eq!(report.latency_by_phase[0].0, 0);
        assert_eq!(report.latency_by_phase[0].1.count(), 600);
        assert!(report.latency.quantile(0.5) <= report.latency.quantile(0.99));
        assert!(report.latency.quantile(0.999) <= report.latency.max_bound());
        assert!(report.footer().contains("latency: count=600"));

        // Under a mid-stream fault, tuples the dead incarnation applied
        // are lost with its registry; replayed tuples are re-recorded by
        // the successor (with recovery-inclusive latency). Never
        // double-counted, never more than offered.
        let report = supervised_run(
            &spec,
            &events,
            ShardedConfig {
                shards: 2,
                queue_capacity: 64,
                checkpoint_every: 128,
                faults: FaultPlan::new().panic_at(0, 100),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.recoveries, 1);
        let n = report.latency.count();
        assert!(0 < n && n <= 600, "recovered run keeps a subset, got {n}");
    }

    #[test]
    fn phase_classifier_splits_latency_histograms() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(600, 3, 17);
        let mut exec = ShardedExecutor::spawn_with(
            timed_catalog(&["R", "S", "T"], 40),
            &spec,
            ShardedConfig {
                shards: 2,
                queue_capacity: 64,
                phase: Some(PhaseClassifier::new(|ts| u32::from(ts >= 300))),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        for &(s, k, p) in &events {
            exec.push(StreamId(s), k, p).unwrap();
        }
        let report = exec.finish().unwrap();
        let phases: Vec<u32> = report.latency_by_phase.iter().map(|&(p, _)| p).collect();
        assert_eq!(phases, vec![0, 1], "both phases observed");
        // `push` stamps ts = arrival index, and the router cuts staged
        // batches at the phase boundary, so the split is exact.
        assert_eq!(report.latency_by_phase[0].1.count(), 300);
        assert_eq!(report.latency_by_phase[1].1.count(), 300);
        assert_eq!(report.latency.count(), 600);
    }

    // --- memory-budgeted tiered state + durable checkpoints ---

    #[test]
    fn spilled_sharded_run_matches_unbounded_output() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(900, 3, 23);
        let unbounded = fault_free_reference(&spec, &events, 2);
        let scratch = jisc_engine::ScratchDir::new("shard-spill");
        let mut exec = ShardedExecutor::spawn_with(
            timed_catalog(&["R", "S", "T"], 40),
            &spec,
            ShardedConfig {
                shards: 2,
                queue_capacity: 64,
                spill: Some(SpillSettings {
                    budget_bytes: 2048,
                    dir: scratch.path().to_path_buf(),
                }),
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        for &(s, k, p) in &events {
            exec.push(StreamId(s), k, p).unwrap();
        }
        let report = exec.finish().unwrap();
        assert!(
            report.metrics.spill_evictions > 0,
            "a 2 KiB budget per shard must evict: {:?}",
            report.metrics
        );
        assert!(
            report.metrics.spill_faults > 0,
            "probes of evicted keys must fault back"
        );
        assert_eq!(
            report.output.lineage_multiset(),
            unbounded.output.lineage_multiset(),
            "tiering is a storage decision, not a semantic one"
        );
    }

    #[test]
    fn durable_checkpoints_recover_across_executor_restarts() {
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(900, 3, 17);
        let scratch = jisc_engine::ScratchDir::new("shard-durable");
        // checkpoint_every=1 marks a checkpoint after every flushed batch,
        // so the final durable snapshot covers the whole first-run prefix.
        let durable_cfg = || ShardedConfig {
            shards: 1,
            queue_capacity: 64,
            checkpoint_every: 1,
            durable_dir: Some(scratch.path().to_path_buf()),
            ..ShardedConfig::default()
        };
        let mut first =
            ShardedExecutor::spawn_with(timed_catalog(&["R", "S", "T"], 40), &spec, durable_cfg())
                .unwrap();
        for &(s, k, p) in &events[..600] {
            first.push(StreamId(s), k, p).unwrap();
        }
        let ra = first.finish().unwrap();
        assert!(ra.checkpoints > 0, "durable snapshots were persisted");
        let manifest = DurableCheckpointStore::manifest_path(&scratch.path().join("shard-0"));
        assert!(manifest.exists(), "manifest on disk: {manifest:?}");
        // "Process restart": a brand-new executor over the same directory
        // recovers the newest snapshot (manifest chain verified) and its
        // clocks resume past the recovered prefix.
        let mut second =
            ShardedExecutor::spawn_with(timed_catalog(&["R", "S", "T"], 40), &spec, durable_cfg())
                .unwrap();
        for &(s, k, p) in &events[600..] {
            second.push(StreamId(s), k, p).unwrap();
        }
        let rb = second.finish().unwrap();
        // Reference: one uninterrupted run of the full arrival sequence.
        let full = fault_free_reference(&spec, &events, 1);
        let mut resumed = ra.output.lineage_multiset();
        for (lineage, n) in rb.output.lineage_multiset() {
            *resumed.entry(lineage).or_insert(0) += n;
        }
        assert_eq!(
            resumed,
            full.output.lineage_multiset(),
            "restart output must compose lineage-exactly with the prefix"
        );
    }

    #[test]
    fn crash_after_durable_restart_keeps_recovered_state() {
        // A restarted executor's shard faults before taking its first
        // checkpoint: recovery must rebuild it from the durable snapshot
        // it was restored from, not from an empty engine (which would
        // silently lose every result joining pre-restart window state).
        let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let events = arrivals(900, 3, 17);
        let scratch = jisc_engine::ScratchDir::new("shard-durable-crash");
        let durable = |checkpoint_every, faults| ShardedConfig {
            checkpoint_every,
            faults,
            durable_dir: Some(scratch.path().to_path_buf()),
            ..config(1, 64)
        };
        let mut first = ShardedExecutor::spawn_with(
            timed_catalog(&["R", "S", "T"], 40),
            &spec,
            durable(1, FaultPlan::new()),
        )
        .unwrap();
        for &(s, k, p) in &events[..600] {
            first.push(StreamId(s), k, p).unwrap();
        }
        let ra = first.finish().unwrap();
        // No checkpoint lands before the fault at tuple 10.
        let mut second = ShardedExecutor::spawn_with(
            timed_catalog(&["R", "S", "T"], 40),
            &spec,
            durable(1024, FaultPlan::new().panic_at(0, 10)),
        )
        .unwrap();
        for &(s, k, p) in &events[600..] {
            second.push(StreamId(s), k, p).unwrap();
        }
        let rb = second.finish().unwrap();
        assert_eq!(rb.recoveries, 1, "the scripted fault must fire");
        let full = fault_free_reference(&spec, &events, 1);
        let mut resumed = ra.output.lineage_multiset();
        for (lineage, n) in rb.output.lineage_multiset() {
            *resumed.entry(lineage).or_insert(0) += n;
        }
        assert_eq!(
            resumed,
            full.output.lineage_multiset(),
            "recovery after a durable restart lost the restored state"
        );
    }

    #[test]
    fn corrupt_durable_manifest_is_rejected_at_spawn() {
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let scratch = jisc_engine::ScratchDir::new("shard-durable-corrupt");
        let cfg = || ShardedConfig {
            shards: 1,
            queue_capacity: 32,
            checkpoint_every: 1,
            durable_dir: Some(scratch.path().to_path_buf()),
            ..ShardedConfig::default()
        };
        let mut exec =
            ShardedExecutor::spawn_with(timed_catalog(&["R", "S"], 40), &spec, cfg()).unwrap();
        for i in 0..200u64 {
            exec.push(StreamId((i % 2) as u16), i % 7, i).unwrap();
        }
        exec.finish().unwrap();
        // Flip one byte in the manifest: recovery must refuse, never
        // silently fall back to an empty store.
        let manifest = DurableCheckpointStore::manifest_path(&scratch.path().join("shard-0"));
        let mut bytes = std::fs::read(&manifest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&manifest, &bytes).unwrap();
        let err = ShardedExecutor::spawn_with(timed_catalog(&["R", "S"], 40), &spec, cfg());
        assert!(err.is_err(), "flipped manifest byte must fail recovery");
    }
}
