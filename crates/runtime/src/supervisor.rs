//! Supervised shard workers: catch panics, checkpoint, report faults.
//!
//! Every shard worker drives one [`AdaptiveEngine`] running its
//! [`ShardStrategy`]'s core strategy, so a shard applies events, migrates,
//! checkpoints, restores and hands key ranges over through the same engine
//! a serial caller uses.
//!
//! Every shard thread runs its event loop under `catch_unwind`. A panic (or
//! an engine error) does not unwind into the runtime: the worker reports a
//! structured [`WorkerFault`] on a dedicated control channel and exits,
//! discarding its partial output — the router recovers the shard from its
//! last checkpoint plus a bounded replay buffer, which regenerates exactly
//! the outputs the failed incarnation had produced since that checkpoint.
//!
//! Checkpoints are requested by the router as in-band [`ShardMsg::Checkpoint`]
//! marks, so they land at an exact position in the shard's event stream.
//! A checkpoint captures only *base* state (`BaseStateSnapshot`) plus the
//! output produced so far; derived join states are rebuilt at recovery via
//! the JISC state-completion machinery (`jisc_core::recovery`).
//!
//! Event accounting is positional: a worker counts every event it receives
//! — including batches a scripted fault drops — so the `covered` count in a
//! checkpoint always aligns with the router's per-shard sent count, and
//! replay after recovery neither skips nor double-processes an event.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use jisc_common::{Event, KeyRange, Metrics, SeqNo, WorkerFault};
use jisc_core::{AdaptiveEngine, Strategy};
use jisc_engine::{BaseRangeExport, BaseStateSnapshot, OutputSink, PlanSpec};
use jisc_telemetry::{FlightRecorder, Histogram, Registry};
use serde::{Deserialize, Serialize};

use crate::chan;
use crate::fault::{inject_panic, payload_string, FaultInjector, Triggered};

/// Which engine each shard runs — the four migration strategies of the
/// paper's experimental section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Plain pipelined execution; plan transitions are rejected.
    Pipelined,
    /// Just-in-time state completion; transitions broadcast as barriers.
    #[default]
    Jisc,
    /// Eager halt-and-rebuild migration (§3.2).
    MovingState,
    /// Old and new plans in parallel with duplicate elimination (§3.3).
    ParallelTrack {
        /// Arrivals between old-plan discard sweeps.
        check_period: u64,
    },
}

impl ShardStrategy {
    /// The `jisc-core` strategy each shard engine runs. Plain pipelined
    /// shards run the Moving State engine — plain semantics, eager restore
    /// and install — which never sees a barrier because the router refuses
    /// their transitions.
    pub fn core_strategy(self) -> Strategy {
        match self {
            ShardStrategy::Pipelined | ShardStrategy::MovingState => Strategy::MovingState,
            ShardStrategy::Jisc => Strategy::Jisc,
            ShardStrategy::ParallelTrack { check_period } => {
                Strategy::ParallelTrack { check_period }
            }
        }
    }

    /// Whether in-band migration barriers are accepted.
    pub fn supports_transitions(self) -> bool {
        !matches!(self, ShardStrategy::Pipelined)
    }
}

/// What flows router → worker: in-band events plus checkpoint marks.
// Channel messages are moved one at a time; see `Event` for why the batch
// variants stay unboxed.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum ShardMsg {
    /// One element of the unified event stream.
    Event(Event<PlanSpec>),
    /// Take a checkpoint now (at this exact stream position).
    Checkpoint,
    /// Extract the state slice for `ranges` (handed over to shard `to`
    /// under partition epoch `epoch`) and ship it back to the router.
    /// Positional: lands at an exact point in the shard's event stream, so
    /// a replayed incarnation re-extracts deterministically.
    ExportRange {
        epoch: u64,
        to: usize,
        ranges: Vec<KeyRange>,
    },
    /// Install a state slice exported by another shard. Shared (`Arc`) so
    /// the router's replay buffer does not deep-copy the window slice.
    InstallRange(Arc<RangeInstall>),
}

/// An extracted state slice en route to its new owner, tagged with the
/// partition epoch that moved it.
#[derive(Debug)]
pub(crate) struct RangeInstall {
    #[allow(dead_code)] // epoch is diagnostic; dedup happens router-side
    pub epoch: u64,
    pub export: BaseRangeExport,
}

/// A completed checkpoint, shipped worker → router.
#[derive(Debug)]
pub(crate) struct CheckpointData {
    pub shard: usize,
    /// Events fully processed when the checkpoint was taken (positional).
    pub covered: u64,
    /// Tuples seen when the checkpoint was taken (fault-clock continuity).
    pub tuples: u64,
    /// The plan active at the checkpoint.
    pub spec: PlanSpec,
    /// Base state; `None` when the engine could not snapshot (e.g. a
    /// Parallel Track migration still running retiring plans).
    pub snapshot: Option<BaseStateSnapshot>,
    /// Output drained at the checkpoint (only when `snapshot` is `Some`,
    /// so saved output and saved state always agree).
    pub output: Option<OutputSink>,
    /// Cumulative state probes at the checkpoint (elastic-controller feed).
    pub probes: u64,
}

/// Worker → router control messages.
#[derive(Debug)]
pub(crate) enum ToRouter {
    Fault(WorkerFault),
    Checkpoint(CheckpointData),
    /// Reply to [`ShardMsg::ExportRange`]: the extracted slice, ready to
    /// forward to shard `to`. Boxed — it carries a window's worth of state.
    RangeExport {
        shard: usize,
        epoch: u64,
        to: usize,
        export: Box<BaseRangeExport>,
    },
}

/// Final state a worker hands back on clean exit. Latency and counter
/// telemetry is not here: the router holds a clone of the incarnation's
/// [`Registry`] and samples it directly.
#[derive(Debug)]
pub(crate) struct ShardResult {
    pub output: OutputSink,
    pub metrics: Metrics,
    pub incomplete_states: usize,
    /// Duplicate deliveries the worker's guard dropped by sequence number.
    pub dup_deliveries_dropped: u64,
    /// Reordered deliveries healed back into sequence order.
    pub reorders_healed: u64,
}

/// Per-incarnation telemetry bundle: the shard's metric registry (the
/// router keeps a clone and samples it live), the run-wide flight
/// recorder (its origin instant doubles as the epoch for ingest
/// stamps), and cached latency-histogram handles so the per-batch hot
/// path never takes the registry lock.
pub(crate) struct WorkerTelemetry {
    pub registry: Registry,
    pub flight: FlightRecorder,
    /// Phase id → histogram handle. Phases are a handful of small ints;
    /// a linear scan beats hashing at this size.
    hists: Vec<(u32, Histogram)>,
}

impl WorkerTelemetry {
    pub fn new(registry: Registry, flight: FlightRecorder) -> Self {
        WorkerTelemetry {
            registry,
            flight,
            hists: Vec::new(),
        }
    }

    /// Registry histogram name for a traffic phase. Phase 0 is the
    /// whole-run default; a router phase classifier splits further
    /// phases (e.g. steady vs burst) into suffixed histograms.
    pub fn latency_name(phase: u32) -> String {
        if phase == 0 {
            "ingest_latency_ns".to_string()
        } else {
            format!("ingest_latency_ns_phase{phase}")
        }
    }

    /// Inverse of [`WorkerTelemetry::latency_name`]: the phase id if
    /// `name` is a latency histogram, `None` otherwise.
    pub fn latency_phase_of(name: &str) -> Option<u32> {
        if name == "ingest_latency_ns" {
            return Some(0);
        }
        name.strip_prefix("ingest_latency_ns_phase")?.parse().ok()
    }

    /// Records `n` tuples applied `ns` after their ingest stamp.
    fn record_latency(&mut self, phase: u32, ns: u64, n: u64) {
        if let Some((_, h)) = self.hists.iter().find(|(p, _)| *p == phase) {
            h.record_n(ns, n);
            return;
        }
        let h = self.registry.histogram(&Self::latency_name(phase));
        h.record_n(ns, n);
        self.hists.push((phase, h));
    }
}

/// Mirrors the engine's cumulative counters — every [`Metrics`] field, the
/// spill tier's gauges and the running pipeline's columnar kernel costs —
/// into the incarnation's registry. `store` semantics: the engine holds the
/// running totals, the registry exposes them. Called at checkpoint marks and
/// clean exit, so the registry tracks the engine at every durable point
/// without per-tuple overhead.
fn sync_telemetry(engine: &AdaptiveEngine, registry: &Registry) {
    engine
        .metrics()
        .for_each_named(|name, v| registry.counter(name).store(v));
    if let Some(cold) = engine.spill_stats() {
        // Tier occupancy gauges: hot is an estimate (entry-count ×
        // per-entry cost model), cold is exact sealed-file bytes —
        // together the soak's hot+cold byte accounting.
        for (name, v) in [
            ("spill_hot_bytes", engine.hot_bytes() as f64),
            ("spill_cold_bytes", cold.disk_bytes as f64),
            ("spill_cold_entries", cold.entries as f64),
            ("spill_cold_segments", cold.segments as f64),
        ] {
            registry.gauge(name).set(v);
        }
    }
    if let Some(pipe) = engine.pipeline().filter(|p| p.kernels.any()) {
        pipe.kernels.for_each_named(|name, c| {
            let counter = |unit: &str| registry.counter(&format!("kernel_{name}_{unit}"));
            counter("elements").store(c.elements);
            counter("nanos").store(c.nanos);
        });
    }
}

/// Per-incarnation worker context.
pub(crate) struct WorkerCtx {
    pub shard: usize,
    /// Positional event index to resume from (checkpoint `covered`).
    pub start_index: u64,
    /// Cumulative tuple count to resume from (fault-clock continuity).
    pub start_tuples: u64,
    /// Plan active at spawn (checkpoint spec, or the initial plan).
    pub spec: PlanSpec,
    pub injector: Arc<FaultInjector>,
    pub ctrl: chan::Sender<ToRouter>,
    /// This incarnation's registry + the run's shared flight recorder.
    pub telemetry: WorkerTelemetry,
}

/// Report a structured fault to the router (best-effort; the router may be
/// gone during teardown).
fn fault(ctx: &WorkerCtx, payload: String, last_seq: u64, tuples: u64) {
    let _ = ctx.ctrl.send(ToRouter::Fault(WorkerFault {
        shard: ctx.shard,
        payload,
        last_seq,
        tuples,
    }));
}

/// The supervised event loop. Returns `Some(result)` on clean queue close;
/// `None` after reporting a fault (the partial output is deliberately
/// dropped — replay after recovery regenerates it exactly once).
/// Worker-side misdelivery defense: drops duplicate deliveries by sequence
/// number and counts reordered deliveries healed back into order. Within
/// one incarnation the router's seqs are strictly increasing, so a data
/// event whose highest seq does not exceed the highest already applied can
/// only be a re-delivery.
#[derive(Debug, Default)]
struct DeliveryGuard {
    last_seq: Option<SeqNo>,
    dup_dropped: u64,
    reorders_healed: u64,
}

/// One data-plane delivery on its way into the engine.
struct Delivery {
    ev: Event<PlanSpec>,
    batch_len: u64,
    /// The router's `(origin_ns, phase)` ingest stamp, recorded into the
    /// phase's latency histogram if the apply succeeds. `None` for
    /// synthesized duplicates — the original delivery already measured.
    stamp: Option<(u64, u32)>,
    /// Router-sent events advance the positional clocks; duplicates the
    /// fault injector synthesizes do not (the router sent them once).
    positional: bool,
    /// Inject a scripted panic while this delivery is applied.
    panic: bool,
}

/// Highest router-stamped sequence number carried by a data event.
fn max_seq(ev: &Event<PlanSpec>) -> Option<SeqNo> {
    match ev {
        Event::Columnar(b) => (0..b.len()).filter_map(|i| b.seq_at(i)).max(),
        _ => None,
    }
}

/// Apply one delivery to the engine under the guard. `Err(payload)` means
/// the incarnation must die (the caller reports the fault).
fn apply_delivery(
    engine: &mut AdaptiveEngine,
    ctx: &mut WorkerCtx,
    guard: &mut DeliveryGuard,
    d: Delivery,
    index: &mut u64,
    tuples: &mut u64,
) -> std::result::Result<(), String> {
    let Delivery {
        ev,
        batch_len,
        stamp,
        positional,
        panic,
    } = d;
    let seq = max_seq(&ev);
    if let (Some(seq), Some(last)) = (seq, guard.last_seq) {
        if seq <= last {
            // A delivery the engine already applied: drop it. Router-sent
            // events are strictly increasing, so this is never positional.
            guard.dup_dropped += 1;
            if positional {
                *index += 1;
                *tuples += batch_len;
            }
            return Ok(());
        }
    }
    let is_barrier = matches!(ev, Event::MigrationBarrier(_));
    let barrier_spec = match &ev {
        Event::MigrationBarrier(spec) => Some(spec.clone()),
        _ => None,
    };
    let shard = ctx.shard;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if panic {
            inject_panic(shard);
        }
        engine.on_event(ev)
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(e.to_string()),
        Err(payload) => return Err(payload_string(payload.as_ref())),
    }
    if is_barrier {
        // Commit the spec only after the barrier applied successfully,
        // so checkpoints always name the plan actually running.
        ctx.spec = barrier_spec.expect("barrier carries a spec");
    }
    if let Some(seq) = seq {
        guard.last_seq = Some(guard.last_seq.map_or(seq, |l| l.max(seq)));
    }
    if let Some((origin_ns, phase)) = stamp {
        // Ingest-to-apply latency, one O(1) record per batch. A replayed
        // batch keeps its original stamp, so latency measured across a
        // recovery includes the recovery itself.
        let now_ns = ctx.telemetry.flight.origin().elapsed().as_nanos() as u64;
        ctx.telemetry
            .record_latency(phase, now_ns.saturating_sub(origin_ns), batch_len);
    }
    if positional {
        *index += 1;
        *tuples += batch_len;
    }
    Ok(())
}

pub(crate) fn worker_loop(
    mut engine: AdaptiveEngine,
    rx: chan::Receiver<ShardMsg>,
    mut ctx: WorkerCtx,
) -> Option<ShardResult> {
    let mut index = ctx.start_index;
    let mut tuples = ctx.start_tuples;
    let incarnation_start = tuples;
    let mut guard = DeliveryGuard::default();
    // A reordered delivery in flight: the transport holds it until the
    // next data event would overtake it (or the stream demands order —
    // punctuation, checkpoint marks, rescale traffic, stream end).
    let mut held: Option<Delivery> = None;
    macro_rules! drain_held {
        () => {
            if let Some(h) = held.take() {
                guard.reorders_healed += 1;
                if let Err(payload) = apply_delivery(
                    &mut engine,
                    &mut ctx,
                    &mut guard,
                    h,
                    &mut index,
                    &mut tuples,
                ) {
                    fault(&ctx, payload, index, tuples - incarnation_start);
                    return None;
                }
            }
        };
    }
    while let Ok(msg) = rx.recv() {
        let ev = match msg {
            ShardMsg::Event(ev) => ev,
            ShardMsg::Checkpoint => {
                // A held delivery precedes the mark: `covered` must count
                // every event the router sent before it.
                drain_held!();
                let snapshot = engine.base_snapshot();
                // Drain output ONLY alongside a successful snapshot: saved
                // output and saved state must describe the same prefix, or
                // recovery from an older snapshot would double-emit.
                let output = snapshot.is_some().then(|| engine.take_output());
                // Mirror the engine's counters at the durable point: if
                // this incarnation later dies, its registry is replaced
                // and these totals are what survives it.
                sync_telemetry(&engine, &ctx.telemetry.registry);
                let _ = ctx.ctrl.send(ToRouter::Checkpoint(CheckpointData {
                    shard: ctx.shard,
                    covered: index,
                    tuples,
                    spec: ctx.spec.clone(),
                    snapshot,
                    output,
                    probes: engine.metrics().probes,
                }));
                continue;
            }
            ShardMsg::ExportRange { epoch, to, ranges } => {
                // Rescale traffic demands order: release any held delivery
                // first, then extract.
                drain_held!();
                // Positional, like a data event: a replayed incarnation
                // reaches the same stream position and re-extracts the same
                // slice (the router dedups the duplicate reply).
                let outcome = catch_unwind(AssertUnwindSafe(|| engine.extract_range(&ranges)));
                match outcome {
                    Ok(Ok(export)) => {
                        let _ = ctx.ctrl.send(ToRouter::RangeExport {
                            shard: ctx.shard,
                            epoch,
                            to,
                            export: Box::new(export),
                        });
                        index += 1;
                        continue;
                    }
                    Ok(Err(e)) => {
                        fault(&ctx, e.to_string(), index, tuples - incarnation_start);
                        return None;
                    }
                    Err(payload) => {
                        fault(
                            &ctx,
                            payload_string(payload.as_ref()),
                            index,
                            tuples - incarnation_start,
                        );
                        return None;
                    }
                }
            }
            ShardMsg::InstallRange(install) => {
                drain_held!();
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| engine.install_range(&install.export)));
                match outcome {
                    Ok(Ok(())) => {
                        index += 1;
                        continue;
                    }
                    Ok(Err(e)) => {
                        fault(&ctx, e.to_string(), index, tuples - incarnation_start);
                        return None;
                    }
                    Err(payload) => {
                        fault(
                            &ctx,
                            payload_string(payload.as_ref()),
                            index,
                            tuples - incarnation_start,
                        );
                        return None;
                    }
                }
            }
        };
        let batch_len = match &ev {
            Event::Columnar(b) => b.len() as u64,
            _ => 0,
        };
        // Lift the router's ingest stamp off the batch before the event
        // moves into the engine; the latency is recorded only if the
        // apply succeeds (a faulted event's latency is regenerated by
        // replay).
        let stamp = match &ev {
            Event::Columnar(b) => b.origin_ns().map(|o| (o, b.phase())),
            _ => None,
        };
        let injected = ctx.injector.trigger(ctx.shard, &ev, tuples);
        if let Some(Triggered::DelayMillis(ms)) = injected {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if let Some(Triggered::DropBatch) = injected {
            // Positional accounting: a dropped event still advances both
            // clocks, keeping checkpoint/replay alignment intact.
            index += 1;
            tuples += batch_len;
            continue;
        }
        if !matches!(ev, Event::Columnar(_)) {
            // Punctuation and control traffic never overtake data: a held
            // delivery is released before them. (The injector only trips
            // on data events, so `injected` is None here.)
            drain_held!();
        }
        if matches!(injected, Some(Triggered::Reorder)) && held.is_none() {
            // The transport holds this delivery back; it arrives after the
            // next data event (where the guard heals the swap).
            held = Some(Delivery {
                ev,
                batch_len,
                stamp,
                positional: true,
                panic: false,
            });
            continue;
        }
        // A data event arriving while one is held overtakes it on the
        // wire; the guard re-applies them in sequence order.
        if matches!(ev, Event::Columnar(_)) {
            drain_held!();
        }
        // Synthesize the re-delivery only for seq-stamped events — without
        // seqs the guard could not tell it from fresh data.
        let duplicate = (matches!(injected, Some(Triggered::Duplicate)) && max_seq(&ev).is_some())
            .then(|| Delivery {
                ev: ev.clone(),
                batch_len,
                stamp: None,
                positional: false,
                panic: false,
            });
        let d = Delivery {
            ev,
            batch_len,
            stamp,
            positional: true,
            panic: matches!(injected, Some(Triggered::Panic)),
        };
        if let Err(payload) = apply_delivery(
            &mut engine,
            &mut ctx,
            &mut guard,
            d,
            &mut index,
            &mut tuples,
        ) {
            fault(&ctx, payload, index, tuples - incarnation_start);
            return None;
        }
        if let Some(dup) = duplicate {
            // Re-delivery of an already-applied event: the guard must drop
            // it by seq without touching the engine or the clocks.
            if let Err(payload) = apply_delivery(
                &mut engine,
                &mut ctx,
                &mut guard,
                dup,
                &mut index,
                &mut tuples,
            ) {
                fault(&ctx, payload, index, tuples - incarnation_start);
                return None;
            }
        }
    }
    // Stream end: anything still held is released before the snapshot.
    drain_held!();
    // Final mirror: the registry the router holds now equals this
    // incarnation's final counters exactly.
    sync_telemetry(&engine, &ctx.telemetry.registry);
    Some(ShardResult {
        metrics: engine.metrics(),
        incomplete_states: engine.incomplete_states(),
        output: engine.take_output(),
        dup_deliveries_dropped: guard.dup_dropped,
        reorders_healed: guard.reorders_healed,
    })
}
