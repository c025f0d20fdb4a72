//! Threaded streaming drivers for the JISC engine.
//!
//! The core engine is deliberately synchronous and deterministic (that is
//! what makes the paper's correctness theorems testable bit-for-bit). Real
//! deployments want producers decoupled from the engine: this crate runs
//! an [`jisc_core::AdaptiveEngine`] on its own thread behind a bounded
//! channel carrying the unified in-band [`Event`] stream — data batches,
//! expiry watermarks, migration barriers, and flush punctuation all share
//! one FIFO, so control takes effect at an exact position in the stream.
//! A lock-protected stats mirror provides cheap observability. For
//! scale-up, the [`shard`] module adds a key-partitioned parallel executor
//! ([`ShardedExecutor`]) that runs one pipeline per worker thread over the
//! same event model.
//!
//! ```
//! use jisc_core::Strategy;
//! use jisc_engine::{Catalog, JoinStyle, PlanSpec};
//! use jisc_runtime::StreamDriver;
//! use jisc_common::{ColumnarBatch, StreamId};
//!
//! let catalog = Catalog::uniform(&["R", "S"], 100).unwrap();
//! let plan = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
//! let driver = StreamDriver::spawn(catalog, &plan, Strategy::Jisc, 256).unwrap();
//!
//! let tx = driver.sender();
//! let mut batch = ColumnarBatch::new(64);
//! batch.push(StreamId(0), 7, 0).unwrap();
//! batch.push(StreamId(1), 7, 0).unwrap();
//! tx.send_columnar(batch).unwrap();
//! drop(tx); // close our handle; the driver drains what was sent
//!
//! let report = driver.shutdown().unwrap();
//! assert_eq!(report.outputs, 1);
//! ```

pub mod chan;
pub mod fault;
pub mod shard;
pub(crate) mod supervisor;

pub use fault::{FaultAction, FaultPlan};
pub use shard::{
    Exactness, OverloadPolicy, PhaseClassifier, ShardSemantics, ShardStrategy, ShardedConfig,
    ShardedExecutor, ShardedReport, SpillSettings,
};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use jisc_common::{BatchedTuple, Event, WorkerFault};
use jisc_common::{ColumnarBatch, JiscError, Key, Metrics, Result, StreamId};
use jisc_core::{AdaptiveEngine, Strategy};
use jisc_engine::{Catalog, PlanSpec};
use jisc_optimizer::stats::DEFAULT_SUGGESTED_BATCH;
use jisc_optimizer::SelectivityEstimator;

/// EWMA smoothing for the driver's own selectivity estimator (feeds
/// [`Snapshot::suggested_batch_size`]).
const ESTIMATOR_ALPHA: f64 = 0.2;

/// Default bound on [`StreamDriver::shutdown`]'s join.
const DEFAULT_SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(30);

/// What flows to the engine thread: in-band events and driver control
/// share one queue, so each takes effect exactly at its position in the
/// stream.
// Channel messages are moved one at a time; see `Event` for why the batch
// variants stay unboxed.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Msg {
    Event(Event<PlanSpec>),
    Snapshot(chan::Sender<Snapshot>),
    Stop,
}

/// A point-in-time view of the running engine.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Arrivals processed so far.
    pub events: u64,
    /// Results emitted so far.
    pub outputs: u64,
    /// Plans currently executing (Parallel Track may run several).
    pub active_plans: usize,
    /// States currently incomplete (JISC only).
    pub incomplete_states: usize,
    /// Batch cut size the engine thread's EWMA selectivity stats currently
    /// call for (see [`SelectivityEstimator::suggest_batch_size`]).
    pub suggested_batch_size: usize,
    /// Full execution counters.
    pub metrics: Metrics,
}

/// Final report returned by [`StreamDriver::shutdown`].
#[derive(Debug)]
pub struct Report {
    /// Arrivals processed (tuples, summed over batches).
    pub events: u64,
    /// Results emitted.
    pub outputs: u64,
    /// Migration barriers applied.
    pub transitions: u64,
    /// Execution counters.
    pub metrics: Metrics,
    /// The engine itself, for post-mortem inspection of output/state.
    pub engine: AdaptiveEngine,
}

/// Cloneable producer handle for a [`StreamDriver`].
#[derive(Debug, Clone)]
pub struct EventSender {
    tx: chan::Sender<Msg>,
}

impl EventSender {
    /// Enqueue one in-band event; blocks when the driver's queue is full
    /// (backpressure). Fails if the engine thread is gone.
    pub fn send(&self, ev: Event<PlanSpec>) -> Result<()> {
        self.tx
            .send(Msg::Event(ev))
            .map_err(|_| JiscError::Internal("engine thread is gone".into()))
    }

    /// Non-blocking enqueue: [`JiscError::QueueFull`] when the driver is
    /// backed up, instead of blocking the producer.
    pub fn try_send(&self, ev: Event<PlanSpec>) -> Result<()> {
        self.tx.try_send(Msg::Event(ev)).map_err(|e| match e {
            chan::TrySendError::Full(_) => JiscError::QueueFull("driver event queue".into()),
            chan::TrySendError::Disconnected(_) => {
                JiscError::Internal("engine thread is gone".into())
            }
        })
    }

    /// Enqueue with bounded blocking: [`JiscError::SendTimeout`] if the
    /// driver does not drain within `timeout`.
    pub fn send_timeout(&self, ev: Event<PlanSpec>, timeout: Duration) -> Result<()> {
        self.tx
            .send_timeout(Msg::Event(ev), timeout)
            .map_err(|e| match e {
                chan::SendTimeoutError::Timeout(_) => JiscError::SendTimeout {
                    millis: timeout.as_millis() as u64,
                },
                chan::SendTimeoutError::Disconnected(_) => {
                    JiscError::Internal("engine thread is gone".into())
                }
            })
    }

    /// Enqueue a whole columnar batch, cut exactly as the producer built
    /// it.
    pub fn send_columnar(&self, batch: ColumnarBatch) -> Result<()> {
        self.send(Event::Columnar(batch))
    }

    /// Convenience: enqueue one arrival as a batch of one.
    pub fn send_tuple(&self, stream: u16, key: Key, payload: u64) -> Result<()> {
        let mut batch = ColumnarBatch::new(1);
        batch
            .push(StreamId(stream), key, payload)
            .expect("an empty batch has room for one row");
        self.send_columnar(batch)
    }
}

/// What the engine thread hands back: a clean report, or a structured
/// fault if an event panicked or errored (the loop runs under
/// `catch_unwind`, so the unwind never crosses into the runtime).
#[derive(Debug)]
enum DriverOutcome {
    Clean(Box<Report>),
    Faulted(WorkerFault),
}

/// Handle to an engine running on its own thread.
#[derive(Debug)]
pub struct StreamDriver {
    tx: chan::Sender<Msg>,
    worker: JoinHandle<DriverOutcome>,
    mirror: Arc<RwLock<Snapshot>>,
}

impl StreamDriver {
    /// Spawn the engine thread. `queue_capacity` bounds the shared queue —
    /// producers block when the engine falls behind (backpressure rather
    /// than load shedding, which the paper treats as orthogonal, §2.1).
    pub fn spawn(
        catalog: Catalog,
        plan: &PlanSpec,
        strategy: Strategy,
        queue_capacity: usize,
    ) -> Result<Self> {
        let engine = AdaptiveEngine::new(catalog, plan, strategy)?;
        let (tx, rx) = chan::bounded::<Msg>(queue_capacity.max(1));
        let mirror = Arc::new(RwLock::new(Snapshot {
            events: 0,
            outputs: 0,
            active_plans: 1,
            incomplete_states: 0,
            suggested_batch_size: DEFAULT_SUGGESTED_BATCH,
            metrics: Metrics::new(),
        }));
        let mirror_w = Arc::clone(&mirror);
        let worker = std::thread::Builder::new()
            .name("jisc-engine".into())
            .spawn(move || worker_loop(engine, rx, mirror_w))
            .expect("spawn engine thread");
        Ok(StreamDriver { tx, worker, mirror })
    }

    /// A cloneable producer handle (multiple producer threads supported).
    pub fn sender(&self) -> EventSender {
        EventSender {
            tx: self.tx.clone(),
        }
    }

    /// Batch cut size the engine's EWMA selectivity stats currently call
    /// for (cheap mirror read; [`DEFAULT_SUGGESTED_BATCH`] until primed).
    pub fn suggested_batch_size(&self) -> usize {
        self.peek().suggested_batch_size.max(1)
    }

    /// Enqueue a data batch, auto-cutting it at the batch size the engine
    /// thread's selectivity stats suggest (read once per call): match-heavy
    /// workloads get small cuts (bounding the quadratic intra-batch pairing
    /// term), selective ones get large cuts that amortize per-batch
    /// overhead. Batches at or under the suggested size ship unchanged;
    /// oversized ones are split into suggested-size chunks (arrival order,
    /// pinned timestamps and sequence numbers preserved; payloads travel as
    /// opaque values, so a blob arena does not follow its rows into the
    /// chunks). Producers who want exact control over cut points should use
    /// [`EventSender::send_columnar`] instead.
    pub fn send_batch(&self, batch: ColumnarBatch) -> Result<()> {
        let cut = self.suggested_batch_size();
        if batch.len() <= cut {
            return self.send_event(Event::Columnar(batch));
        }
        let mut chunk = ColumnarBatch::new(cut);
        for i in 0..batch.len() {
            let t = batch.row(i);
            chunk
                .push_stamped(t.stream, t.key, t.payload, t.ts, t.seq)
                .expect("chunk is shipped before it fills");
            if chunk.is_full() {
                let full = std::mem::replace(&mut chunk, ColumnarBatch::new(cut));
                self.send_event(Event::Columnar(full))?;
            }
        }
        if !chunk.is_empty() {
            self.send_event(Event::Columnar(chunk))?;
        }
        Ok(())
    }

    fn send_event(&self, ev: Event<PlanSpec>) -> Result<()> {
        self.tx
            .send(Msg::Event(ev))
            .map_err(|_| JiscError::Internal("engine thread is gone".into()))
    }

    /// Request a plan migration as an in-band [`Event::MigrationBarrier`].
    /// The barrier shares the data queue, so it lands at a well-defined
    /// arrival boundary; the engine's own buffer-clearing phase (§4.1)
    /// keeps it correct wherever it lands in the stream.
    pub fn transition(&self, plan: PlanSpec) -> Result<()> {
        self.tx
            .send(Msg::Event(Event::MigrationBarrier(plan)))
            .map_err(|_| JiscError::Internal("engine thread is gone".into()))
    }

    /// Synchronous snapshot via round-trip to the engine thread (the reply
    /// comes after everything already queued has been processed).
    pub fn snapshot(&self) -> Result<Snapshot> {
        let (reply_tx, reply_rx) = chan::bounded(1);
        self.tx
            .send(Msg::Snapshot(reply_tx))
            .map_err(|_| JiscError::Internal("engine thread is gone".into()))?;
        reply_rx
            .recv()
            .map_err(|_| JiscError::Internal("engine thread is gone".into()))
    }

    /// Cheap, possibly slightly stale view (no thread round-trip): the
    /// worker refreshes this mirror periodically. A poisoned mirror (a
    /// reader or writer panicked mid-clone) is recovered, not propagated —
    /// the snapshot is plain data, valid whether or not the poisoner
    /// finished.
    pub fn peek(&self) -> Snapshot {
        self.mirror
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Stop the engine after draining already-queued events and return the
    /// final report. Bounded: equivalent to [`StreamDriver::shutdown_timeout`]
    /// with a 30-second cap.
    pub fn shutdown(self) -> Result<Report> {
        self.shutdown_timeout(DEFAULT_SHUTDOWN_TIMEOUT)
    }

    /// Stop the engine, waiting at most `timeout` for it to drain.
    ///
    /// Distinguishes the failure modes the old unbounded join conflated:
    /// [`JiscError::WorkerPanic`] carries the panic payload (or engine
    /// error) of a dead engine thread, while [`JiscError::ShutdownTimeout`]
    /// means the thread is still live but wedged — in that case it is
    /// leaked (detached), never blocked on forever.
    pub fn shutdown_timeout(self, timeout: Duration) -> Result<Report> {
        let _ = self.tx.send(Msg::Stop);
        drop(self.tx);
        let deadline = Instant::now() + timeout;
        while !self.worker.is_finished() {
            if Instant::now() >= deadline {
                return Err(JiscError::ShutdownTimeout {
                    millis: timeout.as_millis() as u64,
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match self.worker.join() {
            Ok(DriverOutcome::Clean(report)) => Ok(*report),
            Ok(DriverOutcome::Faulted(f)) => Err(JiscError::WorkerPanic {
                shard: f.shard,
                payload: f.payload,
            }),
            // The unwind escaped the supervised loop (should not happen).
            Err(payload) => Err(JiscError::WorkerPanic {
                shard: 0,
                payload: fault::payload_string(payload.as_ref()),
            }),
        }
    }
}

fn worker_loop(
    mut engine: AdaptiveEngine,
    rx: chan::Receiver<Msg>,
    mirror: Arc<RwLock<Snapshot>>,
) -> DriverOutcome {
    let mut events = 0u64;
    let mut transitions = 0u64;
    // The driver watches its own stream selectivities so producers can ask
    // it (via the mirror) what batch cut size the workload calls for.
    let mut est = SelectivityEstimator::new(engine.catalog().len(), ESTIMATOR_ALPHA);
    let mut arrivals = vec![0u64; engine.catalog().len()];
    loop {
        match rx.recv() {
            Ok(Msg::Event(ev)) => {
                let (batch_len, is_barrier) = match &ev {
                    Event::Columnar(b) => (b.len() as u64, false),
                    Event::MigrationBarrier(_) => (0, true),
                    Event::Expiry(_)
                    | Event::Watermark(_)
                    | Event::Flush
                    | Event::Repartition(_) => (0, false),
                };
                arrivals.iter_mut().for_each(|c| *c = 0);
                // Out-of-range stream ids are left uncounted; the engine
                // rejects them below and the loop faults out anyway.
                if let Event::Columnar(b) = &ev {
                    for s in b.streams() {
                        if let Some(c) = arrivals.get_mut(s.0 as usize) {
                            *c += 1;
                        }
                    }
                }
                let out_before = engine.metrics().tuples_out;
                // Supervised application: a panic (or engine error) becomes
                // a structured fault instead of unwinding into the runtime
                // and poisoning the stats mirror.
                let failure = match catch_unwind(AssertUnwindSafe(|| engine.on_event(ev))) {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(e.to_string()),
                    Err(payload) => Some(fault::payload_string(payload.as_ref())),
                };
                if let Some(payload) = failure {
                    return DriverOutcome::Faulted(WorkerFault {
                        shard: 0,
                        payload,
                        last_seq: events,
                        tuples: events,
                    });
                }
                // Attribute this event's output to its streams pro rata —
                // the batch is the observation unit, not the tuple. A
                // stream with arrivals implies a non-empty batch.
                let produced = engine.metrics().tuples_out - out_before;
                for (i, &a) in arrivals.iter().enumerate() {
                    if a > 0 {
                        est.observe_batch(StreamId(i as u16), a, produced * a / batch_len);
                    }
                }
                // Refresh the mirror whenever the event count crosses a
                // multiple of 1024 — batches of any length cross it, where
                // landing exactly on one is luck.
                let crossed = (events + batch_len) / 1024 != events / 1024;
                events += batch_len;
                transitions += u64::from(is_barrier);
                if crossed {
                    refresh(&mirror, &engine, events, est.suggest_batch_size());
                }
            }
            Ok(Msg::Snapshot(reply)) => {
                let _ = reply.send(snapshot_of(&engine, events, est.suggest_batch_size()));
            }
            // Stop drains nothing further: everything queued before it has
            // already been handled (single FIFO). A receive error means all
            // producers and the driver are gone — same thing.
            Ok(Msg::Stop) | Err(_) => break,
        }
    }
    refresh(&mirror, &engine, events, est.suggest_batch_size());
    let m = engine.metrics();
    DriverOutcome::Clean(Box::new(Report {
        events,
        outputs: m.tuples_out,
        transitions,
        metrics: m,
        engine,
    }))
}

fn snapshot_of(engine: &AdaptiveEngine, events: u64, suggested_batch_size: usize) -> Snapshot {
    let metrics = engine.metrics();
    Snapshot {
        events,
        outputs: metrics.tuples_out,
        active_plans: engine.active_plans(),
        incomplete_states: engine.incomplete_states(),
        suggested_batch_size,
        metrics,
    }
}

fn refresh(
    mirror: &Arc<RwLock<Snapshot>>,
    engine: &AdaptiveEngine,
    events: u64,
    suggested_batch_size: usize,
) {
    // Recover a poisoned mirror: the replacement value is built fresh, so
    // whatever half-state the poisoner left is overwritten wholesale.
    *mirror.write().unwrap_or_else(|e| e.into_inner()) =
        snapshot_of(engine, events, suggested_batch_size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_engine::JoinStyle;

    fn driver(streams: &[&str], window: usize, cap: usize) -> StreamDriver {
        let catalog = Catalog::uniform(streams, window).unwrap();
        let plan = PlanSpec::left_deep(streams, JoinStyle::Hash);
        StreamDriver::spawn(catalog, &plan, Strategy::Jisc, cap).unwrap()
    }

    #[test]
    fn batched_producer_matches_synchronous_run() {
        let events: Vec<(u16, Key, u64)> = (0..500).map(|i| ((i % 3) as u16, i % 11, i)).collect();
        // synchronous per-tuple reference
        let catalog = Catalog::uniform(&["R", "S", "T"], 50).unwrap();
        let plan = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let mut sync = AdaptiveEngine::new(catalog, &plan, Strategy::Jisc).unwrap();
        for &(s, k, p) in &events {
            sync.push(StreamId(s), k, p).unwrap();
        }
        // threaded run over batches of 64
        let d = driver(&["R", "S", "T"], 50, 64);
        let tx = d.sender();
        let mut batch = ColumnarBatch::new(64);
        for &(s, k, p) in &events {
            batch.push(StreamId(s), k, p).unwrap();
            if batch.is_full() {
                tx.send_columnar(std::mem::replace(&mut batch, ColumnarBatch::new(64)))
                    .unwrap();
            }
        }
        if !batch.is_empty() {
            tx.send_columnar(batch).unwrap();
        }
        drop(tx);
        let report = d.shutdown().unwrap();
        assert_eq!(report.events, 500);
        assert_eq!(report.outputs, sync.output().count() as u64);
        assert_eq!(
            report.engine.output().lineage_multiset(),
            sync.output().lineage_multiset()
        );
    }

    #[test]
    fn driver_send_batch_recuts_to_suggested_size() {
        let events: Vec<(u16, Key, u64)> = (0..4_000).map(|i| ((i % 2) as u16, i % 5, i)).collect();
        // synchronous per-tuple reference
        let catalog = Catalog::uniform(&["R", "S"], 50).unwrap();
        let plan = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let mut sync = AdaptiveEngine::new(catalog, &plan, Strategy::Jisc).unwrap();
        for &(s, k, p) in &events {
            sync.push(StreamId(s), k, p).unwrap();
        }

        let d = driver(&["R", "S"], 50, 64);
        let tx = d.sender();
        // Prime the estimator, then check the suggestion is sane (the
        // snapshot round-trips through the engine thread, so it reflects
        // everything sent so far).
        for &(s, k, p) in &events[..512] {
            tx.send_tuple(s, k, p).unwrap();
        }
        let suggested = d.snapshot().unwrap().suggested_batch_size;
        assert!(suggested.is_power_of_two(), "suggested={suggested}");
        assert!((16..=1024).contains(&suggested), "suggested={suggested}");
        // Five keys over a 50-tuple window match nearly every arrival, so
        // the quadratic pairing guard should pull the cut below the default.
        assert!(suggested < 256, "match-heavy workload, got {suggested}");

        // One producer batch far above the suggestion: the driver re-cuts.
        let rest = &events[512..];
        let mut big = ColumnarBatch::new(rest.len());
        for &(s, k, p) in rest {
            big.push(StreamId(s), k, p).unwrap();
        }
        d.send_batch(big).unwrap();
        drop(tx);
        let report = d.shutdown().unwrap();
        assert_eq!(report.events, events.len() as u64);
        assert_eq!(
            report.engine.output().lineage_multiset(),
            sync.output().lineage_multiset()
        );
    }

    #[test]
    fn transition_requests_are_processed_in_stream_order() {
        let d = driver(&["R", "S", "T"], 100, 16);
        let tx = d.sender();
        for i in 0..200u64 {
            tx.send_tuple((i % 3) as u16, i % 7, 0).unwrap();
        }
        let new_plan = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        d.transition(new_plan).unwrap();
        for i in 0..200u64 {
            tx.send_tuple((i % 3) as u16, i % 7, 0).unwrap();
        }
        drop(tx);
        let report = d.shutdown().unwrap();
        assert_eq!(report.transitions, 1);
        assert!(report.engine.output().is_duplicate_free());
        assert!(report.outputs > 0);
    }

    #[test]
    fn snapshot_and_peek_report_progress() {
        let d = driver(&["R", "S"], 50, 8);
        let tx = d.sender();
        for i in 0..2_000u64 {
            tx.send_tuple((i % 2) as u16, i % 5, 0).unwrap();
        }
        let snap = d.snapshot().unwrap();
        assert!(snap.events > 0);
        assert_eq!(snap.active_plans, 1);
        let peek = d.peek();
        assert!(peek.events <= snap.events + 2_000);
        drop(tx);
        let report = d.shutdown().unwrap();
        assert_eq!(report.events, 2_000);
    }

    /// 25 batches of 100 never land the event count on a multiple of 1024,
    /// so a refresh rule that waits for one never fires and `peek()` stays
    /// at the spawn-time view while the engine is 2,500 arrivals in.
    #[test]
    fn peek_refreshes_when_batches_straddle_the_refresh_grid() {
        let d = driver(&["R", "S"], 50, 64);
        let tx = d.sender();
        for b in 0..25u64 {
            let mut batch = ColumnarBatch::new(100);
            for i in 0..100u64 {
                batch
                    .push(StreamId((i % 2) as u16), i % 5, b * 100 + i)
                    .unwrap();
            }
            tx.send_columnar(batch).unwrap();
        }
        let snap = d.snapshot().unwrap();
        assert_eq!(snap.events, 2_500);
        let peek = d.peek();
        assert!(
            (2_048..=snap.events).contains(&peek.events),
            "mirror is stale: peek {} vs snapshot {}",
            peek.events,
            snap.events
        );
        drop(tx);
        d.shutdown().unwrap();
    }

    #[test]
    fn multiple_producers_preserve_invariants() {
        let d = driver(&["R", "S", "T"], 30, 32);
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let tx = d.sender();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    tx.send_tuple(((p + i) % 3) as u16, (p * 37 + i) % 9, p * 1_000 + i)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = d.shutdown().unwrap();
        assert_eq!(report.events, 2_000);
        assert!(report.engine.output().is_duplicate_free());
    }

    #[test]
    fn engine_fault_surfaces_as_worker_panic_from_shutdown() {
        let d = driver(&["R", "S"], 50, 16);
        let tx = d.sender();
        tx.send_tuple(0, 1, 0).unwrap();
        // Unknown stream: the engine rejects the event, which the
        // supervised loop reports as a structured fault.
        tx.send_tuple(99, 1, 0).unwrap();
        drop(tx);
        let err = d.shutdown().unwrap_err();
        match err {
            JiscError::WorkerPanic { shard, payload } => {
                assert_eq!(shard, 0);
                assert!(payload.contains("stream"), "payload: {payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn sends_after_engine_death_fail_instead_of_hanging() {
        let d = driver(&["R", "S"], 50, 4);
        let tx = d.sender();
        tx.send_tuple(99, 1, 0).unwrap(); // kills the engine thread
        let mut dead = false;
        for i in 0..10_000u64 {
            if tx.send_tuple((i % 2) as u16, i % 5, 0).is_err() {
                dead = true;
                break;
            }
        }
        assert!(dead, "sends to a dead engine must error, not hang");
        assert!(d.shutdown().is_err());
    }

    #[test]
    fn try_send_and_send_timeout_bound_backpressure() {
        let d = driver(&["R", "S", "T"], 50, 1);
        let tx = d.sender();
        // A capacity-1 queue against real join work per tuple backs up
        // almost immediately; loop until the bounded sends observe it.
        let mut saw_full = false;
        let mut saw_timeout = false;
        for i in 0..200_000u64 {
            let mk = || {
                let mut b = ColumnarBatch::new(1);
                b.push(StreamId((i % 3) as u16), i % 7, 0).unwrap();
                Event::Columnar(b)
            };
            if !saw_full {
                match tx.try_send(mk()) {
                    Err(JiscError::QueueFull(_)) => saw_full = true,
                    other => other.unwrap(),
                }
            } else {
                match tx.send_timeout(mk(), Duration::ZERO) {
                    Err(JiscError::SendTimeout { millis: 0 }) => {
                        saw_timeout = true;
                        break;
                    }
                    other => other.unwrap(),
                }
            }
        }
        assert!(saw_full, "try_send never observed a full queue");
        assert!(saw_timeout, "send_timeout never expired");
        drop(tx);
        d.shutdown().unwrap();
    }

    #[test]
    fn flush_punctuation_is_accepted_in_band() {
        let d = driver(&["R", "S"], 50, 16);
        let tx = d.sender();
        for i in 0..100u64 {
            tx.send_tuple((i % 2) as u16, i % 5, 0).unwrap();
        }
        tx.send(Event::Flush).unwrap();
        drop(tx);
        let report = d.shutdown().unwrap();
        assert_eq!(report.events, 100);
        assert!(report.outputs > 0);
    }
}
