//! Deterministic fault injection for the supervised runtime.
//!
//! A [`FaultPlan`] scripts failures against specific shards at specific
//! points in the tuple stream: a panic mid-event, a stalled worker, or a
//! silently dropped batch. Workers consult their shared [`FaultInjector`]
//! before processing each data-plane event; a triggered fault is *disarmed*
//! (one-shot), so a respawned worker replaying the same input does not
//! re-fail. This makes recovery tests deterministic: the fault fires at an
//! exact stream position, the supervisor recovers, and the output can be
//! compared against a fault-free run.
//!
//! Injection is always compiled in (the checks are two relaxed atomics deep
//! when no plan is armed); the `fault-injection` cargo feature only gates
//! the heavyweight property-test suite.

use std::any::Any;
use std::sync::{Mutex, Once};

use jisc_common::{ColumnarBatch, Event};

/// One scripted fault. `at` positions are expressed in *tuples routed to
/// the shard so far*: the fault fires on the data event during which the
/// shard's cumulative tuple count would reach or cross `at` (or whose batch
/// carries an explicit per-tuple sequence number equal to `at`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the worker while it processes the matching event.
    PanicAt {
        /// Target shard.
        shard: usize,
        /// Tuple position that triggers the panic.
        at: u64,
    },
    /// Stall the worker for `millis` before processing the matching event
    /// (a slow/delayed worker, not a crash).
    DelayAt {
        /// Target shard.
        shard: usize,
        /// Tuple position that triggers the stall.
        at: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Silently drop the matching batch before it reaches the engine.
    DropBatchAt {
        /// Target shard.
        shard: usize,
        /// Tuple position that triggers the drop.
        at: u64,
    },
    /// Deliver the matching batch twice (an at-least-once transport
    /// re-delivering after a lost ack). The worker's delivery guard must
    /// drop the duplicate by sequence number.
    DuplicateAt {
        /// Target shard.
        shard: usize,
        /// Tuple position that triggers the duplicate delivery.
        at: u64,
    },
    /// Hold the matching batch back and deliver it *after* the next data
    /// event (a transport that reorders adjacent messages). The worker's
    /// delivery guard must heal the swap before either reaches the engine.
    ReorderAt {
        /// Target shard.
        shard: usize,
        /// Tuple position that triggers the reorder.
        at: u64,
    },
}

impl FaultAction {
    fn shard(&self) -> usize {
        match *self {
            FaultAction::PanicAt { shard, .. }
            | FaultAction::DelayAt { shard, .. }
            | FaultAction::DropBatchAt { shard, .. }
            | FaultAction::DuplicateAt { shard, .. }
            | FaultAction::ReorderAt { shard, .. } => shard,
        }
    }

    fn at(&self) -> u64 {
        match *self {
            FaultAction::PanicAt { at, .. }
            | FaultAction::DelayAt { at, .. }
            | FaultAction::DropBatchAt { at, .. }
            | FaultAction::DuplicateAt { at, .. }
            | FaultAction::ReorderAt { at, .. } => at,
        }
    }
}

/// A deterministic script of faults to inject into one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scripted faults, each armed exactly once.
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// Empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Script a worker panic on `shard` at tuple position `at`.
    pub fn panic_at(mut self, shard: usize, at: u64) -> Self {
        self.actions.push(FaultAction::PanicAt { shard, at });
        self
    }

    /// Script a `millis`-long stall on `shard` at tuple position `at`.
    pub fn delay_at(mut self, shard: usize, at: u64, millis: u64) -> Self {
        self.actions
            .push(FaultAction::DelayAt { shard, at, millis });
        self
    }

    /// Script a dropped batch on `shard` at tuple position `at`.
    pub fn drop_batch_at(mut self, shard: usize, at: u64) -> Self {
        self.actions.push(FaultAction::DropBatchAt { shard, at });
        self
    }

    /// Script a duplicate delivery on `shard` at tuple position `at`.
    pub fn duplicate_at(mut self, shard: usize, at: u64) -> Self {
        self.actions.push(FaultAction::DuplicateAt { shard, at });
        self
    }

    /// Script a reordered delivery on `shard` at tuple position `at`.
    pub fn reorder_at(mut self, shard: usize, at: u64) -> Self {
        self.actions.push(FaultAction::ReorderAt { shard, at });
        self
    }

    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// What a triggered fault tells the worker to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triggered {
    /// Panic now (via [`inject_panic`]).
    Panic,
    /// Sleep this many milliseconds, then process normally.
    DelayMillis(u64),
    /// Skip this batch entirely.
    DropBatch,
    /// Process this batch, then deliver a clone of it again.
    Duplicate,
    /// Hold this batch back; deliver it after the next data event.
    Reorder,
}

/// Shared, thread-safe dispenser of scripted faults. One injector is shared
/// by every worker of a runtime; each action fires at most once.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: Mutex<Vec<FaultAction>>,
}

impl FaultInjector {
    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            armed: Mutex::new(plan.actions),
        }
    }

    /// Number of still-armed actions.
    pub fn armed(&self) -> usize {
        self.armed.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Check whether `ev` (about to be processed by `shard`, which has seen
    /// `tuples_before` tuples so far) trips a scripted fault. A hit disarms
    /// the action. Only data batches trip faults; control events (expiry,
    /// barriers, flush) never do.
    pub fn trigger<P>(&self, shard: usize, ev: &Event<P>, tuples_before: u64) -> Option<Triggered> {
        let Event::Columnar(batch) = ev else {
            return None;
        };
        let mut armed = self.armed.lock().unwrap_or_else(|e| e.into_inner());
        let hit = armed
            .iter()
            .position(|a| a.shard() == shard && batch_matches(batch, a.at(), tuples_before))?;
        let action = armed.remove(hit);
        Some(match action {
            FaultAction::PanicAt { .. } => Triggered::Panic,
            FaultAction::DelayAt { millis, .. } => Triggered::DelayMillis(millis),
            FaultAction::DropBatchAt { .. } => Triggered::DropBatch,
            FaultAction::DuplicateAt { .. } => Triggered::Duplicate,
            FaultAction::ReorderAt { .. } => Triggered::Reorder,
        })
    }
}

/// True when processing `batch` would reach or cross position `at`, or
/// when a tuple in it carries an explicit sequence number equal to `at`.
fn batch_matches(batch: &ColumnarBatch, at: u64, tuples_before: u64) -> bool {
    let after = tuples_before + batch.len() as u64;
    (tuples_before < at && at <= after) || (0..batch.len()).any(|i| batch.seq_at(i) == Some(at))
}

/// Payload type carried by injected panics, so supervisors (and humans
/// reading fault reports) can tell scripted faults from genuine bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedPanic {
    /// Shard the fault was scripted against.
    pub shard: usize,
}

/// Panic with an [`InjectedPanic`] payload. Call [`install_quiet_hook`]
/// first if the default hook's backtrace spam is unwanted.
pub fn inject_panic(shard: usize) -> ! {
    std::panic::panic_any(InjectedPanic { shard })
}

/// Install (once, process-wide) a panic hook that stays silent for
/// [`InjectedPanic`] payloads and chains to the previous hook for
/// everything else. Supervised tests inject panics on purpose; printing a
/// backtrace per injection buries real failures in noise.
pub fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Render a caught panic payload for fault reports: injected panics,
/// `&str`/`String` panics, and opaque payloads all become readable text.
pub fn payload_string(payload: &(dyn Any + Send)) -> String {
    if let Some(ip) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic (scripted fault on shard {})", ip.shard)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::StreamId;

    fn batch(n: usize) -> Event<()> {
        let mut b = ColumnarBatch::new(n);
        for _ in 0..n {
            b.push(StreamId(0), 1, 0).unwrap();
        }
        Event::Columnar(b)
    }

    #[test]
    fn fires_once_when_count_crosses_position() {
        let inj = FaultInjector::new(FaultPlan::new().panic_at(1, 10));
        assert_eq!(inj.trigger(1, &batch(4), 0), None, "0..4 does not reach 10");
        assert_eq!(inj.trigger(0, &batch(8), 8), None, "wrong shard");
        assert_eq!(
            inj.trigger(1, &batch(4), 8),
            Some(Triggered::Panic),
            "8..12 crosses 10"
        );
        assert_eq!(inj.trigger(1, &batch(4), 8), None, "one-shot: disarmed");
        assert_eq!(inj.armed(), 0);
    }

    #[test]
    fn explicit_tuple_seq_matches_directly() {
        let inj = FaultInjector::new(FaultPlan::new().drop_batch_at(0, 99));
        let mut b = ColumnarBatch::new(1);
        b.push_stamped(StreamId(0), 1, 0, None, Some(99)).unwrap();
        let ev: Event<()> = Event::Columnar(b);
        assert_eq!(inj.trigger(0, &ev, 0), Some(Triggered::DropBatch));
    }

    #[test]
    fn control_events_never_trip_faults() {
        let inj = FaultInjector::new(FaultPlan::new().panic_at(0, 1));
        assert_eq!(inj.trigger(0, &Event::<()>::Flush, 0), None);
        assert_eq!(inj.trigger(0, &Event::<()>::Expiry(5), 0), None);
        assert_eq!(inj.armed(), 1, "control events do not disarm");
    }

    #[test]
    fn delay_carries_duration() {
        let inj = FaultInjector::new(FaultPlan::new().delay_at(2, 1, 25));
        assert_eq!(
            inj.trigger(2, &batch(1), 0),
            Some(Triggered::DelayMillis(25))
        );
    }

    #[test]
    fn duplicate_and_reorder_trigger_once() {
        let inj = FaultInjector::new(FaultPlan::new().duplicate_at(0, 4).reorder_at(1, 4));
        assert_eq!(inj.trigger(0, &batch(8), 0), Some(Triggered::Duplicate));
        assert_eq!(inj.trigger(0, &batch(8), 0), None, "one-shot");
        assert_eq!(inj.trigger(1, &batch(8), 0), Some(Triggered::Reorder));
        assert_eq!(inj.armed(), 0);
    }

    #[test]
    fn payloads_render_readably() {
        assert_eq!(
            payload_string(&InjectedPanic { shard: 3 }),
            "injected panic (scripted fault on shard 3)"
        );
        assert_eq!(payload_string(&"boom"), "boom");
        assert_eq!(payload_string(&String::from("kaput")), "kaput");
        assert_eq!(payload_string(&42u32), "opaque panic payload");
    }
}
