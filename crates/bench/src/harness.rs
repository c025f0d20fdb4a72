//! Shared experiment-driving machinery.

use std::time::{Duration, Instant};

use jisc_common::{ColumnarBatch, Event, StreamId};
use jisc_core::{AdaptiveEngine, Strategy};
use jisc_eddy::{CacqExec, MJoinExec};
use jisc_engine::{Catalog, JoinStyle, PlanSpec};
use jisc_workload::{Arrival, Generator, Scenario, Schedule};

/// Scaling knob: the paper runs 10M tuples with 10k windows; the repro
/// defaults are ~50x smaller and can be scaled up with `--scale`.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// Apply to a tuple/window count.
    pub fn apply(&self, base: usize) -> usize {
        ((base as f64 * self.0).round() as usize).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

/// Wall-clock a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed(), v)
}

/// Build an adaptive engine for a scenario's initial plan.
pub fn engine_for(scenario: &Scenario, window: usize, strategy: Strategy) -> AdaptiveEngine {
    let names = scenario
        .initial
        .leaves()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let catalog = Catalog::uniform(&refs, window).expect("valid catalog");
    AdaptiveEngine::new(catalog, &scenario.initial, strategy).expect("valid engine")
}

/// Default data-plane batch size for experiment drives.
pub const INGEST_BATCH: usize = 64;

/// Push a slice of arrivals through an engine as [`ColumnarBatch`]es of
/// [`INGEST_BATCH`] (panics on engine error — experiment configurations
/// are trusted).
pub fn push_all(e: &mut AdaptiveEngine, arrivals: &[Arrival]) {
    push_all_batched(e, arrivals, INGEST_BATCH);
}

/// Push a slice of arrivals with an explicit batch size.
pub fn push_all_batched(e: &mut AdaptiveEngine, arrivals: &[Arrival], batch_size: usize) {
    let mut batch = ColumnarBatch::new(batch_size);
    for a in arrivals {
        batch
            .push(StreamId(a.stream), a.key, a.payload)
            .expect("batch cut on full");
        if batch.is_full() {
            e.push_columnar(&batch).expect("push batch");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        e.push_columnar(&batch).expect("push batch");
    }
}

/// Push arrivals as batches, firing scheduled transitions at their indices
/// (indices are relative to the slice). A transition cuts the current
/// batch short so the migration barrier lands at exactly the scheduled
/// arrival boundary, then batching resumes. Returns the wall time of the
/// whole drive.
pub fn drive_with_schedule(
    e: &mut AdaptiveEngine,
    arrivals: &[Arrival],
    schedule: &Schedule,
) -> Duration {
    let t0 = Instant::now();
    let mut next = 0;
    let transitions = schedule.transitions();
    let mut batch = ColumnarBatch::new(INGEST_BATCH);
    for (i, a) in arrivals.iter().enumerate() {
        while next < transitions.len() && transitions[next].0 == i {
            if !batch.is_empty() {
                e.push_columnar(&batch).expect("push batch");
                batch.clear();
            }
            e.on_event(Event::MigrationBarrier(transitions[next].1.clone()))
                .expect("transition");
            next += 1;
        }
        batch
            .push(StreamId(a.stream), a.key, a.payload)
            .expect("batch cut on full");
        if batch.is_full() {
            e.push_columnar(&batch).expect("push batch");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        e.push_columnar(&batch).expect("push batch");
    }
    t0.elapsed()
}

/// Push a slice of arrivals through a CACQ executor.
pub fn push_all_cacq(e: &mut CacqExec, arrivals: &[Arrival]) {
    for a in arrivals {
        e.push(StreamId(a.stream), a.key, a.payload).expect("push");
    }
}

/// Drive CACQ with routing changes taken from the schedule's plan leaves.
pub fn drive_cacq_with_schedule(
    e: &mut CacqExec,
    arrivals: &[Arrival],
    schedule: &Schedule,
) -> Duration {
    let t0 = Instant::now();
    let mut next = 0;
    let transitions = schedule.transitions();
    for (i, a) in arrivals.iter().enumerate() {
        while next < transitions.len() && transitions[next].0 == i {
            let names = transitions[next].1.leaves();
            e.set_routing_order_named(&names).expect("reroute");
            next += 1;
        }
        e.push(StreamId(a.stream), a.key, a.payload).expect("push");
    }
    t0.elapsed()
}

/// Push a slice of arrivals through an MJoin executor.
pub fn push_all_mjoin(e: &mut MJoinExec, arrivals: &[Arrival]) {
    for a in arrivals {
        e.push(StreamId(a.stream), a.key, a.payload).expect("push");
    }
}

/// MJoin executor over the same streams as a scenario.
pub fn mjoin_for(scenario: &Scenario, window: usize) -> MJoinExec {
    let names = scenario
        .initial
        .leaves()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let catalog = Catalog::uniform(&refs, window).expect("valid catalog");
    MJoinExec::new(catalog).expect("valid mjoin")
}

/// CACQ executor over the same streams as a scenario.
pub fn cacq_for(scenario: &Scenario, window: usize) -> CacqExec {
    let names = scenario
        .initial
        .leaves()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let catalog = Catalog::uniform(&refs, window).expect("valid catalog");
    CacqExec::new(catalog).expect("valid cacq")
}

/// Uniform workload over a scenario's streams: keys drawn from `[0, domain)`.
pub fn arrivals_for(scenario: &Scenario, n: usize, domain: u64, seed: u64) -> Vec<Arrival> {
    let streams = scenario.initial.leaves().len() as u16;
    Generator::uniform(streams, domain, seed).take_vec(n)
}

/// Time from a transition trigger until the engine's *next* output tuple,
/// feeding `arrivals` until one appears. Includes the transition call
/// itself — for eager strategies that is where the halt lives (§6.3).
pub fn latency_to_first_output(
    e: &mut AdaptiveEngine,
    new_plan: &PlanSpec,
    arrivals: &[Arrival],
) -> (Duration, usize) {
    let before = e.output().count();
    let t0 = Instant::now();
    e.transition_to(new_plan).expect("transition");
    for (i, a) in arrivals.iter().enumerate() {
        e.push(StreamId(a.stream), a.key, a.payload).expect("push");
        if e.output().count() > before {
            return (t0.elapsed(), i + 1);
        }
    }
    (t0.elapsed(), arrivals.len())
}

/// Plan style shorthand used across experiments.
pub fn hash_style() -> JoinStyle {
    JoinStyle::Hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_workload::best_case;

    #[test]
    fn scale_rounds_and_floors() {
        assert_eq!(Scale(0.5).apply(1000), 500);
        assert_eq!(Scale(0.0001).apply(100), 1);
        assert_eq!(Scale::default().apply(7), 7);
    }

    #[test]
    fn drive_with_schedule_fires_transitions() {
        let scenario = best_case(3, JoinStyle::Hash);
        let mut e = engine_for(&scenario, 50, Strategy::Jisc);
        let arrivals = arrivals_for(&scenario, 300, 20, 1);
        let schedule = Schedule::once(&scenario, 150);
        let d = drive_with_schedule(&mut e, &arrivals, &schedule);
        assert!(d > Duration::ZERO);
        assert_eq!(e.metrics().transitions, 1);
    }

    #[test]
    fn latency_helper_detects_first_output() {
        let scenario = best_case(2, JoinStyle::Hash);
        let mut e = engine_for(&scenario, 50, Strategy::Jisc);
        let warm = arrivals_for(&scenario, 400, 10, 2);
        push_all(&mut e, &warm);
        let more = arrivals_for(&scenario, 200, 10, 3);
        let (d, pushed) = latency_to_first_output(&mut e, &scenario.target, &more);
        assert!(d > Duration::ZERO);
        assert!(pushed >= 1);
        assert!(
            pushed < 200,
            "a dense workload should produce output quickly"
        );
    }
}
