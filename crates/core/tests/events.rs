//! Ordering invariants of the unified event stream.
//!
//! - `Event::Expiry(ts)` expires exactly what a serial `ingest_at`
//!   sequence reaching `ts` would have expired: after the punctuation, the
//!   pipeline's states, output, and retraction counters are identical to a
//!   pipeline that never saw the watermark and simply ingested the next
//!   arrival at `ts`.
//! - `Event::Flush` drains every operator queue to quiescence and is
//!   idempotent at quiescence.
//! - Watermarks are monotone: a regressing `Expiry` is rejected, and a
//!   repeated one is a no-op.

use jisc_common::{ColumnarBatch, Event, StreamId};
use jisc_core::jisc::{apply_event, JiscSemantics};
use jisc_core::{AdaptiveEngine, Strategy};
use jisc_engine::{Catalog, JoinStyle, Pipeline, PlanSpec, StreamDef};

fn timed_catalog(names: &[&str], ticks: u64) -> Catalog {
    Catalog::new(names.iter().map(|n| StreamDef::timed(*n, ticks)).collect()).unwrap()
}

fn spec(names: &[&str]) -> PlanSpec {
    PlanSpec::left_deep(names, JoinStyle::Hash)
}

/// Drive `n` deterministic arrivals at ts = arrival index.
fn warm(pipe: &mut Pipeline, sem: &mut JiscSemantics, n: u64, streams: u16, keys: u64) {
    for i in 0..n {
        pipe.push_at_with(sem, StreamId((i % streams as u64) as u16), i % keys, i, i)
            .unwrap();
    }
}

#[test]
fn expiry_expires_exactly_what_serial_ingest_would() {
    let names = ["R", "S", "T"];
    let build = || Pipeline::new(timed_catalog(&names, 30), &spec(&names)).unwrap();

    // Reference: never sees a watermark; the arrival at ts = 200 performs
    // the expiry sweep itself (sweep-before-insert, as ingest_at always
    // does).
    let mut reference = build();
    let mut ref_sem = JiscSemantics::default();
    warm(&mut reference, &mut ref_sem, 100, 3, 7);
    reference
        .push_at_with(&mut ref_sem, StreamId(0), 3, 999, 200)
        .unwrap();

    // Watermark run: same prefix, then Expiry(200) punctuation, then the
    // same arrival. The punctuation must have done all the sweeping.
    let mut pipe = build();
    let mut sem = JiscSemantics::default();
    warm(&mut pipe, &mut sem, 100, 3, 7);
    let removals_before = pipe.metrics.removals;
    let windowed: usize = (0..3).map(|s| pipe.window_of(StreamId(s)).len()).sum();
    apply_event(&mut pipe, &mut sem, Event::Expiry(200)).unwrap();
    assert!(
        pipe.metrics.removals > removals_before,
        "a 30-tick window at watermark 200 must expire the warmup tuples"
    );
    assert_eq!(
        pipe.kernels.expire.elements, windowed as u64,
        "punctuation on a batchable plan runs the retraction kernel"
    );
    pipe.push_at_with(&mut sem, StreamId(0), 3, 999, 200)
        .unwrap();

    for id in pipe.plan().ids() {
        assert_eq!(
            pipe.plan().node(id).state.len(),
            reference.plan().node(id).state.len(),
            "state sizes diverge at node {id:?}"
        );
    }
    assert_eq!(
        pipe.output.lineage_multiset(),
        reference.output.lineage_multiset()
    );
    assert_eq!(pipe.metrics.removals, reference.metrics.removals);
}

#[test]
fn expiry_is_monotone_and_idempotent() {
    let names = ["R", "S"];
    let mut pipe = Pipeline::new(timed_catalog(&names, 20), &spec(&names)).unwrap();
    let mut sem = JiscSemantics::default();
    warm(&mut pipe, &mut sem, 50, 2, 5);

    // Regressing watermark is rejected.
    assert!(apply_event(&mut pipe, &mut sem, Event::Expiry(10)).is_err());

    apply_event(&mut pipe, &mut sem, Event::Expiry(60)).unwrap();
    let sizes: Vec<usize> = pipe
        .plan()
        .ids()
        .map(|i| pipe.plan().node(i).state.len())
        .collect();
    let removals = pipe.metrics.removals;
    // Same watermark again: nothing left to expire.
    apply_event(&mut pipe, &mut sem, Event::Expiry(60)).unwrap();
    let sizes_after: Vec<usize> = pipe
        .plan()
        .ids()
        .map(|i| pipe.plan().node(i).state.len())
        .collect();
    assert_eq!(sizes, sizes_after);
    assert_eq!(removals, pipe.metrics.removals);
}

#[test]
fn flush_drains_all_operator_queues_and_is_idempotent() {
    let names = ["R", "S", "T"];
    let mut pipe = Pipeline::new(timed_catalog(&names, 40), &spec(&names)).unwrap();
    let mut sem = JiscSemantics::default();

    let mut batch = ColumnarBatch::new(16);
    for i in 0..48u64 {
        batch.push(StreamId((i % 3) as u16), i % 5, i).unwrap();
        if batch.is_full() {
            apply_event(&mut pipe, &mut sem, Event::Columnar(batch.clone())).unwrap();
            batch.clear();
        }
    }
    assert!(
        pipe.plan().queues_empty(),
        "batch application must run to quiescence"
    );

    let outputs = pipe.output.count();
    apply_event(&mut pipe, &mut sem, Event::Flush).unwrap();
    assert!(pipe.plan().queues_empty(), "flush leaves queues drained");
    assert_eq!(
        pipe.output.count(),
        outputs,
        "flush at quiescence emits nothing new"
    );
    apply_event(&mut pipe, &mut sem, Event::Flush).unwrap();
    assert_eq!(pipe.output.count(), outputs, "flush is idempotent");
}

#[test]
fn watermark_is_monotone_idempotent_and_matches_expiry() {
    // Where a Watermark advances time it has exactly the Expiry effect;
    // where it regresses or repeats it is an accepted no-op — unlike
    // Expiry, whose regression is an error.
    let names = ["R", "S"];
    let build = || Pipeline::new(timed_catalog(&names, 20), &spec(&names)).unwrap();

    let mut reference = build();
    let mut ref_sem = JiscSemantics::default();
    warm(&mut reference, &mut ref_sem, 50, 2, 5);
    apply_event(&mut reference, &mut ref_sem, Event::Expiry(80)).unwrap();

    let mut pipe = build();
    let mut sem = JiscSemantics::default();
    warm(&mut pipe, &mut sem, 50, 2, 5);
    // Stale watermark: accepted no-op where the same Expiry is an error.
    let removals_before = pipe.metrics.removals;
    assert!(apply_event(&mut pipe, &mut sem, Event::Expiry(10)).is_err());
    apply_event(&mut pipe, &mut sem, Event::Watermark(10)).unwrap();
    assert_eq!(
        pipe.metrics.removals, removals_before,
        "stale watermark expires nothing"
    );

    apply_event(&mut pipe, &mut sem, Event::Watermark(80)).unwrap();
    // Repeated and regressing announcements after the advance: no-ops.
    apply_event(&mut pipe, &mut sem, Event::Watermark(80)).unwrap();
    apply_event(&mut pipe, &mut sem, Event::Watermark(30)).unwrap();
    assert_eq!(pipe.watermark(), 80);

    for id in pipe.plan().ids() {
        assert_eq!(
            pipe.plan().node(id).state.len(),
            reference.plan().node(id).state.len(),
            "watermark and expiry sweeps diverge at node {id:?}"
        );
    }
    assert_eq!(pipe.metrics.removals, reference.metrics.removals);
    assert_eq!(
        pipe.output.lineage_multiset(),
        reference.output.lineage_multiset()
    );
}

#[test]
fn watermark_applies_across_strategies() {
    // Batches with pinned timestamps, a mid-stream watermark, and a stale
    // re-announcement, through every strategy facade: all must agree with
    // a serial pipeline fed the same rows one at a time around the same
    // watermarks.
    let names = ["R", "S"];
    let arrivals: Vec<(u16, u64, u64)> =
        (0..80u64).map(|i| ((i % 2) as u16, i % 6, i * 2)).collect();
    let batch_of = |range: std::ops::Range<usize>| {
        let mut b = ColumnarBatch::new(range.len());
        for (i, &(s, k, ts)) in arrivals[range.clone()].iter().enumerate() {
            b.push_stamped(StreamId(s), k, (range.start + i) as u64, Some(ts), None)
                .unwrap();
        }
        b
    };
    // The watermark may reach at most the next batch's first timestamp
    // (ts = 2 * arrival index), or the resumed stream would regress.
    let wm = 80;
    let events = || {
        vec![
            Event::Columnar(batch_of(0..40)),
            Event::Watermark(wm),
            Event::Watermark(wm / 4), // stale: must be a no-op everywhere
            Event::Columnar(batch_of(40..80)),
            Event::Flush,
        ]
    };

    let mut serial = Pipeline::new(timed_catalog(&names, 30), &spec(&names)).unwrap();
    let mut sem = JiscSemantics::default();
    for (i, &(s, k, ts)) in arrivals.iter().enumerate() {
        if i == 40 {
            serial.apply_watermark_with(&mut sem, wm).unwrap();
            serial.apply_watermark_with(&mut sem, wm / 4).unwrap();
        }
        serial
            .push_at_with(&mut sem, StreamId(s), k, i as u64, ts)
            .unwrap();
    }

    for strategy in [
        Strategy::Jisc,
        Strategy::MovingState,
        Strategy::ParallelTrack { check_period: 8 },
    ] {
        let mut engine =
            AdaptiveEngine::new(timed_catalog(&names, 30), &spec(&names), strategy).unwrap();
        for ev in events() {
            engine.on_event(ev).unwrap();
        }
        assert_eq!(
            engine.output().lineage_multiset(),
            serial.output.lineage_multiset(),
            "{strategy:?} diverged under watermarks"
        );
    }
}

#[test]
fn events_apply_in_stream_order_across_strategies() {
    // Batch → Barrier → Batch → Flush, delivered through the facade: the
    // barrier must take effect exactly between the two batches for every
    // strategy, yielding identical outputs to interleaved per-tuple calls.
    let names = ["R", "S", "T"];
    for strategy in [
        Strategy::Jisc,
        Strategy::MovingState,
        Strategy::ParallelTrack { check_period: 8 },
    ] {
        let catalog = || Catalog::uniform(&names, 25).unwrap();
        let arrivals: Vec<(u16, u64)> = (0..120u64).map(|i| ((i % 3) as u16, i % 6)).collect();
        let target = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);

        let mut reference = AdaptiveEngine::new(catalog(), &spec(&names), strategy).unwrap();
        for (i, &(s, k)) in arrivals.iter().enumerate() {
            if i == 60 {
                reference.transition_to(&target).unwrap();
            }
            reference.push(StreamId(s), k, i as u64).unwrap();
        }

        let mut engine = AdaptiveEngine::new(catalog(), &spec(&names), strategy).unwrap();
        let send = |from: usize, to: usize, e: &mut AdaptiveEngine| {
            let mut b = ColumnarBatch::new(to - from);
            for (i, &(s, k)) in arrivals[from..to].iter().enumerate() {
                b.push(StreamId(s), k, (from + i) as u64).unwrap();
            }
            e.on_event(Event::Columnar(b)).unwrap();
        };
        send(0, 60, &mut engine);
        engine
            .on_event(Event::MigrationBarrier(target.clone()))
            .unwrap();
        send(60, 120, &mut engine);
        engine.on_event(Event::Flush).unwrap();

        assert_eq!(
            engine.output().lineage_multiset(),
            reference.output().lineage_multiset(),
            "{strategy:?} diverged"
        );
    }
}
