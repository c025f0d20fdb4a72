//! Property test: batched execution is observationally equivalent to
//! per-tuple execution.
//!
//! Random multi-stream scenarios — count and time windows, with mid-stream
//! migrations at random points — are run twice per strategy: once pushing
//! every arrival individually, once through the unified event stream in
//! [`ColumnarBatch`]es of size 1, 7, 64 and 256. Migration points rarely fall
//! on a batch boundary, so the [`Event::MigrationBarrier`] routinely lands
//! "mid-batch", cutting the current batch short exactly as a router would.
//! Output lineage multisets must be identical in every configuration, for
//! all four strategies: plain pipelined execution (no migrations), JISC,
//! Moving State, and Parallel Track.

use jisc_common::{ColumnarBatch, Event, Lineage, StreamId};
use jisc_core::jisc::apply_event;
use jisc_core::{AdaptiveEngine, Strategy as Mig};
use jisc_engine::{Catalog, DefaultSemantics, JoinStyle, Pipeline, PlanSpec, StreamDef};
use proptest::prelude::*;

type OutputMultiset = Vec<(Lineage, usize)>;

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 256];

#[derive(Debug, Clone)]
struct Case {
    /// Stream names, 3..=4 of them.
    names: Vec<String>,
    /// Time-window ticks, or `None` for a count window of 20.
    ticks: Option<u64>,
    /// `(stream, key)` arrivals.
    arrivals: Vec<(u16, u64)>,
    /// Arrival indices at which a migration (leaf rotation) fires.
    migrations: Vec<usize>,
    /// Arrival indices at which the arbitrary batch partition cuts.
    cuts: Vec<usize>,
    /// Arrival indices at which an expiry watermark is punctuated.
    expiries: Vec<usize>,
}

impl Case {
    fn catalog(&self) -> Catalog {
        let defs = self
            .names
            .iter()
            .map(|n| match self.ticks {
                Some(t) => StreamDef::timed(n.clone(), t),
                None => StreamDef::new(n.clone(), 20),
            })
            .collect();
        Catalog::new(defs).expect("valid catalog")
    }

    /// Plan after `rot` leaf rotations (rot = 0 is the initial plan).
    fn plan(&self, rot: usize) -> PlanSpec {
        let mut names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        let by = rot % names.len();
        names.rotate_left(by);
        PlanSpec::left_deep(&names, JoinStyle::Hash)
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (3usize..=4, 0usize..3, 40usize..120).prop_flat_map(|(streams, wkind, n)| {
        (
            Just(streams),
            Just(wkind),
            proptest::collection::vec((0..streams as u16, 0u64..9), n),
            proptest::collection::vec(1usize..n, 0..3),
            proptest::collection::vec(1usize..n, 0..10),
            proptest::collection::vec(1usize..n, 0..3),
        )
            .prop_map(
                |(streams, wkind, arrivals, mut migrations, mut cuts, mut expiries)| {
                    migrations.sort_unstable();
                    migrations.dedup();
                    cuts.sort_unstable();
                    cuts.dedup();
                    expiries.sort_unstable();
                    expiries.dedup();
                    Case {
                        names: (0..streams).map(|i| format!("S{i}")).collect(),
                        // wkind 0: count windows; 1: slow expiry; 2: fast expiry.
                        ticks: match wkind {
                            0 => None,
                            1 => Some(40),
                            _ => Some(12),
                        },
                        arrivals,
                        migrations,
                        cuts,
                        expiries,
                    }
                },
            )
    })
}

fn sorted_multiset(m: jisc_common::FxHashMap<Lineage, usize>) -> OutputMultiset {
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort();
    v
}

/// Per-tuple reference run of `strategy` with the case's migrations.
fn per_tuple(case: &Case, strategy: Mig) -> OutputMultiset {
    let mut e = AdaptiveEngine::new(case.catalog(), &case.plan(0), strategy).expect("engine");
    let mut rot = 0usize;
    for (i, &(s, k)) in case.arrivals.iter().enumerate() {
        if case.migrations.contains(&i) {
            rot += 1;
            e.transition_to(&case.plan(rot)).expect("transition");
        }
        e.push(StreamId(s), k, i as u64).expect("push");
    }
    sorted_multiset(e.output().lineage_multiset())
}

/// Batched run of `strategy` over the unified event stream: data in
/// batches of `batch_size`, migrations as in-band barriers that cut the
/// current batch short.
fn batched(case: &Case, strategy: Mig, batch_size: usize) -> OutputMultiset {
    let mut e = AdaptiveEngine::new(case.catalog(), &case.plan(0), strategy).expect("engine");
    let mut rot = 0usize;
    let mut batch = ColumnarBatch::new(batch_size);
    for (i, &(s, k)) in case.arrivals.iter().enumerate() {
        if case.migrations.contains(&i) {
            if !batch.is_empty() {
                e.on_event(Event::Columnar(batch.clone())).expect("batch");
                batch.clear();
            }
            rot += 1;
            e.on_event(Event::MigrationBarrier(case.plan(rot)))
                .expect("barrier");
        }
        batch
            .push(StreamId(s), k, i as u64)
            .expect("batch cut on full");
        if batch.is_full() {
            e.on_event(Event::Columnar(batch.clone())).expect("batch");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        e.on_event(Event::Columnar(batch)).expect("batch");
    }
    sorted_multiset(e.output().lineage_multiset())
}

/// Plain pipelined execution (DefaultSemantics, no migrations): batched
/// ingest through `Pipeline::push_columnar` against per-tuple `push`.
fn plain_pair(case: &Case, batch_size: usize) -> (OutputMultiset, OutputMultiset) {
    let mut reference = Pipeline::new(case.catalog(), &case.plan(0)).expect("pipeline");
    for (i, &(s, k)) in case.arrivals.iter().enumerate() {
        reference.push(StreamId(s), k, i as u64).expect("push");
    }
    let mut pipe = Pipeline::new(case.catalog(), &case.plan(0)).expect("pipeline");
    let mut batch = ColumnarBatch::new(batch_size);
    for (i, &(s, k)) in case.arrivals.iter().enumerate() {
        batch
            .push(StreamId(s), k, i as u64)
            .expect("batch cut on full");
        if batch.is_full() {
            pipe.push_columnar(&batch).expect("push batch");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        pipe.push_columnar(&batch).expect("push batch");
    }
    (
        sorted_multiset(reference.output.lineage_multiset()),
        sorted_multiset(pipe.output.lineage_multiset()),
    )
}

/// Materialize the case as a unified event stream: data cut at the case's
/// *arbitrary* partition points, with migration barriers and expiry
/// watermarks cutting the current batch short wherever they land (so they
/// routinely fall "mid-batch" relative to the partition). With `per_row`
/// every row ships as a batch of its own instead — the per-tuple reference
/// with control at identical positions.
fn event_stream(case: &Case, per_row: bool, with_migrations: bool) -> Vec<Event<PlanSpec>> {
    fn cut(evs: &mut Vec<Event<PlanSpec>>, cols: &mut ColumnarBatch) {
        if !cols.is_empty() {
            let full = std::mem::replace(cols, ColumnarBatch::new(cols.capacity()));
            evs.push(Event::Columnar(full));
        }
    }
    let n = case.arrivals.len().max(1);
    let mut evs = Vec::new();
    let mut cols = ColumnarBatch::new(n);
    let mut rot = 0usize;
    for (i, &(s, k)) in case.arrivals.iter().enumerate() {
        if with_migrations && case.migrations.contains(&i) {
            cut(&mut evs, &mut cols);
            rot += 1;
            evs.push(Event::MigrationBarrier(case.plan(rot)));
        }
        if case.expiries.contains(&i) {
            cut(&mut evs, &mut cols);
            // Arrival `j` gets ts `j` (engine-assigned), so a watermark of
            // `i` here is monotonic and, under time windows, expires a
            // prefix of the rings mid-stream.
            evs.push(Event::Expiry(i as u64));
        }
        if per_row || case.cuts.contains(&i) {
            cut(&mut evs, &mut cols);
        }
        cols.push(StreamId(s), k, i as u64).expect("capacity n");
    }
    cut(&mut evs, &mut cols);
    evs
}

/// Drive an event stream to completion: `None` runs the plain pipeline
/// (DefaultSemantics), `Some` an [`AdaptiveEngine`] under that strategy.
fn run_events(case: &Case, strategy: Option<Mig>, evs: &[Event<PlanSpec>]) -> OutputMultiset {
    match strategy {
        None => {
            let mut pipe = Pipeline::new(case.catalog(), &case.plan(0)).expect("pipeline");
            let mut sem = DefaultSemantics;
            for ev in evs {
                apply_event(&mut pipe, &mut sem, ev.clone()).expect("event");
            }
            sorted_multiset(pipe.output.lineage_multiset())
        }
        Some(strategy) => {
            let mut e =
                AdaptiveEngine::new(case.catalog(), &case.plan(0), strategy).expect("engine");
            for ev in evs {
                e.on_event(ev.clone()).expect("event");
            }
            sorted_multiset(e.output().lineage_multiset())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_equals_per_tuple_plain(case in case_strategy()) {
        for bs in BATCH_SIZES {
            let (expected, got) = plain_pair(&case, bs);
            prop_assert_eq!(
                &got, &expected,
                "plain pipeline diverged at batch size {} (ticks {:?})",
                bs, case.ticks
            );
        }
    }

    #[test]
    fn batched_equals_per_tuple_all_strategies(case in case_strategy()) {
        for strategy in [
            Mig::Jisc,
            Mig::MovingState,
            Mig::ParallelTrack { check_period: 10 },
        ] {
            let expected = per_tuple(&case, strategy);
            for bs in BATCH_SIZES {
                let got = batched(&case, strategy, bs);
                prop_assert_eq!(
                    &got, &expected,
                    "{:?} diverged at batch size {} ({} migrations, ticks {:?})",
                    strategy, bs, case.migrations.len(), case.ticks
                );
            }
        }
    }

    /// Columnar ingest over *arbitrary* batch partitions is observationally
    /// equivalent to the same event stream with every row in a batch of its
    /// own (per-tuple execution), for all four strategies, with migration
    /// barriers and expiry watermarks landing mid-partition.
    #[test]
    fn columnar_equals_row_batches_all_strategies(case in case_strategy()) {
        // Plain pipelined execution rejects barriers; both runs skip them.
        let row = run_events(&case, None, &event_stream(&case, true, false));
        let col = run_events(&case, None, &event_stream(&case, false, false));
        prop_assert_eq!(
            &col, &row,
            "plain pipeline diverged ({} cuts, {} expiries, ticks {:?})",
            case.cuts.len(), case.expiries.len(), case.ticks
        );
        for strategy in [
            Mig::Jisc,
            Mig::MovingState,
            Mig::ParallelTrack { check_period: 10 },
        ] {
            let row = run_events(&case, Some(strategy), &event_stream(&case, true, true));
            let col = run_events(&case, Some(strategy), &event_stream(&case, false, true));
            prop_assert_eq!(
                &col, &row,
                "{:?} diverged ({} cuts, {} migrations, {} expiries, ticks {:?})",
                strategy, case.cuts.len(), case.migrations.len(),
                case.expiries.len(), case.ticks
            );
        }
    }

    /// A checkpoint/restore round-trip mid-way through a columnar event
    /// stream reproduces the uninterrupted run: base state is snapshotted
    /// at an event boundary, a fresh engine is restored from it (derived
    /// states rebuilt per strategy — just-in-time for JISC), the drained
    /// prefix output is reinstated, and the remaining events continue on
    /// the restored engine.
    #[test]
    fn columnar_checkpoint_restore_round_trip(case in case_strategy()) {
        for strategy in [
            Mig::Jisc,
            Mig::MovingState,
            Mig::ParallelTrack { check_period: 10 },
        ] {
            let evs = event_stream(&case, false, true);
            let full = run_events(&case, Some(strategy), &evs);

            let mut e =
                AdaptiveEngine::new(case.catalog(), &case.plan(0), strategy).expect("engine");
            let mut spec = case.plan(0);
            let mut restored = false;
            for (j, ev) in evs.iter().enumerate() {
                // At the first event boundary past the midpoint where the
                // engine can snapshot (Parallel Track may be mid-migration),
                // round-trip through checkpoint + restore.
                if !restored && j * 2 >= evs.len() {
                    if let Some(snap) = e.base_snapshot() {
                        let saved = e.take_output();
                        let mut r =
                            AdaptiveEngine::restore(case.catalog(), &spec, strategy, Some(&snap))
                                .expect("restore");
                        r.set_output(saved);
                        e = r;
                        restored = true;
                    }
                }
                if let Event::MigrationBarrier(p) = ev {
                    spec = p.clone();
                }
                e.on_event(ev.clone()).expect("event");
            }
            let got = sorted_multiset(e.output().lineage_multiset());
            prop_assert_eq!(
                &got, &full,
                "{:?} checkpoint/restore diverged (restored: {}, ticks {:?})",
                strategy, restored, case.ticks
            );
        }
    }
}
