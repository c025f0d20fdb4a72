//! Mid-migration batches stay on the columnar kernels.
//!
//! While any state was incomplete, batches used to drop to per-arrival
//! execution for every batch that expired something. That rule is gone:
//! pending-key bookkeeping is per (state, key), so events on different keys
//! commute mid-migration exactly as they do on complete states. This suite
//! aims at the deleted rule —
//!
//! * a regression scenario for the stale-entry bug the per-item `Remove`
//!   walk had (two same-key tuples under one child expiring in one drain),
//!   through per-tuple, one-row-batch (the per-tuple fallback behind
//!   `Event::Columnar`), columnar and watermark ingestion;
//! * a proptest over time-windowed streams with unequal windows and
//!   repeated timestamps, transitions to left-deep worst/best-case and
//!   bushy (Case-3) plans, overlapped, with batch boundaries at arbitrary
//!   offsets: per-tuple ≡ columnar by output lineage and final state sizes,
//!   with the columnar run never later to complete a state;
//! * engagement: a columnar batch that expires mid-migration runs the
//!   install and retract kernels, and so do states whose pending keys come
//!   from crash recovery or a rescale install instead of a transition.

use jisc_common::{ColumnarBatch, Event, Lineage, PartitionMap, StreamId};
use jisc_core::jisc::JiscSemantics;
use jisc_core::{extract_range, install_range, restore_pipeline, RecoveryMode};
use jisc_core::{AdaptiveEngine, Strategy as Mig};
use jisc_engine::{Catalog, JoinStyle, Pipeline, PlanSpec, StreamDef};
use proptest::prelude::*;

type OutputMultiset = Vec<(Lineage, usize)>;

fn sorted_multiset(m: jisc_common::FxHashMap<Lineage, usize>) -> OutputMultiset {
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort();
    v
}

/// How a run hands its arrivals to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    PerTuple,
    /// One `Event::Columnar` per row: the per-tuple fallback behind the
    /// batch event.
    RowBatch,
    Columnar,
}

/// `rows` (`(stream, key, ts)`) as one columnar batch.
fn columnar(rows: &[(u16, u64, u64)]) -> ColumnarBatch {
    let mut b = ColumnarBatch::new(rows.len());
    for &(s, k, ts) in rows {
        b.push_stamped(StreamId(s), k, 0, Some(ts), None)
            .expect("capacity");
    }
    b
}

/// Feed `rows` (`(stream, key, ts)`) as one unit of `plane`: one `push_at`
/// per row, one batch event per row, or a single batch event.
fn feed(e: &mut AdaptiveEngine, plane: Plane, rows: &[(u16, u64, u64)]) {
    match plane {
        Plane::PerTuple => {
            for &(s, k, ts) in rows {
                e.push_at(StreamId(s), k, 0, ts).expect("push_at");
            }
        }
        Plane::RowBatch => {
            for row in rows.chunks(1) {
                e.on_event(Event::Columnar(columnar(row)))
                    .expect("one-row batch");
            }
        }
        Plane::Columnar => {
            e.on_event(Event::Columnar(columnar(rows)))
                .expect("columnar batch");
        }
    }
}

fn pipeline_of(e: &AdaptiveEngine) -> &Pipeline {
    e.as_jisc().expect("JISC strategy").pipeline()
}

fn state_sizes(p: &Pipeline) -> Vec<usize> {
    p.plan()
        .ids()
        .map(|i| p.plan().node(i).state.len())
        .collect()
}

// ----- the stale-entry regression -----

/// Windows R = 10, S = T = U = 1000 ticks. r1(k) and r2(k) arrive at the
/// same tick, s(k) and t(k) follow; the transition to `[R,T,S,U]` leaves
/// `{R,T}` incomplete under the adopted `{R,S,T}` and root. At ts = 50 both
/// R tuples expire in one drain. The first `Remove` must not drop the
/// pending key at `{R,T}` — R's scan is already empty of *both* — or the
/// second is not forwarded and `(r2,s,t)` survives above, to be joined by
/// the next `u(k)`.
fn stale_entry_scenario(plane: Option<Plane>) {
    let names = ["R", "S", "T", "U"];
    let catalog = Catalog::new(vec![
        StreamDef::timed("R", 10),
        StreamDef::timed("S", 1000),
        StreamDef::timed("T", 1000),
        StreamDef::timed("U", 1000),
    ])
    .unwrap();
    let initial = PlanSpec::left_deep(&names, JoinStyle::Hash);
    let mut e = AdaptiveEngine::new(catalog, &initial, Mig::Jisc).unwrap();
    let k = 7;
    for &(s, ts) in &[(0, 1), (0, 1), (1, 2), (2, 3)] {
        e.push_at(StreamId(s), k, 0, ts).unwrap();
    }
    e.transition_to(&PlanSpec::left_deep(&["R", "T", "S", "U"], JoinStyle::Hash))
        .unwrap();
    assert_eq!(e.incomplete_states(), 1, "only {{R,T}} is new");

    // ts = 50 expires r1 and r2 together; then u(k) probes {R,S,T}.
    let tail = [(1, 999, 50), (3, k, 51)];
    match plane {
        Some(plane) => feed(&mut e, plane, &tail),
        None => {
            e.on_event(Event::Watermark(50)).unwrap();
            feed(&mut e, Plane::PerTuple, &tail);
        }
    }

    assert_eq!(
        e.output().count(),
        0,
        "{plane:?}: u(k) joined an expired R tuple left behind in an adopted state"
    );
    let p = pipeline_of(&e);
    for id in p.plan().ids() {
        for t in p.plan().node(id).state.iter() {
            assert!(
                !t.contains_base(StreamId(0), 0) && !t.contains_base(StreamId(0), 1),
                "{plane:?}: node {id:?} still holds {t:?}"
            );
        }
    }
}

#[test]
fn same_key_expiries_in_one_drain_leave_nothing_behind_per_tuple() {
    stale_entry_scenario(Some(Plane::PerTuple));
}

#[test]
fn same_key_expiries_in_one_drain_leave_nothing_behind_row_batch() {
    stale_entry_scenario(Some(Plane::RowBatch));
}

#[test]
fn same_key_expiries_in_one_drain_leave_nothing_behind_columnar() {
    stale_entry_scenario(Some(Plane::Columnar));
}

#[test]
fn same_key_expiries_in_one_drain_leave_nothing_behind_watermark() {
    stale_entry_scenario(None);
}

// ----- equivalence under migration -----

const STREAMS: [&str; 6] = ["A", "B", "C", "D", "E", "F"];
/// Unequal window lengths to draw from (ticks).
const WINDOWS: [u64; 6] = [5, 9, 14, 20, 30, 50];

/// The plans a case moves between: left-deep with its worst-case (swap the
/// outermost streams) and best-case (swap the two topmost) neighbours and
/// its mirror image, and two bushy plans whose subtrees exchange streams —
/// moving between those leaves both children of an upper join incomplete
/// (§4.3 Case 3, `PendingKeys::Unknown`).
fn plan_menu() -> Vec<PlanSpec> {
    let ld = |order: [&str; 6]| PlanSpec::left_deep(&order, JoinStyle::Hash);
    vec![
        ld(STREAMS),
        ld(["F", "B", "C", "D", "E", "A"]),
        ld(["A", "B", "C", "D", "F", "E"]),
        ld(["F", "E", "D", "C", "B", "A"]),
        PlanSpec::bushy(&STREAMS, JoinStyle::Hash),
        PlanSpec::bushy(&["E", "B", "F", "D", "A", "C"], JoinStyle::Hash),
    ]
}

#[derive(Debug, Clone)]
struct Case {
    /// Per-stream window, an index into [`WINDOWS`].
    windows: Vec<usize>,
    /// `(stream, key, ticks since the previous arrival)`; zero gaps are
    /// common, so one row routinely expires several tuples.
    arrivals: Vec<(u16, u64, u64)>,
    /// Index into [`plan_menu`] of the initial plan.
    initial: usize,
    /// `(arrival index, plan index)`: transitions, close enough together
    /// that later ones find states still incomplete (§4.5).
    transitions: Vec<(usize, usize)>,
    /// Arrival indices at which the columnar run cuts a batch.
    cuts: Vec<usize>,
}

impl Case {
    fn catalog(&self) -> Catalog {
        let defs = STREAMS
            .iter()
            .zip(&self.windows)
            .map(|(n, &w)| StreamDef::timed(*n, WINDOWS[w]))
            .collect();
        Catalog::new(defs).expect("valid catalog")
    }

    /// Does the case stay among the left-deep plans of [`plan_menu`]?
    fn left_deep_only(&self) -> bool {
        self.initial < 4 && self.transitions.iter().all(|t| t.1 < 4)
    }

    /// `(stream, key, ts)` rows with the gaps summed up.
    fn rows(&self) -> Vec<(u16, u64, u64)> {
        let mut ts = 1;
        self.arrivals
            .iter()
            .map(|&(s, k, dt)| {
                ts += dt;
                (s, k, ts)
            })
            .collect()
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (60usize..160).prop_flat_map(|n| {
        (
            proptest::collection::vec(0usize..WINDOWS.len(), STREAMS.len()),
            proptest::collection::vec((0..STREAMS.len() as u16, 0u64..6, 0u64..7), n),
            0usize..6,
            proptest::collection::vec((10usize..n, 0usize..6), 1..4),
            proptest::collection::vec(1usize..n, 0..14),
        )
            .prop_map(|(windows, arrivals, initial, mut transitions, mut cuts)| {
                // Gaps 0,0,0,0,1,2,3: mostly repeated timestamps.
                let arrivals = arrivals
                    .into_iter()
                    .map(|(s, k, g)| (s, k, g.saturating_sub(3)))
                    .collect();
                transitions.sort_unstable();
                transitions.dedup_by_key(|t| t.0);
                cuts.sort_unstable();
                cuts.dedup();
                Case {
                    windows,
                    arrivals,
                    initial,
                    transitions,
                    cuts,
                }
            })
    })
}

/// What one run of a case leaves to compare.
#[derive(Debug, PartialEq)]
struct Observed {
    output: OutputMultiset,
    state_sizes: Vec<usize>,
    /// `(arrivals processed, incomplete states)` at every batch boundary.
    incomplete_at: Vec<(usize, usize)>,
}

/// Run `case` on `plane`. Transitions cut the current batch (a barrier is
/// in-band) and every `case.cuts` index cuts one too; the incomplete-state
/// count is sampled at each of those boundaries — for the per-tuple run at
/// the same arrival positions.
fn run(case: &Case, plane: Plane) -> Observed {
    let menu = plan_menu();
    let rows = case.rows();
    let mut e =
        AdaptiveEngine::new(case.catalog(), &menu[case.initial], Mig::Jisc).expect("engine");
    let mut incomplete_at = Vec::new();
    let mut start = 0;
    for i in 0..=rows.len() {
        let transition = case.transitions.iter().find(|t| t.0 == i);
        if i == rows.len() || transition.is_some() || case.cuts.contains(&i) {
            if start < i {
                feed(&mut e, plane, &rows[start..i]);
                start = i;
            }
            incomplete_at.push((i, e.incomplete_states()));
        }
        if let Some(&(_, plan)) = transition {
            e.on_event(Event::MigrationBarrier(menu[plan].clone()))
                .expect("barrier");
        }
    }
    Observed {
        output: sorted_multiset(e.output().lineage_multiset()),
        state_sizes: state_sizes(pipeline_of(&e)),
        incomplete_at,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-tuple ≡ columnar across transitions: same output lineage
    /// multiset, same per-node state sizes at the end, and — among
    /// left-deep plans — at no batch boundary more incomplete states than
    /// the per-tuple run has after the same arrival.
    #[test]
    fn batch_planes_match_per_tuple_through_migrations(case in case_strategy()) {
        let reference = run(&case, Plane::PerTuple);
        // A transition changes no output: the per-tuple run itself must
        // match the same arrivals on the initial plan, never migrated.
        let mut unmigrated = case.clone();
        unmigrated.transitions.clear();
        prop_assert_eq!(
            &reference.output, &run(&unmigrated, Plane::PerTuple).output,
            "per-tuple migration changed the output ({:?} from plan {})",
            case.transitions, case.initial
        );
        let got = run(&case, Plane::Columnar);
        prop_assert_eq!(
            &got.output, &reference.output,
            "columnar output diverged ({} transitions from plan {}, {} cuts)",
            case.transitions.len(), case.initial, case.cuts.len()
        );
        prop_assert_eq!(
            &got.state_sizes, &reference.state_sizes,
            "columnar final state sizes diverged"
        );
        // The runs need not complete a state on the same arrival: dropping
        // a pending key whose completion expiry made moot (`note_removal`)
        // is opportunistic, judged against the children as they are when a
        // `Remove` passes. The per-tuple walk drains an arrival's expiries
        // together with its own insert, so it sees that insert in the
        // states below; the columnar flush retracts a segment's expiries
        // before its inserts. On Known pending sets (§4.3 Cases 1–2, all a
        // left-deep plan creates) the columnar run therefore sees emptier
        // children and is never behind. A Case-3 state's residual is fixed
        // at whichever instant its children complete, from whichever child
        // is smaller then, so there the counts are not comparable.
        if case.left_deep_only() {
            let behind = got
                .incomplete_at
                .iter()
                .zip(&reference.incomplete_at)
                .find(|(g, r)| g.0 != r.0 || g.1 > r.1);
            prop_assert!(
                behind.is_none(),
                "columnar completed its states later than per-tuple: {:?}", behind
            );
        }
    }
}

// ----- engagement -----

/// Arrivals on 4 time-windowed streams: ts = position, 5 keys.
fn timed_rows(from: u64, n: u64) -> Vec<(u16, u64, u64)> {
    (from..from + n)
        .map(|i| ((i % 4) as u16, (i * 7 + i / 4) % 5, i))
        .collect()
}

fn timed_catalog() -> Catalog {
    Catalog::new(
        ["R", "S", "T", "U"]
            .iter()
            .map(|n| StreamDef::timed(*n, 40))
            .collect(),
    )
    .unwrap()
}

/// Push `rows` as one columnar batch and assert it ran on the columnar
/// kernels although states are incomplete: the install kernel saw the
/// batch's deltas and the retract kernel its expiries. (The per-tuple
/// fallback records neither.)
fn assert_columnar_kernels_engage(p: &mut Pipeline, rows: &[(u16, u64, u64)]) {
    assert!(
        jisc_core::jisc::incomplete_state_count(p) > 0,
        "the batch must meet incomplete states"
    );
    let (installed, expired, removals) = (
        p.kernels.install.elements,
        p.kernels.expire.elements,
        p.metrics.removals,
    );
    p.push_columnar_with(&mut JiscSemantics::default(), &columnar(rows))
        .unwrap();
    assert!(
        p.kernels.install.elements >= installed + rows.len() as u64,
        "install kernel skipped: the batch fell back to per-tuple execution"
    );
    assert!(
        p.kernels.expire.elements > expired && p.metrics.removals > removals,
        "retract kernel skipped: the batch's expiries took another path"
    );
}

/// Replay `rows` per tuple on `reference` and compare it with `p`.
fn assert_matches_per_tuple(p: &Pipeline, reference: &mut Pipeline, rows: &[(u16, u64, u64)]) {
    let mut sem = JiscSemantics::default();
    for &(s, k, ts) in rows {
        reference
            .push_at_with(&mut sem, StreamId(s), k, 0, ts)
            .unwrap();
    }
    assert_eq!(
        sorted_multiset(p.output.lineage_multiset()),
        sorted_multiset(reference.output.lineage_multiset())
    );
    assert_eq!(state_sizes(p), state_sizes(reference));
}

#[test]
fn expiring_columnar_batch_after_a_transition_stays_on_the_kernels() {
    let names = ["R", "S", "T", "U"];
    let target = PlanSpec::left_deep(&["U", "S", "T", "R"], JoinStyle::Hash);
    let build = || {
        let mut p = Pipeline::new(
            timed_catalog(),
            &PlanSpec::left_deep(&names, JoinStyle::Hash),
        )
        .unwrap();
        let mut sem = JiscSemantics::default();
        for (s, k, ts) in timed_rows(0, 120) {
            p.push_at_with(&mut sem, StreamId(s), k, 0, ts).unwrap();
        }
        jisc_core::jisc_transition(&mut p, &target).unwrap();
        p
    };
    let (mut p, mut reference) = (build(), build());
    // 8 ticks against 40-tick windows: every row expires one tuple.
    let rows = timed_rows(120, 8);
    assert_columnar_kernels_engage(&mut p, &rows);
    assert_matches_per_tuple(&p, &mut reference, &rows);
}

#[test]
fn recovered_and_rescaled_pending_keys_stay_on_the_kernels() {
    let names = ["R", "S", "T", "U"];
    let spec = PlanSpec::left_deep(&names, JoinStyle::Hash);
    let mut sem = JiscSemantics::default();
    let mut source = Pipeline::new(timed_catalog(), &spec).unwrap();
    for (s, k, ts) in timed_rows(0, 120) {
        source
            .push_at_with(&mut sem, StreamId(s), k, 0, ts)
            .unwrap();
    }
    let rows = timed_rows(120, 8);

    // Crash recovery: every join state restarts incomplete.
    let snap = source.snapshot_base_state().expect("quiescent");
    let restored = || {
        let mut p = Pipeline::new(timed_catalog(), &spec).unwrap();
        restore_pipeline(&mut p, &snap, RecoveryMode::JustInTime).unwrap();
        p
    };
    let (mut p, mut reference) = (restored(), restored());
    assert_columnar_kernels_engage(&mut p, &rows);
    assert_matches_per_tuple(&p, &mut reference, &rows);

    // Rescale: a complete target adopts the whole key space as pending
    // keys (`add_pending_keys`).
    let export = extract_range(&mut source, &PartitionMap::uniform(1).ranges_of(0)).unwrap();
    let installed = || {
        let mut p = Pipeline::new(timed_catalog(), &spec).unwrap();
        install_range(&mut p, &export, RecoveryMode::JustInTime).unwrap();
        p.set_next_seq(120);
        p
    };
    let (mut p, mut reference) = (installed(), installed());
    assert_columnar_kernels_engage(&mut p, &rows);
    assert_matches_per_tuple(&p, &mut reference, &rows);
}
