//! Slab-state equivalence properties: the cache-conscious slab layout must
//! be observationally identical to the old `FxHashMap<Key, Vec<Tuple>>`
//! layout (kept as [`jisc_integration_tests::baseline::BaselineStore`]) at
//! every level:
//!
//! 1. **Op level** — identical random insert/expire/drop sequences leave
//!    both stores with the same length, key set, and per-key match
//!    sequences (order included: both visit in per-key insertion order).
//!    Clones (the snapshot path) are compared too.
//! 2. **Ingest level** — the columnar flush (`push_columnar`) emits the
//!    same lineage multiset as tuple-at-a-time `push`, for arbitrary
//!    batch partitions of the same arrival sequence.
//! 3. **Strategy level** — Jisc, Moving State, Parallel Track, and a
//!    plain non-adaptive pipeline all agree on the lineage multiset under
//!    small windows (forcing expiry turnover), mid-stream migrations, and
//!    a checkpoint/restore round-trip of the adaptive engines.
//! 4. **Tier level** — the same properties with the memory budget forced
//!    tiny, so essentially every entry lives in the on-disk cold tier:
//!    the spilled slab is op-level ≡ the in-memory layouts, all four
//!    strategies stay lineage-identical under expiry + migration +
//!    checkpoint/restore, and the hash-chained durable manifest rejects
//!    any single flipped byte on recovery.

use jisc_common::{BaseTuple, ColumnarBatch, Metrics, StreamId, Tuple};
use jisc_core::AdaptiveEngine;
use jisc_engine::{
    Catalog, DurableCheckpointStore, JoinStyle, Pipeline, PlanSpec, ScratchDir, SlabStore,
    SpillConfig,
};
use jisc_integration_tests::baseline::BaselineStore;
use proptest::prelude::*;

type Strategy_ = jisc_core::Strategy;

fn base(seq: u64, key: u64) -> Tuple {
    Tuple::base(BaseTuple::new(StreamId(0), seq, key, 0))
}

/// One randomized store operation. Removal targets index into the log of
/// prior inserts, so they hit live entries, already-removed entries, and
/// absent keys alike.
#[derive(Debug, Clone)]
enum StoreOp {
    Insert { key: u64 },
    RemoveContaining { target: usize },
    RemoveKey { key: u64 },
}

/// Decode a raw `(selector, key, target)` triple: inserts weighted 4:2:1
/// over the two removal flavours.
fn decode_op(sel: u64, key: u64, target: u64) -> StoreOp {
    match sel {
        0..=3 => StoreOp::Insert { key },
        4..=5 => StoreOp::RemoveContaining {
            target: target as usize,
        },
        _ => StoreOp::RemoveKey { key },
    }
}

fn store_ops(max_ops: usize) -> impl Strategy<Value = Vec<StoreOp>> {
    proptest::collection::vec((0u64..7, 0u64..16, 0u64..1_000_000), 1..max_ops).prop_map(|raw| {
        raw.into_iter()
            .map(|(s, k, t)| decode_op(s, k, t))
            .collect()
    })
}

/// Full observable state of a store: (len, sorted keys, per-key match
/// lineages in visit order).
type Observed = (usize, Vec<u64>, Vec<Vec<jisc_common::Lineage>>);

fn observe(
    len: usize,
    keys: jisc_common::FxHashSet<u64>,
    mut matches: impl FnMut(u64) -> Vec<jisc_common::Lineage>,
) -> Observed {
    let mut sorted: Vec<u64> = keys.into_iter().collect();
    sorted.sort_unstable();
    let seqs = sorted.iter().map(|&k| matches(k)).collect();
    (len, sorted, seqs)
}

fn observe_slab(s: &SlabStore, m: &mut Metrics) -> Observed {
    observe(s.len(), s.distinct_keys(), |k| {
        let mut v = Vec::new();
        s.for_each_match(k, m, |t| v.push(t.lineage()));
        v
    })
}

/// [`observe_slab`] for a store with a cold tier: the probe discipline
/// requires faulting a key back before `for_each_match`, exactly as the
/// pipeline's batch prefault does.
fn observe_spilled_slab(s: &mut SlabStore, m: &mut Metrics) -> Observed {
    let keys = s.distinct_keys();
    let len = s.len();
    observe(len, keys, |k| {
        s.fault_in_key(k, m);
        let mut v = Vec::new();
        s.for_each_match(k, m, |t| v.push(t.lineage()));
        v
    })
}

fn observe_baseline(s: &BaselineStore, m: &mut Metrics) -> Observed {
    observe(s.len(), s.distinct_keys(), |k| {
        let mut v = Vec::new();
        s.for_each_match(k, m, |t| v.push(t.lineage()));
        v
    })
}

/// Arrivals with keys drawn from a small domain so joins actually fire.
fn arrivals(max_streams: usize, max_n: usize) -> impl Strategy<Value = (usize, Vec<(u16, u64)>)> {
    (3..=max_streams).prop_flat_map(move |streams| {
        (
            Just(streams),
            proptest::collection::vec((0..streams as u16, 0u64..6), 20..max_n),
        )
    })
}

fn catalog_and_spec(streams: usize, window: usize) -> (Catalog, PlanSpec, Vec<String>) {
    let names: Vec<String> = (0..streams).map(|i| format!("s{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let catalog = Catalog::uniform(&refs, window).unwrap();
    let spec = PlanSpec::left_deep(&refs, JoinStyle::Hash);
    (catalog, spec, names)
}

/// Run an adaptive engine over the arrivals with a reverse-order migration
/// at `transition_at` and — if the engine is quiescent there — a full
/// checkpoint/restore round-trip at `restore_at` (drop the live engine,
/// rebuild from the base-state snapshot, splice the output sink back).
/// With `spill_budget` the engine runs memory-budgeted: the budget is
/// re-attached after the restore (a fresh restore has no cold entries,
/// so re-tiering is legal), exercising spill across every lifecycle edge.
fn run_adaptive(
    strategy: Strategy_,
    streams: usize,
    window: usize,
    arr: &[(u16, u64)],
    restore_at: usize,
    transition_at: usize,
    spill_budget: Option<usize>,
) -> jisc_common::FxHashMap<jisc_common::Lineage, usize> {
    let (catalog, initial, names) = catalog_and_spec(streams, window);
    let mut rev: Vec<&str> = names.iter().map(String::as_str).collect();
    rev.reverse();
    let target = PlanSpec::left_deep(&rev, JoinStyle::Hash);
    let scratch = spill_budget.map(|_| ScratchDir::new("state-eq-adaptive"));
    let spill_cfg = |d: &ScratchDir| {
        SpillConfig::new(
            spill_budget.expect("scratch implies budget"),
            d.path().join("tier"),
        )
    };

    let mut e = AdaptiveEngine::new(catalog.clone(), &initial, strategy).unwrap();
    if let Some(d) = &scratch {
        e.enable_spill(spill_cfg(d)).unwrap();
    }
    for (i, &(s, k)) in arr.iter().enumerate() {
        if i == restore_at {
            if let Some(snap) = e.base_snapshot() {
                let sink = e.take_output();
                drop(e);
                e = AdaptiveEngine::restore(catalog.clone(), &initial, strategy, Some(&snap))
                    .unwrap();
                e.set_output(sink);
                if let Some(d) = &scratch {
                    e.enable_spill(spill_cfg(d)).unwrap();
                }
            }
        }
        if i == transition_at {
            e.transition_to(&target).unwrap();
        }
        e.push(StreamId(s), k, 0).unwrap();
    }
    assert!(
        e.output().is_duplicate_free(),
        "Theorem 3 violated by {strategy:?}"
    );
    e.output().lineage_multiset()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Op-level equivalence: the slab store and the old per-bucket layout
    /// stay observationally identical under arbitrary interleavings of
    /// inserts, window expiries (`remove_containing`), and key drops —
    /// and so do their deep clones (the snapshot/migration path).
    #[test]
    fn slab_matches_old_layout_under_random_ops(ops in store_ops(120)) {
        let mut m = Metrics::new();
        let mut slab = SlabStore::new();
        let mut old = BaselineStore::new();
        let mut log: Vec<(u64, u64)> = Vec::new(); // (seq, key) of every insert
        for (seq, op) in ops.iter().enumerate() {
            match *op {
                StoreOp::Insert { key } => {
                    slab.insert(base(seq as u64, key), &mut m);
                    old.insert(base(seq as u64, key), &mut m);
                    log.push((seq as u64, key));
                }
                StoreOp::RemoveContaining { target } => {
                    if log.is_empty() { continue; }
                    let (s, k) = log[target % log.len()];
                    let a = slab.remove_containing(StreamId(0), s, k, &mut m);
                    let b = old.remove_containing(StreamId(0), s, k, &mut m);
                    prop_assert_eq!(a, b, "remove_containing({}, {})", s, k);
                }
                StoreOp::RemoveKey { key } => {
                    let a = slab.remove_key(key, &mut m);
                    let b = old.remove_key(key, &mut m);
                    prop_assert_eq!(a, b, "remove_key({})", key);
                }
            }
            prop_assert_eq!(slab.len(), old.len());
        }
        prop_assert_eq!(slab.key_count(), old.key_count());
        prop_assert_eq!(observe_slab(&slab, &mut m), observe_baseline(&old, &mut m));
        // The snapshot path: a deep clone must observe identically.
        prop_assert_eq!(
            observe_slab(&slab.clone(), &mut m),
            observe_baseline(&old.clone(), &mut m)
        );
    }

    /// The columnar flush is a pure performance change: partitioning the
    /// same arrival sequence into arbitrary batches and ingesting via
    /// `push_columnar` yields exactly the serial `push` lineage multiset.
    #[test]
    fn batched_ingest_matches_serial(
        (streams, arr) in arrivals(4, 160),
        window in 4usize..24,
        cuts in proptest::collection::vec(1usize..16, 1..24),
    ) {
        let (catalog, spec, _) = catalog_and_spec(streams, window);
        let mut serial = Pipeline::new(catalog.clone(), &spec).unwrap();
        for &(s, k) in &arr {
            serial.push(StreamId(s), k, 0).unwrap();
        }

        let mut batched = Pipeline::new(catalog, &spec).unwrap();
        let mut i = 0;
        let mut cut = cuts.iter().cycle();
        while i < arr.len() {
            let end = (i + cut.next().unwrap()).min(arr.len());
            let mut batch = ColumnarBatch::new(end - i);
            for &(s, k) in &arr[i..end] {
                batch.push(StreamId(s), k, 0).unwrap();
            }
            batched.push_columnar(&batch).unwrap();
            i = end;
        }

        prop_assert!(batched.output.is_duplicate_free());
        prop_assert_eq!(
            batched.output.lineage_multiset(),
            serial.output.lineage_multiset()
        );
    }

    /// Strategy-level equivalence over the slab state: a plain pipeline
    /// and all three adaptive strategies — each with a mid-run migration
    /// and a checkpoint/restore round-trip — produce the same results
    /// while small windows keep the expiry ring churning.
    #[test]
    fn strategies_agree_with_expiry_migration_and_restore(
        (streams, arr) in arrivals(4, 120),
        window in 4usize..10,
        restore_pct in 10u64..45,
        transition_pct in 50u64..90,
    ) {
        let (catalog, spec, _) = catalog_and_spec(streams, window);
        let mut reference = Pipeline::new(catalog, &spec).unwrap();
        for &(s, k) in &arr {
            reference.push(StreamId(s), k, 0).unwrap();
        }
        let expect = reference.output.lineage_multiset();

        let restore_at = arr.len() * restore_pct as usize / 100;
        let transition_at = arr.len() * transition_pct as usize / 100;
        for strategy in [
            Strategy_::Jisc,
            Strategy_::MovingState,
            Strategy_::ParallelTrack { check_period: 5 },
        ] {
            let got = run_adaptive(strategy, streams, window, &arr, restore_at, transition_at, None);
            prop_assert_eq!(&got, &expect, "strategy {:?} diverged", strategy);
        }
    }

    /// Tier-level op equivalence: with the budget forced to one byte the
    /// hot tier can hold nothing, so essentially every entry round-trips
    /// through compressed on-disk segments — and the store must still be
    /// observationally identical to the in-memory baseline under random
    /// inserts, expiries, and key drops, fault-backs included.
    #[test]
    fn spilled_slab_matches_old_layout_under_random_ops(ops in store_ops(100)) {
        let scratch = ScratchDir::new("state-eq-slab");
        let mut m = Metrics::new();
        let mut slab = SlabStore::new();
        slab.enable_spill(SpillConfig::new(1, scratch.path().join("tier"))).unwrap();
        let mut old = BaselineStore::new();
        let mut log: Vec<(u64, u64)> = Vec::new();
        for (seq, op) in ops.iter().enumerate() {
            match *op {
                StoreOp::Insert { key } => {
                    slab.insert(base(seq as u64, key), &mut m);
                    old.insert(base(seq as u64, key), &mut m);
                    log.push((seq as u64, key));
                }
                StoreOp::RemoveContaining { target } => {
                    if log.is_empty() { continue; }
                    let (s, k) = log[target % log.len()];
                    let a = slab.remove_containing(StreamId(0), s, k, &mut m);
                    let b = old.remove_containing(StreamId(0), s, k, &mut m);
                    prop_assert_eq!(a, b, "spilled remove_containing({}, {})", s, k);
                }
                StoreOp::RemoveKey { key } => {
                    let a = slab.remove_key(key, &mut m);
                    let b = old.remove_key(key, &mut m);
                    prop_assert_eq!(a, b, "spilled remove_key({})", key);
                }
            }
            prop_assert_eq!(slab.len(), old.len());
        }
        if !log.is_empty() {
            prop_assert!(m.spill_evictions > 0, "a 1-byte budget must evict");
        }
        prop_assert_eq!(slab.key_count(), old.key_count());
        // The snapshot path first: a deep clone (shared segment files)
        // must observe identically, before fault-backs mutate the source.
        prop_assert_eq!(
            observe_spilled_slab(&mut slab.clone(), &mut m),
            observe_baseline(&old.clone(), &mut m)
        );
        prop_assert_eq!(
            observe_spilled_slab(&mut slab, &mut m),
            observe_baseline(&old, &mut m)
        );
    }
}

proptest! {
    // The spilled strategy sweep runs four engines per case with every
    // entry thrashing through disk; fewer cases keep the suite honest
    // without dominating it.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tier-level strategy equivalence: a tiny budget (everything cold)
    /// must leave all four strategies — plain pipelined plus the three
    /// adaptive ones, each with a mid-run migration and a
    /// checkpoint/restore round-trip — lineage-identical to the
    /// unbounded in-memory reference while expiry churns the ring.
    #[test]
    fn spilled_strategies_agree_with_expiry_migration_and_restore(
        (streams, arr) in arrivals(4, 90),
        window in 4usize..10,
        restore_pct in 10u64..45,
        transition_pct in 50u64..90,
    ) {
        let (catalog, spec, _) = catalog_and_spec(streams, window);
        let mut reference = Pipeline::new(catalog.clone(), &spec).unwrap();
        for &(s, k) in &arr {
            reference.push(StreamId(s), k, 0).unwrap();
        }
        let expect = reference.output.lineage_multiset();

        // Plain pipelined under the budget.
        let scratch = ScratchDir::new("state-eq-plain");
        let mut plain = Pipeline::new(catalog, &spec).unwrap();
        plain.enable_spill(SpillConfig::new(64, scratch.path().join("tier"))).unwrap();
        for &(s, k) in &arr {
            plain.push(StreamId(s), k, 0).unwrap();
        }
        prop_assert!(plain.output.is_duplicate_free());
        prop_assert_eq!(plain.output.lineage_multiset(), expect.clone());
        prop_assert!(
            plain.metrics.spill_evictions > 0,
            "the tiny budget must force the cold tier into play"
        );

        let restore_at = arr.len() * restore_pct as usize / 100;
        let transition_at = arr.len() * transition_pct as usize / 100;
        for strategy in [
            Strategy_::Jisc,
            Strategy_::MovingState,
            Strategy_::ParallelTrack { check_period: 5 },
        ] {
            let got = run_adaptive(
                strategy, streams, window, &arr, restore_at, transition_at, Some(64),
            );
            prop_assert_eq!(&got, &expect, "spilled strategy {:?} diverged", strategy);
        }
    }

    /// The hash-chained durable manifest must reject *any* single flipped
    /// byte — in the checkpoint payload (caught by the per-file FNV) or
    /// in the manifest itself (caught by the chain) — as a recovery
    /// error, never a silent fresh start or a wrong restore.
    #[test]
    fn durable_manifest_rejects_any_flipped_byte(
        n in 40usize..120,
        target_sel in 0u64..2,
        pos_seed in 0u64..1_000_000,
    ) {
        let corrupt_manifest = target_sel == 0;
        let scratch = ScratchDir::new("state-eq-durable");
        let (catalog, spec, _) = catalog_and_spec(3, 12);
        let mut p = Pipeline::new(catalog, &spec).unwrap();
        for i in 0..n {
            p.push(StreamId((i % 3) as u16), (i as u64 * 7 + 3) % 5, 0).unwrap();
        }
        let snap = p.snapshot_base_state().expect("hash plans snapshot");
        let mut store = DurableCheckpointStore::open(scratch.path()).unwrap();
        store.persist(&snap, n as u64).unwrap();
        drop(store);

        // Pick the victim file and flip one byte somewhere inside it.
        let manifest = DurableCheckpointStore::manifest_path(scratch.path());
        let victim = if corrupt_manifest {
            manifest
        } else {
            std::fs::read_dir(scratch.path())
                .unwrap()
                .flatten()
                .map(|e| e.path())
                .find(|q| q.extension().is_some_and(|x| x == "jspl"))
                .expect("persist wrote a checkpoint segment")
        };
        let mut bytes = std::fs::read(&victim).unwrap();
        prop_assume!(!bytes.is_empty());
        let at = (pos_seed % bytes.len() as u64) as usize;
        bytes[at] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        prop_assert!(
            DurableCheckpointStore::recover_latest(scratch.path()).is_err(),
            "flipped byte at {} of {:?} must fail recovery",
            at,
            victim.file_name()
        );
    }
}
