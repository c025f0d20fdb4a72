//! Property tests for the engine substrate: state bookkeeping and plan
//! compilation invariants under randomized operation sequences.

use jisc_common::{hash_key, BaseTuple, Key, Metrics, SplitMix64, StreamId, Tuple};
use jisc_engine::{
    Catalog, JoinStyle, Plan, PlanSpec, ScratchDir, SlabStore, SpillConfig, State, StoreKind,
    WarmDepth,
};
use proptest::prelude::*;

/// Everything observable about a store: both tiers' sizes, then (cold tier
/// faulted back) the insertion ring and every key's chain, in order.
fn store_contents(
    s: &mut SlabStore,
    m: &mut Metrics,
) -> (usize, usize, Vec<Tuple>, Vec<Vec<Tuple>>) {
    let (len, cold) = (s.len(), s.cold_entries());
    s.fault_in_all(m);
    let ring = s.iter().cloned().collect();
    let chains = (0..12)
        .map(|key| {
            let mut chain = Vec::new();
            s.for_each_match(key, m, |t| chain.push(t.clone()));
            chain
        })
        .collect();
    (len, cold, ring, chains)
}

proptest! {
    /// The staged retract kernel — every warm-up stage over the whole
    /// removal column, then the per-item `remove_containing` loop — leaves
    /// the store, the per-item counts and `Metrics` exactly as the loop
    /// alone does. Columns repeat keys (the second item finds the first's
    /// victim gone, or its index slot tombstoned), name absent seqs and
    /// absent keys, hit multi-entry chains of composites, and — with a
    /// budget of a few entries — keys whose chains are partly or wholly
    /// cold stubs. Inserts between columns recycle freed slots and rehash.
    #[test]
    fn warmed_removal_column_equals_the_plain_loop(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0u64..10, 0u64..1000), 1..40),
                proptest::collection::vec((0u8..8, 0u64..1000), 1..24),
            ),
            1..6,
        ),
        spill in any::<bool>(),
    ) {
        let dirs = [ScratchDir::new("warm-a"), ScratchDir::new("warm-b")];
        let (mut warmed, mut plain) = (SlabStore::new(), SlabStore::new());
        let (mut mw, mut mp) = (Metrics::new(), Metrics::new());
        if spill {
            for (s, d) in [&mut warmed, &mut plain].into_iter().zip(&dirs) {
                let mut cfg = SpillConfig::new(6 * jisc_engine::slab::HOT_ENTRY_EST_BYTES, d.path());
                cfg.segment_target_bytes = 512;
                s.enable_spill(cfg).unwrap();
            }
        }
        let mut bases: Vec<(StreamId, u64, Key, Tuple)> = Vec::new();
        let mut cur = Vec::new();
        for (inserts, removals) in rounds {
            for (key, pick) in inserts {
                let (stream, seq) = (StreamId((pick % 3) as u16), bases.len() as u64);
                let base = Tuple::base(BaseTuple::new(stream, seq, key, 0));
                // Every third insert joins an earlier arrival of the key,
                // as a join state's entries do.
                let partner = bases.iter().rev().find(|b| b.2 == key && b.0 != stream);
                let entry = match partner {
                    Some(p) if pick % 3 == 0 => Tuple::joined(key, p.3.clone(), base.clone()),
                    _ => base.clone(),
                };
                bases.push((stream, seq, key, base));
                warmed.insert(entry.clone(), &mut mw);
                plain.insert(entry, &mut mp);
            }
            let column: Vec<(StreamId, u64, Key)> = removals
                .iter()
                .map(|&(kind, pick)| {
                    let b = &bases[pick as usize % bases.len()];
                    match kind {
                        0 => (b.0, b.1 + 10_000, b.2), // absent seq under a live key
                        1 => (b.0, b.1, 99),           // absent key
                        _ => (b.0, b.1, b.2),
                    }
                })
                .collect();
            warmed.warm(
                WarmDepth::Ring,
                column.len(),
                |i| (hash_key(column[i].2), column[i].2),
                &mut cur,
            );
            for &(stream, seq, key) in &column {
                prop_assert_eq!(
                    warmed.remove_containing(stream, seq, key, &mut mw),
                    plain.remove_containing(stream, seq, key, &mut mp),
                    "removed count of ({}, {}, {})", stream, seq, key
                );
            }
            prop_assert_eq!(warmed.stats(), plain.stats());
        }
        prop_assert_eq!(
            store_contents(&mut warmed, &mut mw),
            store_contents(&mut plain, &mut mp)
        );
        prop_assert_eq!(mw, mp);
    }

    /// State length stays consistent with its contents under arbitrary
    /// interleavings of inserts and removals, for both store layouts.
    #[test]
    fn state_len_is_consistent(
        ops in proptest::collection::vec((0u8..4, 0u64..6, 0u64..50), 1..200),
        hash_layout in any::<bool>(),
    ) {
        let kind = if hash_layout { StoreKind::Hash } else { StoreKind::List };
        let mut st = State::new(kind);
        let mut m = Metrics::new();
        let mut seq = 0u64;
        for (op, key, arg) in ops {
            match op {
                0 | 1 => {
                    st.insert(
                        Tuple::base(BaseTuple::new(StreamId(0), seq, key, 0)),
                        &mut m,
                    );
                    seq += 1;
                }
                2 => {
                    st.remove_containing(StreamId(0), arg, key, &mut m);
                }
                _ => {
                    st.remove_key(key, &mut m);
                }
            }
            let counted: usize = st.iter().count();
            prop_assert_eq!(st.len(), counted, "len cache diverged from contents");
            prop_assert_eq!(st.is_empty(), counted == 0);
            let distinct = st.distinct_key_count();
            prop_assert!(distinct <= counted);
            prop_assert_eq!(distinct, st.distinct_keys().len());
        }
        prop_assert_eq!(m.inserts as usize >= st.len(), true);
    }

    /// Compiled plans are structurally sound for any stream count and any
    /// leaf permutation: topo order is bottom-up, parents link children,
    /// signatures union correctly, and left-deep detection is exact.
    #[test]
    fn plan_compilation_invariants(
        streams in 2usize..10,
        seed in 0u64..500,
        bushy in any::<bool>(),
    ) {
        let mut names: Vec<String> = (0..streams).map(|i| format!("s{i}")).collect();
        SplitMix64::new(seed).shuffle(&mut names);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let catalog = Catalog::uniform(&refs, 10).unwrap();
        let spec = if bushy {
            PlanSpec::bushy(&refs, JoinStyle::Hash)
        } else {
            PlanSpec::left_deep(&refs, JoinStyle::Hash)
        };
        let plan = Plan::compile(&catalog, &spec).unwrap();
        prop_assert_eq!(plan.len(), 2 * streams - 1);
        // topo: children before parents; root last
        let topo = plan.topo();
        prop_assert_eq!(*topo.last().unwrap(), plan.root());
        let pos = |id| topo.iter().position(|&x| x == id).unwrap();
        for id in plan.ids() {
            let n = plan.node(id);
            if let Some(p) = n.parent {
                prop_assert!(pos(id) < pos(p));
                // parent links back
                let pn = plan.node(p);
                prop_assert!(pn.left == Some(id) || pn.right == Some(id));
            } else {
                prop_assert_eq!(id, plan.root());
            }
            if let (Some(l), Some(r)) = (n.left, n.right) {
                let u = plan.node(l).signature.streams.union(plan.node(r).signature.streams);
                prop_assert_eq!(n.signature.streams, u);
            }
        }
        prop_assert_eq!(plan.node(plan.root()).signature.streams.count() as usize, streams);
        if !bushy {
            prop_assert!(plan.is_left_deep());
        } else if streams >= 4 {
            prop_assert!(!plan.is_left_deep());
        }
    }

    /// The engine's output for a two-way join equals the analytic count:
    /// each arrival joins every same-key tuple currently in the opposite
    /// window.
    #[test]
    fn two_way_join_count_matches_math(
        arrivals in proptest::collection::vec((0u16..2, 0u64..5), 1..120),
        window in 1usize..12,
    ) {
        use jisc_engine::Pipeline;
        let catalog = Catalog::uniform(&["R", "S"], window).unwrap();
        let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
        let mut p = Pipeline::new(catalog, &spec).unwrap();
        let mut windows: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut expected = 0usize;
        for &(s, k) in &arrivals {
            let w = &mut windows[s as usize];
            if w.len() == window {
                w.remove(0);
            }
            let opp = &windows[1 - s as usize];
            expected += opp.iter().filter(|&&x| x == k).count();
            windows[s as usize].push(k);
            p.push(StreamId(s), k, 0).unwrap();
        }
        prop_assert_eq!(p.output.count(), expected);
    }
}
