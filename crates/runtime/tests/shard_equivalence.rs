//! Property test: the sharded executor is observationally equivalent to a
//! serial pipeline on key-partitionable workloads.
//!
//! Random multi-stream scenarios — including mid-stream JISC migrations at
//! random points — are run through a serial [`Pipeline`] and through
//! [`ShardedExecutor`] at N ∈ {1, 2, 4}; the output lineage multisets must
//! be identical. Time-windowed cases exercise expiry (per-shard expiry is
//! exact); count-windowed cases use windows at least as large as the
//! arrival count, where count windows are exact too (nothing ever evicts).

use jisc_common::{Lineage, StreamId};
use jisc_core::jisc::{jisc_transition, JiscSemantics};
use jisc_engine::{Catalog, JoinStyle, Pipeline, PlanSpec, StreamDef};
use jisc_runtime::shard::{ShardedConfig, ShardedExecutor};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    /// Stream names, 3..=5 of them.
    names: Vec<String>,
    /// Time-window ticks, or `None` for a never-evicting count window.
    ticks: Option<u64>,
    /// `(stream, key)` arrivals.
    arrivals: Vec<(u16, u64)>,
    /// Arrival indices at which a migration (leaf rotation) fires.
    migrations: Vec<usize>,
}

impl Case {
    fn catalog(&self) -> Catalog {
        let defs = self
            .names
            .iter()
            .map(|n| match self.ticks {
                Some(t) => StreamDef::timed(n.clone(), t),
                // Count window large enough that nothing ever evicts, so
                // per-shard quotas coincide with the serial window.
                None => StreamDef::new(n.clone(), self.arrivals.len().max(1)),
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
    (3usize..=5, 0usize..3, 30usize..90).prop_flat_map(|(streams, wkind, n)| {
        (
            Just(streams),
            Just(wkind),
            proptest::collection::vec((0..streams as u16, 0u64..9), n),
            proptest::collection::vec(1usize..n, 0..3),
        )
            .prop_map(|(streams, wkind, arrivals, mut migrations)| {
                migrations.sort_unstable();
                migrations.dedup();
                Case {
                    names: (0..streams).map(|i| format!("S{i}")).collect(),
                    // wkind 0: no eviction; 1: slow expiry; 2: fast expiry.
                    ticks: match wkind {
                        0 => None,
                        1 => Some(40),
                        _ => Some(12),
                    },
                    arrivals,
                    migrations,
                }
            })
    })
}

/// Serial reference: plain pipeline with JISC semantics and the same
/// migration schedule.
fn serial_lineages(case: &Case) -> Vec<(Lineage, usize)> {
    let mut pipe = Pipeline::new(case.catalog(), &case.plan(0)).expect("pipeline");
    let mut sem = JiscSemantics::default();
    let mut rot = 0usize;
    for (i, &(s, k)) in case.arrivals.iter().enumerate() {
        if case.migrations.contains(&i) {
            rot += 1;
            jisc_transition(&mut pipe, &case.plan(rot)).expect("transition");
        }
        pipe.push_with(&mut sem, StreamId(s), k, i as u64)
            .expect("push");
    }
    sorted_multiset(pipe.output.lineage_multiset())
}

fn sorted_multiset(m: jisc_common::FxHashMap<Lineage, usize>) -> Vec<(Lineage, usize)> {
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_equals_serial(case in case_strategy()) {
        let expected = serial_lineages(&case);
        for n in [1usize, 2, 4] {
            let config = ShardedConfig {
                shards: n,
                queue_capacity: 32,
                ..ShardedConfig::default()
            };
            let mut exec = ShardedExecutor::spawn_with(case.catalog(), &case.plan(0), config)
                .expect("spawn");
            prop_assert_eq!(exec.shards(), n);
            prop_assert!(exec.is_exact() || case.ticks.is_none());
            let mut rot = 0usize;
            for (i, &(s, k)) in case.arrivals.iter().enumerate() {
                if case.migrations.contains(&i) {
                    rot += 1;
                    exec.transition(&case.plan(rot)).expect("transition");
                }
                exec.push(StreamId(s), k, i as u64).expect("push");
            }
            let report = exec.finish().expect("finish");
            prop_assert_eq!(report.events as usize, case.arrivals.len());
            prop_assert_eq!(report.transitions as usize, case.migrations.len());
            prop_assert!(report.output.is_duplicate_free());
            let got = sorted_multiset(report.output.lineage_multiset());
            prop_assert_eq!(
                &got, &expected,
                "sharded N={} diverged from serial ({} migrations, ticks {:?})",
                n, case.migrations.len(), case.ticks
            );
        }
    }
}
