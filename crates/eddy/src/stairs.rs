//! STAIRs (Deshpande & Hellerstein) and JISC-on-STAIRs (§3.2, §4.6).
//!
//! STAIRs put the join state *back* into the eddy framework: each join is
//! split into a pair of dual state modules holding intermediate results,
//! and the eddy routes every tuple through them (insert into one STAIR,
//! probe its dual). When the routing policy changes, state entries are
//! migrated with `Promote` (push an entry into a higher intermediate state
//! by joining) and `Demote` (tear an intermediate entry back down).
//!
//! As §4.6 observes, eager STAIRs migration *is* the Moving State strategy
//! inside an eddy, and JISC applies directly: demote (discard) the states
//! missing from the new routing's logical plan, classify the rest per
//! Definition 1, and promote on demand. We model the STAIRs runtime as the
//! pipelined engine's operator tree for the current routing order — the
//! intermediate states are identical — plus the eddy's per-hop routing
//! cost, which is what distinguishes eddy execution (every tuple movement
//! passes through the eddy router; `eddy_hops` counts them).

use jisc_common::{Key, Metrics, Result, StreamId};
use jisc_core::jisc::JiscSemantics;
use jisc_core::migrate::{build_state_eagerly, is_binary, verify_same_query};
use jisc_engine::{
    Catalog, JoinStyle, NodeId, OutputSink, Pipeline, PlanSpec, QueueItem, Semantics,
};

/// How STAIRs migrate state when the routing policy changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StairsMode {
    /// Eager promote/demote at transition time — the original STAIRs
    /// policy, equivalent to Moving State (§4.6).
    Eager,
    /// JISC applied to STAIRs: demote at transition, promote on demand.
    JiscLazy,
}

/// Counts an eddy hop for every item an operator processes, then delegates.
#[derive(Debug)]
struct EddyRouted<S: Semantics> {
    inner: S,
}

impl<S: Semantics> Semantics for EddyRouted<S> {
    fn process(&mut self, p: &mut Pipeline, node: NodeId, item: QueueItem) {
        // Every tuple movement between state modules passes the eddy.
        p.metrics.eddy_hops += 1;
        self.inner.process(p, node, item);
    }
}

/// STAIRs executor over an equi-join of all catalog streams.
#[derive(Debug)]
pub struct StairsExec {
    pipe: Pipeline,
    mode: StairsMode,
    lazy_sem: EddyRouted<JiscSemantics>,
    eager_sem: EddyRouted<jisc_engine::DefaultSemantics>,
}

impl StairsExec {
    /// Build with the given routing order (stream names, outermost first).
    pub fn new(catalog: Catalog, routing: &[&str], mode: StairsMode) -> Result<Self> {
        let spec = PlanSpec::left_deep(routing, JoinStyle::Hash);
        let pipe = Pipeline::new(catalog, &spec)?;
        Ok(StairsExec {
            pipe,
            mode,
            lazy_sem: EddyRouted {
                inner: JiscSemantics::default(),
            },
            eager_sem: EddyRouted {
                inner: jisc_engine::DefaultSemantics,
            },
        })
    }

    /// The migration mode.
    pub fn mode(&self) -> StairsMode {
        self.mode
    }

    /// Process one arrival through the eddy.
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        match self.mode {
            StairsMode::Eager => self
                .pipe
                .push_with(&mut self.eager_sem, stream, key, payload),
            StairsMode::JiscLazy => self
                .pipe
                .push_with(&mut self.lazy_sem, stream, key, payload),
        }
    }

    /// Process one arrival by stream name.
    pub fn push_named(&mut self, stream: &str, key: Key, payload: u64) -> Result<()> {
        let id = self.pipe.catalog().id(stream)?;
        self.push(id, key, payload)
    }

    /// Change the routing policy. Eager mode performs all Promote/Demote
    /// operations now (a halt); lazy mode demotes and promotes on demand.
    pub fn reroute(&mut self, routing: &[&str]) -> Result<()> {
        let new_spec = PlanSpec::left_deep(routing, JoinStyle::Hash);
        match self.mode {
            StairsMode::JiscLazy => {
                // Demote at transition (states discarded inside the JISC
                // transition); promotions happen on demand and are counted
                // by the completion machinery as they occur.
                jisc_core::jisc::jisc_transition(&mut self.pipe, &new_spec)
            }
            StairsMode::Eager => {
                self.pipe.run_with(&mut self.eager_sem);
                let new_plan = self.pipe.compile(&new_spec)?;
                verify_same_query(self.pipe.plan(), &new_plan)?;
                self.pipe.mark_transition();
                let mut old = self.pipe.replace_plan(new_plan);
                let outcome = self.pipe.adopt_states(&mut old, |_, _| {});
                let adopted: jisc_common::FxHashSet<_> = outcome.adopted.into_iter().collect();
                // Demote: every entry of a state that did not survive.
                let demoted: u64 = outcome
                    .discarded
                    .iter()
                    .map(|(_, st)| st.len() as u64)
                    .sum();
                self.pipe.metrics.demotes += demoted;
                // Promote: eagerly rebuild every missing state, bottom-up.
                let order: Vec<_> = self.pipe.plan().topo().to_vec();
                for id in order {
                    let sig = self.pipe.plan().node(id).signature;
                    if adopted.contains(&sig) || !is_binary(self.pipe.plan(), id) {
                        continue;
                    }
                    let built = build_state_eagerly(&mut self.pipe, id);
                    self.pipe.metrics.promotes += built;
                }
                Ok(())
            }
        }
    }

    /// Query output.
    pub fn output(&self) -> &OutputSink {
        &self.pipe.output
    }

    /// Execution counters.
    pub fn metrics(&self) -> &Metrics {
        &self.pipe.metrics
    }

    /// The underlying pipeline (tests and benches).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::SplitMix64;

    fn workload(n: usize, streams: u16, keys: u64, seed: u64) -> Vec<(u16, u64)> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (rng.next_below(streams as u64) as u16, rng.next_below(keys)))
            .collect()
    }

    #[test]
    fn eager_and_lazy_agree_with_each_other() {
        let streams = ["R", "S", "T", "U"];
        let arrivals = workload(500, 4, 8, 11);
        let catalog = Catalog::uniform(&streams, 30).unwrap();
        let mut outs = Vec::new();
        for mode in [StairsMode::Eager, StairsMode::JiscLazy] {
            let mut e = StairsExec::new(catalog.clone(), &streams, mode).unwrap();
            for (i, &(s, k)) in arrivals.iter().enumerate() {
                if i == 250 {
                    e.reroute(&["R", "U", "T", "S"]).unwrap();
                }
                e.push(StreamId(s), k, 0).unwrap();
            }
            let mut v: Vec<_> = e.output().log.iter().map(|t| t.lineage()).collect();
            v.sort();
            outs.push(v);
        }
        assert_eq!(outs[0], outs[1], "eager and lazy STAIRs diverged");
        assert!(!outs[0].is_empty());
    }

    #[test]
    fn eager_reroute_promotes_eagerly_lazy_does_not() {
        let streams = ["R", "S", "T"];
        let arrivals = workload(300, 3, 4, 12);
        let catalog = Catalog::uniform(&streams, 40).unwrap();

        let mut eager = StairsExec::new(catalog.clone(), &streams, StairsMode::Eager).unwrap();
        let mut lazy = StairsExec::new(catalog, &streams, StairsMode::JiscLazy).unwrap();
        for &(s, k) in &arrivals {
            eager.push(StreamId(s), k, 0).unwrap();
            lazy.push(StreamId(s), k, 0).unwrap();
        }
        eager.reroute(&["T", "S", "R"]).unwrap();
        lazy.reroute(&["T", "S", "R"]).unwrap();
        assert!(
            eager.metrics().promotes > 0,
            "eager reroute must promote now"
        );
        assert!(
            eager.metrics().demotes > 0,
            "eager reroute must demote old states"
        );
        assert_eq!(
            lazy.metrics().eager_entries_built,
            0,
            "lazy reroute must not rebuild anything at transition time"
        );
    }

    #[test]
    fn hops_are_counted() {
        let catalog = Catalog::uniform(&["R", "S"], 10).unwrap();
        let mut e = StairsExec::new(catalog, &["R", "S"], StairsMode::Eager).unwrap();
        e.push(StreamId(0), 1, 0).unwrap();
        e.push(StreamId(1), 1, 0).unwrap();
        assert!(e.metrics().eddy_hops >= 2);
        assert_eq!(e.output().count(), 1);
    }
}
