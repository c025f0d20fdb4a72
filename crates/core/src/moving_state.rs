//! The Moving State Strategy (§3.2), the eager baseline.
//!
//! On a plan transition the execution halts, every state missing from the
//! new plan is computed *all at once* from the children's states, and only
//! then does processing resume. Correct and simple, but the recomputation
//! is `O(w^2)` per join level (§5.1.1) — in this synchronous engine the
//! halt shows up as a burst of work inside [`MovingStateExec::transition_to`]
//! and as the large armed-latency mark the paper plots in Figure 10.

use jisc_common::{ColumnarBatch, Event, FxHashSet, Key, Result, StreamId};
use jisc_engine::{Catalog, DefaultSemantics, Pipeline, PlanSpec, Signature};

use crate::jisc::apply_event;
use crate::migrate::{build_state_eagerly, is_binary, verify_reorderable, verify_same_query};

/// Eager-migration executor.
#[derive(Debug)]
pub struct MovingStateExec {
    pipe: Pipeline,
}

impl MovingStateExec {
    /// Build over a catalog and initial plan.
    pub fn new(catalog: Catalog, spec: &PlanSpec) -> Result<Self> {
        let pipe = Pipeline::new(catalog, spec)?;
        Ok(MovingStateExec { pipe })
    }

    /// Process one arrival to quiescence (plain pipelined semantics — all
    /// states are always complete under this strategy).
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        self.pipe.push(stream, key, payload)
    }

    /// Process one arrival by stream name.
    pub fn push_named(&mut self, stream: &str, key: Key, payload: u64) -> Result<()> {
        let id = self.pipe.catalog().id(stream)?;
        self.push(id, key, payload)
    }

    /// Process one arrival carrying an explicit timestamp (time windows).
    pub fn push_at(&mut self, stream: StreamId, key: Key, payload: u64, ts: u64) -> Result<()> {
        self.pipe.push_at(stream, key, payload, ts)
    }

    /// Process a whole columnar batch through the vectorized kernel path.
    pub fn push_columnar(&mut self, batch: &ColumnarBatch) -> Result<()> {
        self.pipe.push_columnar(batch)
    }

    /// Consume one in-band event. A migration barrier performs this
    /// strategy's eager halt-and-rebuild transition; everything else is
    /// [`apply_event`] under plain semantics.
    pub fn on_event(&mut self, ev: Event<PlanSpec>) -> Result<()> {
        match ev {
            Event::MigrationBarrier(spec) => self.transition_to(&spec),
            ev => apply_event(&mut self.pipe, &mut DefaultSemantics, ev),
        }
    }

    /// Migrate eagerly: halt, rebuild every missing state, resume.
    pub fn transition_to(&mut self, new_spec: &PlanSpec) -> Result<()> {
        // Buffer-clearing phase (§4.1) — shared with JISC.
        self.pipe.run_with(&mut DefaultSemantics);
        let new_plan = self.pipe.compile(new_spec)?;
        verify_same_query(self.pipe.plan(), &new_plan)?;
        verify_reorderable(&new_plan)?;
        self.pipe.mark_transition();
        let mut old = self.pipe.replace_plan(new_plan);
        let adopted: FxHashSet<Signature> = self
            .pipe
            .adopt_states(&mut old, |_, _| {})
            .adopted
            .into_iter()
            .collect();
        // Eager recomputation, bottom-up so children are ready first. This
        // is the halt: no tuple is processed until the loop finishes.
        let order: Vec<_> = self.pipe.plan().topo().to_vec();
        for id in order {
            let sig = self.pipe.plan().node(id).signature;
            if adopted.contains(&sig) || !is_binary(self.pipe.plan(), id) {
                continue;
            }
            build_state_eagerly(&mut self.pipe, id);
            self.pipe.metrics.states_incomplete += 1; // states that had to be rebuilt
        }
        Ok(())
    }

    /// The underlying pipeline (output, metrics, plan inspection).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipe
    }

    /// Mutable pipeline access (tests and benches).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::SplitMix64;
    use jisc_engine::{JoinStyle, PlanSpec};

    fn feed(e: &mut MovingStateExec, n: usize, streams: u64, keys: u64, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n {
            e.push(
                StreamId(rng.next_below(streams) as u16),
                rng.next_below(keys),
                0,
            )
            .unwrap();
        }
    }

    #[test]
    fn transition_rebuilds_states_eagerly_and_completely() {
        let streams = ["R", "S", "T", "U"];
        let catalog = Catalog::uniform(&streams, 40).unwrap();
        let spec = PlanSpec::left_deep(&streams, JoinStyle::Hash);
        let mut e = MovingStateExec::new(catalog.clone(), &spec).unwrap();
        feed(&mut e, 400, 4, 8, 1);
        let target = PlanSpec::left_deep(&["U", "S", "T", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        assert!(
            e.pipeline().metrics.eager_entries_built > 0,
            "must rebuild now"
        );
        // Every state is complete immediately after an eager migration.
        for id in e.pipeline().plan().ids() {
            assert!(e.pipeline().plan().node(id).state.is_complete());
        }
        // Reference: a fresh engine that always ran the target plan has
        // byte-identical state sizes after the same input.
        let mut fresh = MovingStateExec::new(catalog, &target).unwrap();
        feed(&mut fresh, 400, 4, 8, 1);
        for id in e.pipeline().plan().ids() {
            let sig = e.pipeline().plan().node(id).signature;
            let fresh_len = fresh
                .pipeline()
                .plan()
                .ids()
                .find(|&j| fresh.pipeline().plan().node(j).signature == sig)
                .map(|j| fresh.pipeline().plan().node(j).state.len())
                .expect("same signatures");
            assert_eq!(
                e.pipeline().plan().node(id).state.len(),
                fresh_len,
                "rebuilt state differs from never-migrated reference"
            );
        }
    }

    #[test]
    fn eager_migration_latency_dwarfs_jisc() {
        // The armed latency mark captures the work burst of the halt.
        let streams = ["R", "S", "T"];
        let catalog = Catalog::uniform(&streams, 200).unwrap();
        let spec = PlanSpec::left_deep(&streams, JoinStyle::Hash);
        let target = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);

        let mut ms = MovingStateExec::new(catalog.clone(), &spec).unwrap();
        feed(&mut ms, 2_000, 3, 200, 2);
        ms.transition_to(&target).unwrap();
        feed(&mut ms, 500, 3, 200, 3);

        let mut jisc = crate::jisc::JiscExec::new(catalog, &spec).unwrap();
        let mut rng = SplitMix64::new(2);
        for _ in 0..2_000 {
            jisc.push(StreamId(rng.next_below(3) as u16), rng.next_below(200), 0)
                .unwrap();
        }
        jisc.transition_to(&target).unwrap();
        let mut rng = SplitMix64::new(3);
        for _ in 0..500 {
            jisc.push(StreamId(rng.next_below(3) as u16), rng.next_below(200), 0)
                .unwrap();
        }

        let l_ms = *ms
            .pipeline()
            .output
            .latency_marks
            .first()
            .expect("MS emitted");
        let l_jisc = *jisc
            .pipeline()
            .output
            .latency_marks
            .first()
            .expect("JISC emitted");
        assert!(
            l_ms > 5 * l_jisc.max(1),
            "eager rebuild work ({l_ms}) must dwarf lazy completion ({l_jisc})"
        );
    }
}
