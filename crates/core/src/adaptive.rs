//! The public facade: one engine, pluggable migration strategy.

use jisc_common::{ColumnarBatch, Event, JiscError, Key, Metrics, Result, StreamId};
use jisc_engine::{BaseStateSnapshot, Catalog, OutputSink, Pipeline, PlanSpec};
use serde::{Deserialize, Serialize};

use crate::jisc::JiscExec;
use crate::moving_state::MovingStateExec;
use crate::parallel_track::ParallelTrackExec;
use crate::recovery::{restore_pipeline, RecoveryMode};

/// Which plan-migration strategy drives transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Just-In-Time State Completion (§4) — the paper's contribution.
    Jisc,
    /// Eager migration: halt and rebuild missing states (§3.2).
    MovingState,
    /// Run old and new plans in parallel with duplicate elimination (§3.3).
    ParallelTrack {
        /// Arrivals between old-plan discard sweeps.
        check_period: u64,
    },
}

#[derive(Debug)]
enum Inner {
    Jisc(JiscExec),
    Ms(MovingStateExec),
    Pt(ParallelTrackExec),
}

/// An adaptive stream-join engine: push tuples, read output, and switch
/// query plans at runtime without stopping the query.
///
/// ```
/// use jisc_core::{AdaptiveEngine, Strategy};
/// use jisc_engine::{Catalog, JoinStyle, PlanSpec};
///
/// let catalog = Catalog::uniform(&["R", "S", "T"], 1000).unwrap();
/// let plan = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
/// let mut engine = AdaptiveEngine::new(catalog, &plan, Strategy::Jisc).unwrap();
/// engine.push_named("R", 7, 0).unwrap();
/// engine.push_named("S", 7, 0).unwrap();
/// engine.push_named("T", 7, 0).unwrap();
/// assert_eq!(engine.output().count(), 1);
///
/// // The optimizer decides S and T should swap: migrate without halting.
/// let better = PlanSpec::left_deep(&["R", "T", "S"], JoinStyle::Hash);
/// engine.transition_to(&better).unwrap();
/// engine.push_named("R", 7, 1).unwrap(); // keeps producing output
/// assert_eq!(engine.output().count(), 2);
/// ```
#[derive(Debug)]
pub struct AdaptiveEngine {
    inner: Inner,
    strategy: Strategy,
}

impl AdaptiveEngine {
    /// Build an engine over `catalog` running `spec` under `strategy`.
    pub fn new(catalog: Catalog, spec: &PlanSpec, strategy: Strategy) -> Result<Self> {
        let inner = match strategy {
            Strategy::Jisc => Inner::Jisc(JiscExec::new(catalog, spec)?),
            Strategy::MovingState => Inner::Ms(MovingStateExec::new(catalog, spec)?),
            Strategy::ParallelTrack { check_period } => {
                Inner::Pt(ParallelTrackExec::new(catalog, spec, check_period)?)
            }
        };
        Ok(AdaptiveEngine { inner, strategy })
    }

    /// The strategy this engine was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Process one arrival to quiescence.
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        match &mut self.inner {
            Inner::Jisc(e) => e.push(stream, key, payload),
            Inner::Ms(e) => e.push(stream, key, payload),
            Inner::Pt(e) => e.push(stream, key, payload),
        }
    }

    /// Process one arrival by stream name.
    pub fn push_named(&mut self, stream: &str, key: Key, payload: u64) -> Result<()> {
        match &mut self.inner {
            Inner::Jisc(e) => e.push_named(stream, key, payload),
            Inner::Ms(e) => e.push_named(stream, key, payload),
            Inner::Pt(e) => e.push_named(stream, key, payload),
        }
    }

    /// Process one arrival carrying an explicit timestamp (time windows).
    pub fn push_at(&mut self, stream: StreamId, key: Key, payload: u64, ts: u64) -> Result<()> {
        match &mut self.inner {
            Inner::Jisc(e) => e.push_at(stream, key, payload, ts),
            Inner::Ms(e) => e.push_at(stream, key, payload, ts),
            Inner::Pt(e) => e.push_at(stream, key, payload, ts),
        }
    }

    /// Process a whole columnar batch to quiescence through the vectorized
    /// kernel path.
    pub fn push_columnar(&mut self, batch: &ColumnarBatch) -> Result<()> {
        match &mut self.inner {
            Inner::Jisc(e) => e.push_columnar(batch),
            Inner::Ms(e) => e.push_columnar(batch),
            Inner::Pt(e) => e.push_columnar(batch),
        }
    }

    /// Consume one in-band event (data batch, watermark punctuation,
    /// migration barrier, or flush) — the unified ingest surface every
    /// strategy shares.
    pub fn on_event(&mut self, ev: Event<PlanSpec>) -> Result<()> {
        match &mut self.inner {
            Inner::Jisc(e) => e.on_event(ev),
            Inner::Ms(e) => e.on_event(ev),
            Inner::Pt(e) => e.on_event(ev),
        }
    }

    /// Migrate to an equivalent plan at runtime.
    pub fn transition_to(&mut self, new_spec: &PlanSpec) -> Result<()> {
        match &mut self.inner {
            Inner::Jisc(e) => e.transition_to(new_spec),
            Inner::Ms(e) => e.transition_to(new_spec),
            Inner::Pt(e) => e.transition_to(new_spec),
        }
    }

    /// The query output (merged across plans for Parallel Track).
    pub fn output(&self) -> &OutputSink {
        match &self.inner {
            Inner::Jisc(e) => &e.pipeline().output,
            Inner::Ms(e) => &e.pipeline().output,
            Inner::Pt(e) => &e.output,
        }
    }

    /// Execution counters (merged across plans for Parallel Track).
    pub fn metrics(&self) -> Metrics {
        match &self.inner {
            Inner::Jisc(e) => e.pipeline().metrics.clone(),
            Inner::Ms(e) => e.pipeline().metrics.clone(),
            Inner::Pt(e) => e.metrics(),
        }
    }

    /// The stream catalog.
    pub fn catalog(&self) -> &Catalog {
        match &self.inner {
            Inner::Jisc(e) => e.pipeline().catalog(),
            Inner::Ms(e) => e.pipeline().catalog(),
            Inner::Pt(e) => e.catalog(),
        }
    }

    /// Plans currently executing (always 1 except Parallel Track migration).
    pub fn active_plans(&self) -> usize {
        match &self.inner {
            Inner::Pt(e) => e.active_plans(),
            _ => 1,
        }
    }

    /// States currently marked incomplete (JISC only; 0 otherwise).
    pub fn incomplete_states(&self) -> usize {
        match &self.inner {
            Inner::Jisc(e) => e.incomplete_states(),
            _ => 0,
        }
    }

    /// Direct access to the JISC executor, if that is the strategy.
    pub fn as_jisc(&self) -> Option<&JiscExec> {
        match &self.inner {
            Inner::Jisc(e) => Some(e),
            _ => None,
        }
    }

    /// Direct access to the Parallel Track executor, if that is the strategy.
    pub fn as_parallel_track(&self) -> Option<&ParallelTrackExec> {
        match &self.inner {
            Inner::Pt(e) => Some(e),
            _ => None,
        }
    }

    /// The running plan's pipeline (state, kernel counters, spill tier);
    /// `None` while a Parallel Track migration still runs two tracks.
    pub fn pipeline(&self) -> Option<&Pipeline> {
        match &self.inner {
            Inner::Jisc(e) => Some(e.pipeline()),
            Inner::Ms(e) => Some(e.pipeline()),
            Inner::Pt(e) => e.sole_pipeline(),
        }
    }

    /// Mutable [`Self::pipeline`]. Refuses `op` while a Parallel Track
    /// migration runs two tracks: they hold overlapping state for the same
    /// keys, so no single pipeline stands for the engine until the old track
    /// retires.
    fn pipeline_mut(&mut self, op: &str) -> Result<&mut Pipeline> {
        match &mut self.inner {
            Inner::Jisc(e) => Ok(e.pipeline_mut()),
            Inner::Ms(e) => Ok(e.pipeline_mut()),
            Inner::Pt(e) => e.sole_pipeline_mut().ok_or_else(|| {
                JiscError::InvalidConfig(format!(
                    "cannot {op} while a Parallel Track migration runs two plans; \
                     retry after the old track retires"
                ))
            }),
        }
    }

    /// How restored or installed derived state comes back: just-in-time
    /// completion under [`Strategy::Jisc`], eager Moving State rebuild under
    /// the strategies whose semantics have no completion machinery.
    fn recovery_mode(&self) -> RecoveryMode {
        match self.strategy {
            Strategy::Jisc => RecoveryMode::JustInTime,
            _ => RecoveryMode::Eager,
        }
    }

    // ----- crash recovery -----

    /// Capture a lightweight base-state checkpoint: window rings, freshness
    /// maps, and clocks — no derived operator states (see
    /// [`BaseStateSnapshot`]). Returns `None` when the engine cannot be
    /// snapshotted right now: mid-event, an aggregate plan, or a Parallel
    /// Track migration still running retiring plans.
    pub fn base_snapshot(&self) -> Option<BaseStateSnapshot> {
        self.pipeline().and_then(Pipeline::snapshot_base_state)
    }

    /// Rebuild an engine after a crash. `spec` must be the plan that was
    /// active when `snap` was taken. With `Some(snap)` the base state is
    /// restored and the derived states are brought back per strategy —
    /// just-in-time completion for [`Strategy::Jisc`] (the recovery *is* a
    /// state completion), eager Moving State rebuild otherwise. With `None`
    /// (no checkpoint yet) this is simply a fresh engine; the caller's
    /// replay reconstructs everything. Restoring emits no output.
    pub fn restore(
        catalog: Catalog,
        spec: &PlanSpec,
        strategy: Strategy,
        snap: Option<&BaseStateSnapshot>,
    ) -> Result<Self> {
        let mut engine = AdaptiveEngine::new(catalog, spec, strategy)?;
        if let Some(snap) = snap {
            let mode = engine.recovery_mode();
            restore_pipeline(engine.pipeline_mut("restore a checkpoint")?, snap, mode)?;
        }
        Ok(engine)
    }

    // ----- elastic repartitioning -----

    /// Extract everything this engine holds for keys hashing into `ranges`
    /// (elastic range handover, source side; see [`crate::rescale`]). Errors
    /// while a Parallel Track migration still runs more than one plan — the
    /// two tracks hold overlapping state for the same keys, so a per-range
    /// cut is not well defined until the old track retires.
    pub fn extract_range(
        &mut self,
        ranges: &[jisc_common::KeyRange],
    ) -> Result<jisc_engine::BaseRangeExport> {
        crate::rescale::extract_range(self.pipeline_mut("extract a key range")?, ranges)
    }

    /// Install an extracted range (elastic handover, target side): the base
    /// slice is absorbed and the moved keys become just-in-time completion
    /// debt under [`Strategy::Jisc`] — probed keys complete first while
    /// ingest continues — or are materialized eagerly under the strategies
    /// whose runtime semantics have no completion machinery.
    pub fn install_range(&mut self, export: &jisc_engine::BaseRangeExport) -> Result<()> {
        let mode = self.recovery_mode();
        crate::rescale::install_range(self.pipeline_mut("install a key range")?, export, mode)
    }

    // ----- memory-budgeted tiered state -----

    /// Attach a hot-memory budget with an on-disk cold tier (spill) to the
    /// running plan's hash states; see [`jisc_engine::SpillConfig`]. The
    /// budget follows the engine across migrations — states a transition
    /// creates are tiered under the same per-state share. Parallel Track
    /// accepts this only while a single track runs (the new track a
    /// migration starts is not tiered; its state is transient).
    pub fn enable_spill(&mut self, cfg: jisc_engine::SpillConfig) -> Result<()> {
        self.pipeline_mut("enable spill")?.enable_spill(cfg)
    }

    /// Cold-tier occupancy summed over the running plan's states, `None`
    /// while spill is not enabled (or during a two-track Parallel Track
    /// migration, whose transient new track is not tiered).
    pub fn spill_stats(&self) -> Option<jisc_engine::SpillStats> {
        self.pipeline().and_then(Pipeline::spill_stats)
    }

    /// Estimated hot-tier bytes across the running plan's states.
    pub fn hot_bytes(&self) -> usize {
        self.pipeline().map_or(0, Pipeline::hot_bytes)
    }

    /// Move the accumulated output out of the engine, leaving it empty —
    /// used by checkpointing to drain results that are now durable.
    pub fn take_output(&mut self) -> OutputSink {
        match &mut self.inner {
            Inner::Jisc(e) => std::mem::take(&mut e.pipeline_mut().output),
            Inner::Ms(e) => std::mem::take(&mut e.pipeline_mut().output),
            Inner::Pt(e) => std::mem::take(&mut e.output),
        }
    }

    /// Replace the engine's output sink — used after [`Self::restore`] to
    /// reinstate output saved alongside the checkpoint.
    pub fn set_output(&mut self, sink: OutputSink) {
        match &mut self.inner {
            Inner::Jisc(e) => e.pipeline_mut().output = sink,
            Inner::Ms(e) => e.pipeline_mut().output = sink,
            Inner::Pt(e) => e.output = sink,
        }
    }
}
