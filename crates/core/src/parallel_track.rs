//! The Parallel Track Strategy (§3.3), the steady-output baseline.
//!
//! On a plan transition the old plan keeps running and a new plan with
//! empty states starts alongside it; every arrival is processed by *both*
//! (throughput halves), their outputs are merged with duplicate
//! elimination, and the old plan is discarded once a periodic sweep finds
//! no pre-transition entry left in any of its states. Overlapped
//! transitions stack additional plans, degrading throughput further — the
//! behaviour §5.1.2 criticizes and Figure 11/12 measure.

use jisc_common::{
    ColumnarBatch, Event, FxHashSet, Key, Lineage, Metrics, Result, SeqNo, StreamId,
};
use jisc_engine::{Catalog, DefaultSemantics, OutputSink, Pipeline, PlanSpec};

use crate::migrate::{verify_reorderable, verify_same_query};

/// One plan running inside the parallel track.
#[derive(Debug)]
struct Track {
    pipe: Pipeline,
    /// Sequence number at which this plan was superseded (`None` = active).
    retired_at: Option<SeqNo>,
}

/// Parallel-track executor: one active plan plus zero or more retiring ones.
#[derive(Debug)]
pub struct ParallelTrackExec {
    catalog: Catalog,
    tracks: Vec<Track>,
    /// Merged, duplicate-eliminated query output.
    pub output: OutputSink,
    dedup: FxHashSet<Lineage>,
    /// Counters for the merge/discard overheads this strategy adds.
    pub extra: Metrics,
    check_period: u64,
    since_check: u64,
}

impl ParallelTrackExec {
    /// Build over a catalog and initial plan. `check_period` is how many
    /// arrivals pass between old-plan discard sweeps (the paper notes this
    /// periodic check as a real overhead; it is counted in
    /// `metrics().discard_checks`).
    pub fn new(catalog: Catalog, spec: &PlanSpec, check_period: u64) -> Result<Self> {
        let pipe = Pipeline::new(catalog.clone(), spec)?;
        Ok(ParallelTrackExec {
            catalog,
            tracks: vec![Track {
                pipe,
                retired_at: None,
            }],
            output: OutputSink::new(),
            dedup: FxHashSet::default(),
            extra: Metrics::new(),
            check_period: check_period.max(1),
            since_check: 0,
        })
    }

    /// Number of plans currently running (1 outside migration).
    pub fn active_plans(&self) -> usize {
        self.tracks.len()
    }

    /// Total work performed across all plans plus merge overhead.
    pub fn work_now(&self) -> u64 {
        self.tracks
            .iter()
            .map(|t| t.pipe.metrics.total_work())
            .sum::<u64>()
            + self.extra.total_work()
    }

    /// Process one arrival through every running plan, merge outputs, and
    /// periodically sweep retiring plans for discard.
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        for t in &mut self.tracks {
            t.pipe.push(stream, key, payload)?;
        }
        self.merge_outputs();
        self.since_check += 1;
        if self.tracks.len() > 1 && self.since_check >= self.check_period {
            self.since_check = 0;
            self.discard_sweep();
        }
        Ok(())
    }

    /// Process one arrival by stream name.
    pub fn push_named(&mut self, stream: &str, key: Key, payload: u64) -> Result<()> {
        let id = self.catalog.id(stream)?;
        self.push(id, key, payload)
    }

    /// Process one arrival carrying an explicit timestamp (time windows).
    pub fn push_at(&mut self, stream: StreamId, key: Key, payload: u64, ts: u64) -> Result<()> {
        for t in &mut self.tracks {
            t.pipe.push_at(stream, key, payload, ts)?;
        }
        self.merge_outputs();
        self.since_check += 1;
        if self.tracks.len() > 1 && self.since_check >= self.check_period {
            self.since_check = 0;
            self.discard_sweep();
        }
        Ok(())
    }

    /// Process a whole columnar batch through every running plan via the
    /// vectorized kernel path, merging outputs once per batch (the merge
    /// itself amortizes too) and counting every batch tuple toward the
    /// discard-sweep cadence.
    pub fn push_columnar(&mut self, batch: &ColumnarBatch) -> Result<()> {
        for t in &mut self.tracks {
            t.pipe.push_columnar(batch)?;
        }
        self.merge_outputs();
        self.since_check += batch.len() as u64;
        if self.tracks.len() > 1 && self.since_check >= self.check_period {
            self.since_check = 0;
            self.discard_sweep();
        }
        Ok(())
    }

    /// Consume one in-band event. A migration barrier spawns the new
    /// parallel track.
    pub fn on_event(&mut self, ev: Event<PlanSpec>) -> Result<()> {
        match ev {
            Event::Columnar(batch) => self.push_columnar(&batch),
            Event::Expiry(ts) => {
                for t in &mut self.tracks {
                    t.pipe.advance_watermark_with(&mut DefaultSemantics, ts)?;
                }
                self.merge_outputs();
                Ok(())
            }
            Event::Watermark(ts) => {
                for t in &mut self.tracks {
                    t.pipe.apply_watermark_with(&mut DefaultSemantics, ts)?;
                }
                self.merge_outputs();
                Ok(())
            }
            Event::MigrationBarrier(spec) => self.transition_to(&spec),
            Event::Flush => {
                for t in &mut self.tracks {
                    t.pipe.run_with(&mut DefaultSemantics);
                }
                self.merge_outputs();
                Ok(())
            }
            // Partition-epoch punctuation: a routing concern, no-op here.
            Event::Repartition(_) => Ok(()),
        }
    }

    /// Start the new plan alongside the running ones (§3.3). The new plan
    /// begins with empty states and only sees future arrivals; results that
    /// need pre-transition tuples keep coming from the old plan(s).
    pub fn transition_to(&mut self, new_spec: &PlanSpec) -> Result<()> {
        let mut new_pipe = Pipeline::new(self.catalog.clone(), new_spec)?;
        let active = &self.tracks.last().expect("at least one track").pipe;
        verify_same_query(active.plan(), new_pipe.plan())?;
        verify_reorderable(new_pipe.plan())?;
        let cur_seq = active.next_seq();
        // Lineages must agree across plans for duplicate elimination.
        new_pipe.set_next_seq(cur_seq);
        for t in &mut self.tracks {
            t.retired_at.get_or_insert(cur_seq);
        }
        self.tracks.push(Track {
            pipe: new_pipe,
            retired_at: None,
        });
        self.extra.transitions += 1;
        let work = self.work_now();
        self.output.arm_latency(work);
        Ok(())
    }

    /// Drain each plan's output into the merged sink, eliminating
    /// duplicates by lineage while more than one plan runs.
    fn merge_outputs(&mut self) {
        let work = self.work_now();
        let single = self.tracks.len() == 1;
        for t in &mut self.tracks {
            let drained: Vec<_> = t.pipe.output.log.drain(..).collect();
            for tuple in drained {
                if single {
                    self.output.emit(tuple, work);
                } else {
                    self.extra.dedup_checks += 1;
                    if self.dedup.insert(tuple.lineage()) {
                        self.output.emit(tuple, work);
                    } else {
                        self.extra.duplicates_dropped += 1;
                    }
                }
            }
        }
    }

    /// Sweep retiring plans: a plan whose every state holds only entries
    /// newer than its retirement point is discarded (§3.3). This is the
    /// per-operator purge check the paper calls out as costly.
    fn discard_sweep(&mut self) {
        let mut i = 0;
        while i < self.tracks.len() {
            let Some(retired_at) = self.tracks[i].retired_at else {
                i += 1;
                continue;
            };
            let pipe = &mut self.tracks[i].pipe;
            let mut has_old = false;
            for id in pipe.plan().ids().collect::<Vec<_>>() {
                if pipe.state_has_entry_older_than(id, retired_at) {
                    has_old = true;
                    break;
                }
            }
            if has_old {
                i += 1;
            } else {
                // Fold the discarded plan's counters into the merge metrics
                // so total work is preserved, then drop it.
                let done = self.tracks.remove(i);
                self.extra.merge(&done.pipe.metrics);
            }
        }
        if self.tracks.len() == 1 {
            // Migration over: duplicate elimination no longer needed.
            self.dedup.clear();
        }
    }

    /// Force a discard sweep now (tests and benches).
    pub fn sweep_now(&mut self) {
        self.discard_sweep();
    }

    /// Merged execution counters across all plans (running and discarded)
    /// plus merge/dedup overhead.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.extra.clone();
        for t in &self.tracks {
            m.merge(&t.pipe.metrics);
        }
        m
    }

    /// The currently active (newest) plan's pipeline.
    pub fn active_pipeline(&self) -> &Pipeline {
        &self.tracks.last().expect("at least one track").pipe
    }

    /// The sole running pipeline, when no migration is in flight. `None`
    /// while retiring plans still run — checkpoints wait for the sweep.
    pub fn sole_pipeline(&self) -> Option<&Pipeline> {
        match &self.tracks[..] {
            [t] => Some(&t.pipe),
            _ => None,
        }
    }

    /// Mutable access to the sole running pipeline (recovery restore).
    pub fn sole_pipeline_mut(&mut self) -> Option<&mut Pipeline> {
        match &mut self.tracks[..] {
            [t] => Some(&mut t.pipe),
            _ => None,
        }
    }

    /// The stream catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::SplitMix64;
    use jisc_engine::{JoinStyle, PlanSpec};

    fn exec(streams: &[&str], window: usize, period: u64) -> ParallelTrackExec {
        let catalog = Catalog::uniform(streams, window).unwrap();
        let spec = PlanSpec::left_deep(streams, JoinStyle::Hash);
        ParallelTrackExec::new(catalog, &spec, period).unwrap()
    }

    fn feed(e: &mut ParallelTrackExec, n: usize, streams: u64, keys: u64, seed: u64) {
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
    fn transition_spawns_second_plan_and_discards_after_turnover() {
        let mut e = exec(&["R", "S", "T"], 30, 10);
        feed(&mut e, 200, 3, 6, 1);
        assert_eq!(e.active_plans(), 1);
        let target = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        assert_eq!(e.active_plans(), 2);
        // One full window of new arrivals per stream purges the old plan.
        feed(&mut e, 3 * 30 * 3, 3, 6, 2);
        assert_eq!(e.active_plans(), 1);
        assert!(e.metrics().discard_checks > 0, "sweeps must be accounted");
    }

    #[test]
    fn duplicates_are_eliminated_during_migration() {
        let mut e = exec(&["R", "S"], 50, 5);
        feed(&mut e, 150, 2, 4, 3);
        let target = PlanSpec::left_deep(&["S", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        // All-new results are produced by both plans; dedup must drop one.
        feed(&mut e, 150, 2, 4, 4);
        assert!(
            e.extra.duplicates_dropped > 0,
            "both plans produce the all-new results"
        );
        assert!(e.output.is_duplicate_free());
    }

    #[test]
    fn overlapped_transitions_stack_plans() {
        let mut e = exec(&["R", "S", "T"], 100, 1_000_000); // never sweep
        feed(&mut e, 300, 3, 8, 5);
        let t1 = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        let t2 = PlanSpec::left_deep(&["S", "T", "R"], JoinStyle::Hash);
        e.transition_to(&t1).unwrap();
        feed(&mut e, 20, 3, 8, 6);
        e.transition_to(&t2).unwrap();
        assert_eq!(
            e.active_plans(),
            3,
            "overlapped transitions run many plans (§3.3)"
        );
    }

    #[test]
    fn work_doubles_while_two_plans_run() {
        // Compare against an identical single-plan run.
        let mut single = exec(&["R", "S", "T"], 1_000, 1_000_000);
        let mut dual = exec(&["R", "S", "T"], 1_000, 1_000_000);
        feed(&mut single, 300, 3, 10, 7);
        feed(&mut dual, 300, 3, 10, 7);
        let target = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        dual.transition_to(&target).unwrap();
        let w_single0 = single.work_now();
        let w_dual0 = dual.work_now();
        feed(&mut single, 300, 3, 10, 8);
        feed(&mut dual, 300, 3, 10, 8);
        let d_single = single.work_now() - w_single0;
        let d_dual = dual.work_now() - w_dual0;
        assert!(
            d_dual as f64 > 1.6 * d_single as f64,
            "two plans must do ~2x the work ({d_dual} vs {d_single})"
        );
    }

    #[test]
    fn metrics_survive_discard() {
        let mut e = exec(&["R", "S"], 10, 5);
        feed(&mut e, 60, 2, 4, 9);
        let tuples_before = e.metrics().tuples_in;
        let target = PlanSpec::left_deep(&["S", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        feed(&mut e, 60, 2, 4, 10);
        assert_eq!(e.active_plans(), 1, "old plan discarded");
        // Old plan's counters were folded in: the new plan saw all 60
        // post-transition arrivals and the old plan some of them too.
        assert!(e.metrics().tuples_in > tuples_before + 60);
    }
}
