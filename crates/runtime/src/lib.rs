//! Threaded runtime for the JISC engine.
//!
//! The core engine is deliberately synchronous and deterministic (that is
//! what makes the paper's correctness theorems testable bit-for-bit). Real
//! deployments want producers decoupled from the engine: the [`shard`]
//! module's [`ShardedExecutor`] runs one pipeline per supervised worker
//! thread behind bounded channels carrying the unified in-band [`Event`]
//! stream — data batches, expiry watermarks, migration barriers, and flush
//! punctuation all share one FIFO per worker, so control takes effect at an
//! exact position in the stream. At one shard it is the serial engine on a
//! background thread; past one it partitions arrivals by key.
//!
//! ```
//! use jisc_engine::{Catalog, JoinStyle, PlanSpec};
//! use jisc_runtime::{ShardedConfig, ShardedExecutor};
//! use jisc_common::{ColumnarBatch, StreamId};
//!
//! let catalog = Catalog::uniform(&["R", "S"], 100).unwrap();
//! let plan = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
//! let mut exec =
//!     ShardedExecutor::spawn_with(catalog, &plan, ShardedConfig::for_shards(1)).unwrap();
//!
//! let mut batch = ColumnarBatch::new(64);
//! batch.push(StreamId(0), 7, 0).unwrap();
//! batch.push(StreamId(1), 7, 0).unwrap();
//! exec.push_columnar(&batch).unwrap();
//!
//! let report = exec.finish().unwrap(); // drains every worker
//! assert_eq!(report.outputs, 1);
//! ```

pub mod chan;
pub mod fault;
pub mod shard;
pub(crate) mod supervisor;

pub use fault::{FaultAction, FaultPlan};
pub use shard::{
    Exactness, OverloadPolicy, PhaseClassifier, ShardStrategy, ShardedConfig, ShardedExecutor,
    ShardedReport, SpillSettings,
};

pub use jisc_common::{BatchedTuple, Event, WorkerFault};

#[cfg(test)]
mod tests {
    //! One shard is the serial engine on a supervised thread: its merged
    //! output must equal a synchronous run's, count windows included.
    use super::*;
    use jisc_common::{ColumnarBatch, Key, StreamId};
    use jisc_core::{AdaptiveEngine, Strategy};
    use jisc_engine::{Catalog, JoinStyle, PlanSpec};

    const STREAMS: [&str; 3] = ["R", "S", "T"];

    fn arrivals(n: u64) -> Vec<(u16, Key, u64)> {
        (0..n).map(|i| ((i % 3) as u16, i % 11, i)).collect()
    }

    /// Runs `events` per tuple on a synchronous engine and in columnar
    /// batches of 64 on a one-shard executor, switching both to `switch`
    /// after `at` arrivals if given, and checks the outputs agree.
    fn assert_one_shard_matches_serial(
        events: &[(u16, Key, u64)],
        switch: Option<(usize, &PlanSpec)>,
    ) {
        let catalog = Catalog::uniform(&STREAMS, 50).unwrap();
        let plan = PlanSpec::left_deep(&STREAMS, JoinStyle::Hash);
        let mut sync = AdaptiveEngine::new(catalog.clone(), &plan, Strategy::Jisc).unwrap();
        let mut exec =
            ShardedExecutor::spawn_with(catalog, &plan, ShardedConfig::for_shards(1)).unwrap();
        let at = switch.map_or(events.len(), |(at, _)| at);
        for (part, chunk) in [&events[..at], &events[at..]].into_iter().enumerate() {
            if let (1, Some((_, spec))) = (part, switch) {
                sync.transition_to(spec).unwrap();
                exec.transition(spec).unwrap();
            }
            for &(s, k, p) in chunk {
                sync.push(StreamId(s), k, p).unwrap();
            }
            for rows in chunk.chunks(64) {
                let mut batch = ColumnarBatch::new(rows.len());
                for &(s, k, p) in rows {
                    batch.push(StreamId(s), k, p).unwrap();
                }
                exec.push_columnar(&batch).unwrap();
            }
        }
        let report = exec.finish().unwrap();
        assert!(report.exactness.is_exact());
        assert_eq!(report.events, events.len() as u64);
        assert_eq!(report.transitions, u64::from(switch.is_some()));
        assert!(report.outputs > 0);
        assert_eq!(
            report.output.lineage_multiset(),
            sync.output().lineage_multiset()
        );
    }

    #[test]
    fn batched_producer_matches_synchronous_run() {
        assert_one_shard_matches_serial(&arrivals(500), None);
    }

    #[test]
    fn transition_requests_are_processed_in_stream_order() {
        let reversed = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        assert_one_shard_matches_serial(&arrivals(400), Some((200, &reversed)));
    }
}
