//! The unified in-band event model.
//!
//! Everything that flows through an executor — data, watermarks, control —
//! is one ordered stream of [`Event`]s. Data moves in capacity-bounded
//! [`ColumnarBatch`]es so per-arrival dispatch cost is amortized; migration
//! and expiry ride the same stream as punctuation, which is what lets the
//! serial and sharded runtimes share a single migration code path.
//!
//! `Event` is generic over the plan payload `P` carried by a migration
//! barrier: the concrete plan type lives downstream of this crate, so
//! executors instantiate `Event<PlanSpec>`.

use crate::columnar::ColumnarBatch;
use crate::tuple::{Key, SeqNo, StreamId};

/// Error returned by [`ColumnarBatch::push`] (and its stamped/blob
/// variants) when the batch is already at capacity: the producer should
/// cut the batch (ship it, clear it) and retry — over-capacity is a normal
/// flow-control condition, not a programming error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFull;

impl std::fmt::Display for BatchFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch is at capacity")
    }
}

impl std::error::Error for BatchFull {}

/// One row of a [`ColumnarBatch`] in the row model, as
/// [`ColumnarBatch::row`] returns it.
///
/// `ts` and `seq` are optional overrides: `None` means "assign from the
/// consumer's own clock / sequence counter" (the serial default), while
/// `Some` pins them — the sharded router stamps both so every shard agrees
/// on global arrival order regardless of channel interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedTuple {
    /// Source stream.
    pub stream: StreamId,
    /// Join key.
    pub key: Key,
    /// Opaque payload.
    pub payload: u64,
    /// Explicit timestamp, or `None` for the consumer's default clock.
    pub ts: Option<u64>,
    /// Explicit sequence number, or `None` to take the next one.
    pub seq: Option<SeqNo>,
}

/// One element of the unified event stream.
///
/// Consumers process events strictly in order; the variants are:
// The batch variant dwarfs the punctuation variants, but events are moved
// through queues one at a time, never stored densely — boxing would cost
// an allocation per batch on the hot ingest path for no locality gain.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Event<P> {
    /// A run of data tuples in columnar (SoA) layout, equivalent to
    /// ingesting its rows one at a time in order; consumers probe it
    /// through the vectorized kernel path.
    Columnar(ColumnarBatch),
    /// Watermark punctuation: expire every tuple older than the window
    /// allows at time `ts`, exactly as a serial ingest at `ts` would.
    /// Strict: a regressing `ts` is an error (producer bug).
    Expiry(u64),
    /// Event-time watermark: "no arrival with a timestamp below `ts` will
    /// follow". Same expiry effect as [`Event::Expiry`] where it advances
    /// time, but *monotone and idempotent by construction*: a stale or
    /// repeated watermark is an accepted no-op, never an error — sources
    /// with independent clocks (or a router min-aligning several of them)
    /// can re-announce frontiers freely.
    Watermark(u64),
    /// Plan-migration punctuation carrying the target plan. All data
    /// before the barrier executes under the old plan, all data after it
    /// under the new one — on every executor, serial or sharded.
    MigrationBarrier(P),
    /// Drain every operator queue to quiescence.
    Flush,
    /// Partition-epoch punctuation carrying the next epoch's routing
    /// table. All data before it was routed under the old map, all data
    /// after it under the new one; engines treat it as an accepted no-op
    /// (routing is the runtime's concern), but its in-band position is
    /// what makes a live rescale a well-defined stream cut.
    Repartition(crate::partition::PartitionMap),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_capacity_is_enforced() {
        let mut b = ColumnarBatch::new(2);
        assert!(b.is_empty());
        b.push(StreamId(0), 1, 0).unwrap();
        assert!(!b.is_full());
        b.push(StreamId(1), 2, 0).unwrap();
        assert!(b.is_full());
        assert_eq!(b.len(), 2);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn batch_push_past_capacity_errors() {
        let mut b = ColumnarBatch::new(1);
        b.push(StreamId(0), 1, 0).unwrap();
        let before = b.clone();
        assert_eq!(b.push(StreamId(0), 2, 0), Err(BatchFull));
        assert_eq!(
            b.push_stamped(StreamId(0), 2, 0, Some(3), Some(4)),
            Err(BatchFull)
        );
        assert_eq!(b.push_blob(StreamId(0), 2, b"x"), Err(BatchFull));
        assert_eq!(b, before, "failed pushes leave the batch unchanged");
    }
}
