//! Shared foundations for the JISC reproduction.
//!
//! This crate holds the data model and utilities every other crate builds on:
//!
//! * [`mod@tuple`] — base and joined (composite) tuples with lineage,
//! * [`event`] — the unified in-band event model ([`Event`], [`BatchedTuple`]),
//! * [`columnar`] — columnar (SoA) batches, selection bitmaps, payload arenas,
//! * [`kernels`] — vectorized whole-column kernels (hash, predicate),
//! * [`hash`] — a fast Fx-style hasher and map/set aliases,
//! * [`metrics`] — cheap execution counters used by every strategy,
//! * [`rng`] — a deterministic SplitMix64 generator for reproducible runs,
//! * [`error`] — the crate-family error type.
//!
//! The join model follows the paper (EDBT 2014, §2.1): tuples carry a single
//! join-attribute value (`Key`) shared by all streams of a query, plus an
//! opaque `payload` that callers use as a row id into their own storage.

pub mod columnar;
pub mod error;
pub mod event;
pub mod fault;
pub mod hash;
pub mod kernels;
pub mod lineage;
pub mod metrics;
pub mod partition;
pub mod rng;
pub mod tuple;

pub use columnar::{ColumnarBatch, PayloadArena, SelBitmap};
pub use error::{JiscError, Result};
pub use event::{BatchFull, BatchedTuple, Event};
pub use fault::WorkerFault;
pub use hash::{hash_key, FxHashMap, FxHashSet, FxHasher};
pub use lineage::Lineage;
pub use metrics::Metrics;
pub use partition::{KeyRange, PartitionMap, RangeMove};
pub use rng::SplitMix64;
pub use tuple::{BaseTuple, JoinedTuple, Key, SeqNo, StreamId, Tuple};
