//! Push-based pipelined stream-processing substrate for the JISC
//! reproduction (EDBT 2014).
//!
//! This crate is the execution engine the paper assumes (§2.1): queries
//! compile to binary trees of pipelined, push-based operators — stream
//! scans, symmetric hash joins, nested-loops (theta) joins, set-differences,
//! and root aggregates — each owning a materialized state and an input
//! queue. Sliding windows are count-based per stream; expirations propagate
//! bottom-up through the operator states.
//!
//! Migration strategies live in `jisc-core`; they plug into the engine
//! through the [`pipeline::Semantics`] trait and the state/plan accessors on
//! [`pipeline::Pipeline`].
//!
//! # Quick start
//!
//! ```
//! use jisc_engine::spec::{Catalog, JoinStyle, PlanSpec};
//! use jisc_engine::pipeline::Pipeline;
//! use jisc_common::StreamId;
//!
//! let catalog = Catalog::uniform(&["R", "S", "T"], 1000).unwrap();
//! let spec = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
//! let mut pipe = Pipeline::new(catalog, &spec).unwrap();
//! pipe.push(StreamId(0), 42, 0).unwrap();
//! pipe.push(StreamId(1), 42, 0).unwrap();
//! pipe.push(StreamId(2), 42, 0).unwrap();
//! assert_eq!(pipe.output.count(), 1); // r ⋈ s ⋈ t
//! ```

pub mod columnar;
pub mod explain;
pub mod lateness;
pub mod ops;
pub mod output;
pub mod pipeline;
pub mod plan;
pub mod predicate;
pub mod slab;
pub mod snapshot;
pub mod spec;
pub mod spill;
pub mod state;

pub use columnar::{KernelCounter, KernelStats};
pub use explain::{explain, explain_plan};
pub use lateness::{LateStats, LatenessGate, LatenessPolicy};
pub use ops::DefaultSemantics;
pub use output::OutputSink;
pub use pipeline::{AdoptionOutcome, Pipeline, Semantics};
pub use plan::{Node, NodeId, OpClass, OpKind, Payload, Plan, QueueItem, Signature, StreamSet};
pub use predicate::Predicate;
pub use slab::{SlabStats, SlabStore, WarmDepth};
pub use snapshot::{BaseRangeExport, BaseStateSnapshot};
pub use spec::{AggKind, Catalog, JoinStyle, PlanSpec, SpecNode, StreamDef, WindowSpec};
pub use spill::{ColdTier, DurableCheckpointStore, ScratchDir, SpillConfig, SpillStats};
pub use state::{PendingKeys, State, StoreKind};
