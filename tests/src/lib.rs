//! Shared helpers for the cross-crate integration tests.
//!
//! The centerpiece is [`oracle::NaiveOracle`], a brute-force n-way windowed
//! join evaluator used as ground truth against every engine in the
//! workspace. [`baseline::BaselineStore`] is the pre-slab hash-state
//! layout the slab-equivalence properties compare against.

pub mod baseline;
pub mod oracle;
