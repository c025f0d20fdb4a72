//! One module per reproduced experiment; see DESIGN.md's per-experiment
//! index for the figure-to-module mapping.

pub mod ablation;
pub mod analysis_exp;
pub mod chaos;
pub mod elastic;
pub mod frequency;
pub mod latency;
pub mod migration;
pub mod normal_op;
pub mod overlap;
pub mod recovery_exp;
pub mod setdiff_exp;
pub mod stairs_exp;
pub mod throughput;
