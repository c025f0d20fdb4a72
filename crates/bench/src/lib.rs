//! Benchmark harness for the JISC reproduction: regenerates every figure
//! of the paper's evaluation (§6), the §5.2 analysis, and ablations.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p jisc-bench --release --bin repro
//! cargo run -p jisc-bench --release --bin repro -- fig7 fig10 --scale 2.0
//! ```
//!
//! Each experiment returns a [`table::Table`] carrying the measured rows
//! and the shape the paper predicts, rendered as markdown for
//! `EXPERIMENTS.md`. Engine performance is measured by the separate
//! `perf` package, not here.

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::Scale;
pub use table::Table;

/// All experiment ids in canonical order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig7",
    "fig8",
    "fig9",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "analysis",
    "stairs",
    "overlap",
    "setdiff",
    "ablation",
    "throughput",
    "recovery",
    "elastic",
    "chaos",
];

/// Run one experiment by id (returns one or more tables).
pub fn run_experiment(id: &str, scale: Scale) -> Option<Vec<Table>> {
    use experiments::*;
    Some(match id {
        "fig7" => vec![migration::fig7(scale)],
        "fig8" => vec![migration::fig8(scale)],
        "fig9" => vec![normal_op::fig9(scale)],
        "fig10" => vec![latency::fig10a(scale), latency::fig10b(scale)],
        "fig10a" => vec![latency::fig10a(scale)],
        "fig10b" => vec![latency::fig10b(scale)],
        "fig11" => vec![frequency::fig11(scale)],
        "fig12" => vec![frequency::fig12(scale)],
        "analysis" => vec![analysis_exp::analysis(scale)],
        "stairs" => vec![stairs_exp::stairs(scale)],
        "overlap" => vec![overlap::overlap(scale)],
        "setdiff" => vec![setdiff_exp::setdiff(scale)],
        "throughput" => vec![throughput::throughput(scale)],
        "recovery" => vec![recovery_exp::recovery(scale)],
        "elastic" => vec![elastic::elastic(scale)],
        "chaos" => vec![chaos::chaos(scale)],
        "ablation" => vec![
            ablation::ablation_selectivity(scale),
            ablation::ablation_completion(scale),
            ablation::ablation_pt_check(scale),
            ablation::ablation_skew(scale),
        ],
        _ => return None,
    })
}
