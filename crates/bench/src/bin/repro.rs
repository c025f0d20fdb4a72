//! `repro` — regenerate the paper's figures as markdown tables.
//!
//! ```text
//! repro [EXPERIMENT...] [--scale X] [--quick]
//!
//! EXPERIMENT   any of: fig7 fig8 fig9 fig10 fig10a fig10b fig11 fig12
//!              analysis stairs overlap setdiff ablation throughput
//!              recovery elastic chaos
//!              (default: all)
//! --scale X    multiply window/tuple counts by X (default 1.0;
//!              the paper's setup corresponds to roughly --scale 20)
//! --quick      shorthand for --scale 0.2 (CI-sized smoke run)
//! ```

use std::process::ExitCode;

use jisc_bench::{run_experiment, Scale, ALL_EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => scale = Scale(v),
                _ => {
                    eprintln!("--scale requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--quick" => scale = Scale(0.2),
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [EXPERIMENT...] [--scale X] [--quick]\n\
                     experiments: {}",
                    ALL_EXPERIMENTS.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    println!(
        "# JISC reproduction — measured results (scale {:.2})\n",
        scale.0
    );
    for id in &experiments {
        eprintln!("running {id} ...");
        match run_experiment(id, scale) {
            Some(tables) => {
                for t in tables {
                    println!("{}", t.to_markdown());
                }
            }
            None => {
                eprintln!(
                    "unknown experiment {id}; known: {}",
                    ALL_EXPERIMENTS.join(" ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
