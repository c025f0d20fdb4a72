//! `perf` — the repository's benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! perf --seed <n>                                                  every workload, each in a fresh child
//! perf --smoke                                                     the same at 1/100 size
//! perf --self-test                                                 flips one result: must exit non-zero
//! perf --list                                                      workload and metric names
//! ```
//!
//! The last line of a `--workload` run is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

mod gen;
mod json;
mod model;
mod pacer;
mod run;
mod spec;
mod sut;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use run::{Outcome, Plan};
use spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};

#[derive(Debug, Clone)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    self_test: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        smoke: false,
        self_test: false,
        list: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(spec::workload(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--self-test" => a.self_test = true,
            "--list" => a.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// `<target dir>/perf`: next to the build, never in the repository root.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .ancestors()
        .find(|d| d.join("CACHEDIR.TAG").is_file())
        .or(exe.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    target.join("perf")
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn list() {
    for w in &WORKLOADS {
        println!("workload {} — {}", w.name, w.why);
    }
    let dir = |m: &Metric| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    for m in &END_TO_END {
        let bound = m.bound.unwrap_or(0.0);
        println!(
            "end_to_end {} [{}] {} is better, may worsen by {bound}",
            m.name,
            m.unit,
            dir(m)
        );
    }
    for m in &PER_LAYER {
        println!(
            "per_layer {} [{}] {} is better ({:?})",
            m.name,
            m.unit,
            dir(m),
            m.source
        );
    }
}

/// The result line the contract asks for: every metric of the chosen list,
/// 0 for a layer that does no work on this workload.
fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = out
                .metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(m.name),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn info_line(args: &Args, w: &Workload, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut kv = vec![
        format!("\"workload\": {}", json::quote(w.name)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"smoke\": {}", args.smoke),
        format!("\"nproc\": {nproc}"),
        format!(
            "\"git\": {}",
            json::quote(&first_line_of("git", &["rev-parse", "HEAD"]))
        ),
        format!(
            "\"rustc\": {}",
            json::quote(&first_line_of("rustc", &["-V"]))
        ),
    ];
    kv.extend(
        out.info
            .iter()
            .map(|(k, v)| format!("{}: {v}", json::quote(k))),
    );
    format!("info {{{}}}", kv.join(", "))
}

/// One workload in this process: the driver's form of the command.
fn run_one(args: &Args, w: &'static Workload) -> ExitCode {
    let plan = Plan {
        workload: w,
        seed: args.seed,
        seconds: args.seconds as f64 / if args.smoke { 100.0 } else { 1.0 },
        smoke: args.smoke,
        corrupt_output: args.self_test,
        out_dir: out_dir(),
    };
    let out = run::run(&plan, args.traced);
    for c in &out.complaints {
        eprintln!("FAILED {}: {c}", w.name);
    }
    println!("{}", info_line(args, w, &out));
    let metrics: &[Metric] = if args.traced { &PER_LAYER } else { &END_TO_END };
    for m in metrics {
        if let Some((_, v)) = out.metrics.iter().find(|(n, _)| *n == m.name) {
            println!("{:<44} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    println!("{}", result_line(&out, metrics));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed last, parsed; `None` if it printed no result.
fn child_result(args: &Args, w: &Workload, traced: bool) -> Option<(bool, Value, Value)> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.self_test {
        cmd.arg("--self-test");
    }
    // stderr is inherited, so a child's complaints reach the operator.
    let output = cmd.stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = Value::parse(stdout.lines().last()?).ok()?;
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .and_then(|l| Value::parse(l).ok())
        .unwrap_or(Value::Null);
    Some((output.status.success(), result, info))
}

fn print_metrics(result: &Value) {
    for (name, m) in result.get("metrics").map_or(&[][..], Value::entries) {
        let v = m.get("value").map_or(f64::NAN, Value::num);
        println!(
            "  {name:<44} {v:>16.4} {}",
            m.get("unit").map_or("", Value::str)
        );
    }
}

/// Every workload, each in a fresh child process so that peak memory and
/// allocator state do not leak from one to the next.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut arrivals_shared: Vec<(String, f64, String)> = Vec::new();
    for w in &WORKLOADS {
        for traced in [false, true] {
            let pass = if traced {
                "per-layer (traced pass)"
            } else {
                "end-to-end"
            };
            println!("== {} — {pass}", w.name);
            let Some((success, result, info)) = child_result(args, w, traced) else {
                println!("  no result");
                ok = false;
                continue;
            };
            print_metrics(&result);
            let correct = result.get("correct") == Some(&Value::Bool(true));
            println!(
                "  attempted {} failed {} correct {correct}",
                result.get("attempted").map_or(0.0, Value::num),
                result.get("failed").map_or(0.0, Value::num),
            );
            ok &= success && correct;
            if !traced {
                for (k, v) in info.entries() {
                    match v {
                        Value::Str(s) => println!("  info {k} = {s}"),
                        Value::Bool(b) => println!("  info {k} = {b}"),
                        other => println!("  info {k} = {}", other.num()),
                    }
                }
                if matches!(w.name, "steady" | "migrate") {
                    arrivals_shared.push((
                        w.name.into(),
                        info.get("shared_outputs").map_or(f64::NAN, Value::num),
                        info.get("shared_checksum").map_or("", Value::str).into(),
                    ));
                }
            }
        }
    }
    // steady and migrate are fed the same arrivals: over the arrivals both
    // get through they must emit the same results, whatever plan was running
    // when.
    if let [(a, count_a, sum_a), (b, count_b, sum_b)] = &arrivals_shared[..] {
        let same = count_a == count_b && sum_a == sum_b;
        let verdict = if same { "equal" } else { "DIFFERENT" };
        println!("== {a} and {b} over the arrivals they share: {count_a} and {count_b} results, checksums {sum_a} and {sum_b}: {verdict}");
        ok &= same;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    if args.self_test {
        // One small run with one result flipped: the check must catch it.
        args.smoke = true;
        args.workload = args.workload.or(spec::workload("steady"));
    }
    match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = parse_args(&argv("--workload migrate --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("migrate"));
        assert_eq!((a.seed, a.seconds, a.traced), (42, 10, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys_and_every_metric() {
        let out = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![("tuples_per_s", 123.5), ("setup_s", 0.25)],
            ..Outcome::default()
        };
        let v = Value::parse(&result_line(&out, &END_TO_END)).unwrap();
        let keys: Vec<&str> = v.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").unwrap();
        let names: Vec<&str> = m.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(
            m.get("tuples_per_s").unwrap().get("value").unwrap().num(),
            123.5
        );
        assert_eq!(
            m.get("tuples_per_s").unwrap().get("unit").unwrap().str(),
            "1/s"
        );
        let failed = Outcome { failed: 3, ..out };
        let v = Value::parse(&result_line(&failed, &PER_LAYER)).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("metrics").unwrap().entries().len(), PER_LAYER.len());
    }
}
