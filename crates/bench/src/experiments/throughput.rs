//! Throughput: serial pipeline vs columnar batched ingest vs the
//! key-partitioned sharded runtime.
//!
//! The Figure-9 normal-operation workload (20-join plan, uniform arrivals,
//! no transition in flight) driven three ways: a per-tuple serial JISC
//! pipeline, the same pipeline over [`ColumnarBatch`]ed ingest at batch
//! sizes 1, 64 and 256, and [`ShardedExecutor`] at N = 1, 2, 4 and 8
//! workers.
//! Time windows are used so every configuration computes the identical
//! result (count windows shard as per-shard quotas; see `Exactness`).
//!
//! Measurement: `REPS` repetitions per configuration, **interleaved
//! round-robin** (every configuration runs once per rep, in order) with the
//! best run reported. The container's background load drifts on a scale of
//! seconds — measuring each config's reps back-to-back lets that drift land
//! entirely on whichever config is running at the time; interleaving spreads
//! it across all of them, and best-of sheds it.
//!
//! Besides the markdown table, the run writes `BENCH_throughput.json` to
//! the working directory with raw tuples/sec and the machine's core count —
//! parallel speedup is bounded by physical cores, so the JSON records both.

use std::time::Instant;

use jisc_common::{ColumnarBatch, StreamId};
use jisc_core::jisc::JiscSemantics;
use jisc_engine::{Catalog, Pipeline, StreamDef};
use jisc_runtime::shard::{ShardStrategy, ShardedConfig, ShardedExecutor};
use jisc_workload::{best_case, Arrival};

use crate::harness::{arrivals_for, Scale};
use crate::table::Table;

/// Joins in the measured plan (Figure 9's setup).
const JOINS: usize = 20;

/// Base tuple count before scaling.
const BASE_TUPLES: usize = 60_000;

/// Base per-stream window population before scaling.
const BASE_WINDOW: usize = 500;

/// Shard counts measured against the serial baseline.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Data-plane batch sizes measured for serial batched ingest.
const BATCH_SIZES: [usize; 3] = [1, 64, 256];

/// Measurement repetitions per configuration (best run reported).
const REPS: usize = 5;

/// Which JSON group a configuration's result lands in.
#[derive(Clone, Copy)]
enum Group {
    Serial,
    Columnar(usize),
    Sharded(usize),
}

fn timed_catalog(names: &[String], window: usize, streams: usize) -> Catalog {
    // With the default clock (ts == global arrival index), a tuple ages one
    // tick per arrival on *any* stream; `window * streams` ticks keep the
    // same per-stream population as Figure 9's count window of `window`.
    let ticks = (window * streams) as u64;
    Catalog::new(
        names
            .iter()
            .map(|n| StreamDef::timed(n.clone(), ticks))
            .collect(),
    )
    .expect("valid catalog")
}

/// Throughput table (tuples/sec) and `BENCH_throughput.json`.
pub fn throughput(scale: Scale) -> Table {
    let window = scale.apply(BASE_WINDOW);
    let total = scale.apply(BASE_TUPLES);
    let scenario = best_case(JOINS, crate::harness::hash_style());
    let names: Vec<String> = scenario
        .initial
        .leaves()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let domain = window as u64;
    let arrivals: Vec<Arrival> = arrivals_for(&scenario, total, domain, 900);
    let catalog = timed_catalog(&names, window, names.len());

    // One closure per configuration; each builds its executor fresh and
    // returns the run's output count so every rep is checked against the
    // serial result.
    type Run<'a> = Box<dyn FnMut() -> usize + 'a>;
    let mut configs: Vec<(String, Group, Run)> = Vec::new();
    let (catalog, scenario, arrivals) = (&catalog, &scenario, &arrivals);

    // Serial baseline: one pipeline, same semantics the shard workers run.
    configs.push((
        "serial".into(),
        Group::Serial,
        Box::new(move || {
            let mut serial = Pipeline::new(catalog.clone(), &scenario.initial).expect("pipeline");
            let mut sem = JiscSemantics::default();
            for a in arrivals {
                serial
                    .push_with(&mut sem, StreamId(a.stream), a.key, a.payload)
                    .expect("push");
            }
            serial.output.count()
        }),
    ));

    // Columnar ingest: same pipeline and semantics, data shipped as
    // ColumnarBatch through the vectorized kernel path (whole-column
    // hashing, pre-hashed probes, SoA delta install).
    for bs in BATCH_SIZES {
        configs.push((
            format!("columnar B={bs}"),
            Group::Columnar(bs),
            Box::new(move || {
                let mut pipe = Pipeline::new(catalog.clone(), &scenario.initial).expect("pipeline");
                let mut sem = JiscSemantics::default();
                let mut batch = ColumnarBatch::new(bs);
                for a in arrivals {
                    batch
                        .push(StreamId(a.stream), a.key, a.payload)
                        .expect("batch cut on full");
                    if batch.is_full() {
                        pipe.push_columnar_with(&mut sem, &batch)
                            .expect("push columnar");
                        batch.clear();
                    }
                }
                if !batch.is_empty() {
                    pipe.push_columnar_with(&mut sem, &batch)
                        .expect("push columnar");
                }
                pipe.output.count()
            }),
        ));
    }

    for n in SHARD_COUNTS {
        configs.push((
            format!("sharded N={n}"),
            Group::Sharded(n),
            Box::new(move || {
                let config = ShardedConfig {
                    strategy: ShardStrategy::Jisc,
                    shards: n,
                    queue_capacity: 4096,
                    ..ShardedConfig::default()
                };
                let mut exec =
                    ShardedExecutor::spawn_with(catalog.clone(), &scenario.initial, config)
                        .expect("sharded executor");
                assert!(exec.is_exact(), "time windows shard exactly");
                for a in arrivals {
                    exec.push(StreamId(a.stream), a.key, a.payload)
                        .expect("push");
                }
                exec.finish().expect("finish").outputs as usize
            }),
        ));
    }

    // Interleaved measurement: configs[0] (serial) of rep 0 defines the
    // expected output count; every later run must reproduce it.
    let mut best = vec![0.0f64; configs.len()];
    let mut serial_outputs = 0usize;
    for rep in 0..REPS {
        for (ci, (_, _, run)) in configs.iter_mut().enumerate() {
            let t0 = Instant::now();
            let outputs = run();
            let secs = t0.elapsed().as_secs_f64();
            if rep == 0 && ci == 0 {
                serial_outputs = outputs;
            } else {
                assert_eq!(
                    outputs, serial_outputs,
                    "every configuration must match the serial result"
                );
            }
            best[ci] = best[ci].max(total as f64 / secs.max(1e-9));
        }
    }

    let serial_tps = best[0];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = Table::new(
        "throughput",
        "Throughput: serial vs key-partitioned sharded runtime (20 joins)",
        "tuples/sec should scale with shard count up to the machine's \
         physical cores; beyond that, added shards only add queue overhead",
        &["config", "tuples/sec", "speedup vs serial", "outputs"],
    );
    let mut columnar_json_rows = Vec::new();
    let mut sharded_json_rows = Vec::new();
    for (ci, (name, group, _)) in configs.iter().enumerate() {
        let tps = best[ci];
        let speedup = tps / serial_tps;
        table.row(vec![
            name.clone(),
            format!("{tps:.0}"),
            format!("{speedup:.2}"),
            serial_outputs.to_string(),
        ]);
        match group {
            Group::Serial => {}
            Group::Columnar(bs) => columnar_json_rows.push(format!(
                "    {{\"batch_size\": {bs}, \"tuples_per_sec\": {tps:.0}, \"speedup\": {speedup:.3}}}"
            )),
            Group::Sharded(n) => sharded_json_rows.push(format!(
                "    {{\"shards\": {n}, \"tuples_per_sec\": {tps:.0}, \"speedup\": {speedup:.3}}}"
            )),
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"throughput\",\n  \"cores\": {cores},\n  \
         \"tuples\": {total},\n  \"joins\": {JOINS},\n  \
         \"serial_tuples_per_sec\": {serial_tps:.0},\n  \
         \"columnar\": [\n{}\n  ],\n  \
         \"sharded\": [\n{}\n  ]\n}}\n",
        columnar_json_rows.join(",\n"),
        sharded_json_rows.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_throughput.json", &json) {
        eprintln!("warning: could not write BENCH_throughput.json: {e}");
    }
    table
}
