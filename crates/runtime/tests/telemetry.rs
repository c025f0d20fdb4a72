//! Cross-crate telemetry invariants for the sharded runtime.
//!
//! Three contracts are pinned here, end to end through the public API:
//!
//! 1. **Registry ≡ Metrics.** The per-worker metric registries, merged
//!    across shards, must report *exactly* the same counter totals as the
//!    engines' own [`Metrics`] struct — for every migration strategy, and
//!    also across a worker crash and recovery (registries are per
//!    incarnation; the survivors' sync must still reconcile).
//! 2. **Flight-recorder causality.** A chaotic run (watermarks, a live
//!    rescale, an injected fault) must leave a flight recording whose
//!    events appear in causal order: sequence numbers strictly increase,
//!    timestamps never regress, the repartition epoch cut precedes its
//!    export handovers, and every fault precedes its recovery.
//! 3. **Fault dump.** With `JISC_FLIGHT_DUMP` set, a worker panic writes
//!    the recording to disk before the respawn proceeds.

use std::sync::Mutex;

use jisc_common::StreamId;
use jisc_engine::{Catalog, JoinStyle, PlanSpec, StreamDef};
use jisc_runtime::shard::{ShardStrategy, ShardedConfig, ShardedExecutor, ShardedReport};
use jisc_runtime::FaultPlan;
use jisc_telemetry::FlightEventKind;

/// Serializes the tests that inject faults: the fault-dump test flips the
/// process-global `JISC_FLIGHT_DUMP` env var, which any concurrently
/// respawning executor would also honor.
static FAULT_ENV_LOCK: Mutex<()> = Mutex::new(());

const EVENTS: usize = 600;

fn catalog() -> Catalog {
    let defs = ["R", "S", "T"]
        .iter()
        .map(|n| StreamDef::timed((*n).to_string(), 40))
        .collect();
    Catalog::new(defs).expect("valid catalog")
}

fn spec() -> PlanSpec {
    PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash)
}

fn run(config: ShardedConfig) -> ShardedReport {
    let mut exec = ShardedExecutor::spawn_with(catalog(), &spec(), config).expect("spawn");
    for i in 0..EVENTS {
        let (s, k) = ((i % 3) as u16, (i * 7 + 3) as u64 % 16);
        exec.push(StreamId(s), k, i as u64).expect("push");
    }
    exec.finish().expect("finish")
}

/// Every named engine counter must round-trip through the registry with
/// no drift; collects all mismatches so a failure names each one.
fn assert_registry_matches_metrics(report: &ShardedReport, label: &str) {
    let mut mismatches = Vec::new();
    report.metrics.for_each_named(|name, want| {
        let got = report.telemetry.merged.counter(name);
        if got != want {
            mismatches.push(format!("{name}: metrics={want} registry={got}"));
        }
    });
    assert!(
        mismatches.is_empty(),
        "[{label}] registry drifted from engine Metrics:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn registry_totals_match_engine_metrics_for_every_strategy() {
    let strategies = [
        ShardStrategy::Pipelined,
        ShardStrategy::Jisc,
        ShardStrategy::MovingState,
        ShardStrategy::ParallelTrack { check_period: 5 },
    ];
    for strategy in strategies {
        let report = run(ShardedConfig {
            strategy,
            ..ShardedConfig::for_shards(2)
        });
        let label = format!("{strategy:?}");
        assert_eq!(report.events as usize, EVENTS, "[{label}]");
        assert_registry_matches_metrics(&report, &label);
        // Latency is always on: one histogram entry per routed tuple.
        assert_eq!(
            report.latency.count(),
            EVENTS as u64,
            "[{label}] latency histogram covers every tuple"
        );
        // The columnar data plane ran, so its kernel mirrors must be
        // present and non-zero in the merged registry.
        assert!(
            report.telemetry.merged.counter("kernel_hash_elements") > 0,
            "[{label}] kernel counters mirrored into the registry"
        );
    }
}

#[test]
fn registry_metrics_equivalence_survives_worker_recovery() {
    let _guard = FAULT_ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let report = run(ShardedConfig {
        strategy: ShardStrategy::Jisc,
        checkpoint_every: 128,
        faults: FaultPlan::new().panic_at(0, 100),
        ..ShardedConfig::for_shards(2)
    });
    assert_eq!(report.recoveries, 1, "scripted panic recovered");
    // The faulted incarnation's registry was discarded with the worker;
    // the replacement's sync must still reconcile with the engine totals
    // (which also restart from the restored snapshot).
    assert_registry_matches_metrics(&report, "Jisc+fault");
    // Replayed tuples keep their original ingest stamp, so recovery
    // latency lands in the same histogram. Duplicate redeliveries are
    // stamp-stripped, so the count never exceeds the routed total.
    let n = report.latency.count();
    assert!(
        n > 0 && n <= EVENTS as u64,
        "latency recorded once per applied tuple, got {n}"
    );
}

#[test]
fn flight_recording_of_a_chaotic_run_is_causally_ordered() {
    let _guard = FAULT_ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut exec = ShardedExecutor::spawn_with(
        catalog(),
        &spec(),
        ShardedConfig {
            strategy: ShardStrategy::Jisc,
            checkpoint_every: 128,
            watermark_every: 64,
            faults: FaultPlan::new().panic_at(1, 150),
            ..ShardedConfig::for_shards(2)
        },
    )
    .expect("spawn");
    for i in 0..EVENTS {
        if i == 400 {
            // Live rescale mid-stream: cuts a repartition epoch and hands
            // moved base state over to the new shard.
            exec.scale_up().expect("scale up");
        }
        let (s, k) = ((i % 3) as u16, (i * 7 + 3) as u64 % 16);
        exec.push(StreamId(s), k, i as u64).expect("push");
    }
    let report = exec.finish().expect("finish");
    assert_eq!(report.recoveries, 1);

    let flight = &report.telemetry.flight;
    assert!(!flight.is_empty(), "chaos run left a flight recording");
    // Causal order: seq strictly increases, time never regresses.
    for w in flight.windows(2) {
        assert!(w[0].seq < w[1].seq, "seq strictly monotone: {w:?}");
        assert!(w[0].at_ns <= w[1].at_ns, "time never regresses: {w:?}");
    }

    let pos = |pred: &dyn Fn(&FlightEventKind) -> bool| flight.iter().position(|e| pred(&e.kind));
    let cut = pos(&|k| matches!(k, FlightEventKind::RepartitionCut { .. }))
        .expect("rescale recorded an epoch cut");
    let handover = pos(&|k| matches!(k, FlightEventKind::ExportHandover { .. }))
        .expect("rescale recorded a state handover");
    let fault = pos(&|k| matches!(k, FlightEventKind::WorkerFault { shard: 1 }))
        .expect("injected fault recorded");
    let recovered = pos(&|k| matches!(k, FlightEventKind::WorkerRecovered { shard: 1, .. }))
        .expect("recovery recorded");
    assert!(cut < handover, "epoch cut precedes its handovers");
    assert!(fault < recovered, "fault precedes its recovery");
    assert!(
        pos(&|k| matches!(k, FlightEventKind::CheckpointTaken { .. })).is_some(),
        "checkpoint cadence recorded"
    );

    // Watermark broadcasts advance monotonically.
    let frontiers: Vec<u64> = flight
        .iter()
        .filter_map(|e| match e.kind {
            FlightEventKind::Watermark { frontier } => Some(frontier),
            _ => None,
        })
        .collect();
    assert!(!frontiers.is_empty(), "watermark cadence recorded");
    assert!(
        frontiers.windows(2).all(|w| w[0] <= w[1]),
        "watermark frontier advances: {frontiers:?}"
    );
}

#[test]
fn worker_panic_dumps_the_flight_recording_when_env_is_set() {
    let _guard = FAULT_ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let path = std::env::temp_dir().join(format!("jisc_flight_dump_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("JISC_FLIGHT_DUMP", &path);
    let report = run(ShardedConfig {
        strategy: ShardStrategy::Jisc,
        checkpoint_every: 128,
        faults: FaultPlan::new().panic_at(0, 100),
        ..ShardedConfig::for_shards(2)
    });
    std::env::remove_var("JISC_FLIGHT_DUMP");
    assert_eq!(report.recoveries, 1);
    let dump = std::fs::read_to_string(&path).expect("fault wrote the flight dump");
    let _ = std::fs::remove_file(&path);
    assert!(dump.contains("\"kind\": \"worker_fault\""), "{dump}");
    assert!(dump.contains("\"events\": ["), "{dump}");
}
