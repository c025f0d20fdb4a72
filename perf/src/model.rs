//! Service-time model of the sharded runtime, after the queueing view of
//! "Performance Modeling and Vertical Autoscaling of Stream Joins"
//! (PAPERS.md): per-stage service times in, predicted throughput out. If the
//! prediction misses the measured run by more than [`TOLERANCE`], the stages
//! the benchmark can see do not explain the run: a stage is missing.

/// Largest share of the measured throughput the prediction may miss by.
pub const TOLERANCE: f64 = 0.15;

/// Predicted tuples per second of a router thread feeding shard workers.
///
/// With `router_ns` of router-side work and `engine_ns` of engine work per
/// tuple, `cores` cores need at least `(router_ns + engine_ns) / cores` per
/// tuple in total; and no pipeline outruns its slowest stage, which is the
/// router or the busiest shard (`max_shard_share` of all tuples). The final
/// merge runs when the workers are done, so its `serial_tail_ns` per tuple
/// adds to whichever of the two binds.
pub fn predicted_tuples_per_s(
    cores: usize,
    router_ns: f64,
    engine_ns: f64,
    max_shard_share: f64,
    serial_tail_ns: f64,
) -> f64 {
    let work_bound = (router_ns + engine_ns) / cores as f64;
    let stage_bound = router_ns.max(max_shard_share * engine_ns);
    1e9 / (work_bound.max(stage_bound) + serial_tail_ns)
}

/// Share of the measured throughput the prediction misses by.
pub fn error_share(predicted: f64, measured: f64) -> f64 {
    (predicted - measured).abs() / measured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slowest_stage_caps_throughput_when_cores_are_plenty() {
        // Router 1 µs, engine 8 µs split evenly over two shards: each shard
        // is busy 4 µs per tuple, so 250k tuples/s whatever the core count.
        assert_eq!(
            predicted_tuples_per_s(8, 1000.0, 8000.0, 0.5, 0.0),
            250_000.0
        );
        // A skewed split makes the busier shard the cap.
        assert_eq!(
            predicted_tuples_per_s(8, 1000.0, 8000.0, 0.8, 0.0),
            156_250.0
        );
        // A router slower than any shard is the cap itself.
        assert_eq!(
            predicted_tuples_per_s(8, 5000.0, 8000.0, 0.5, 0.0),
            200_000.0
        );
    }

    #[test]
    fn total_work_caps_throughput_when_cores_are_few() {
        // 9 µs of work per tuple on 2 cores: 222k/s, below the stage cap.
        let p = predicted_tuples_per_s(2, 1000.0, 8000.0, 0.5, 0.0);
        assert!((p - 2e9 / 9000.0).abs() < 1e-6);
        assert_eq!(
            predicted_tuples_per_s(1, 1000.0, 8000.0, 0.5, 0.0),
            1e9 / 9000.0
        );
        // A serial merge of 1 µs per tuple after the workers are done.
        assert_eq!(predicted_tuples_per_s(1, 1000.0, 8000.0, 0.5, 1000.0), 1e5);
    }

    #[test]
    fn error_is_a_share_of_the_measured_value() {
        assert_eq!(error_share(120.0, 100.0), 0.2);
        assert_eq!(error_share(80.0, 100.0), 0.2);
        assert!(error_share(110.0, 100.0) < TOLERANCE);
    }
}
