//! Lateness policy on the serial pipeline: late tuples are accounted,
//! never silently lost, and the `ingested + dropped_late == generated`
//! invariant holds under every policy.

use jisc_common::StreamId;
use jisc_engine::pipeline::Pipeline;
use jisc_engine::spec::{Catalog, JoinStyle, PlanSpec, StreamDef};
use jisc_engine::LatenessPolicy;

fn timed_pipe(window: u64) -> Pipeline {
    let catalog = Catalog::new(vec![
        StreamDef::timed("R", window),
        StreamDef::timed("S", window),
    ])
    .unwrap();
    let spec = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
    Pipeline::new(catalog, &spec).unwrap()
}

#[test]
fn strict_pipeline_still_rejects_regressions() {
    let mut pipe = timed_pipe(100);
    pipe.push_at(StreamId(0), 1, 0, 10).unwrap();
    assert!(pipe.push_at(StreamId(1), 1, 0, 5).is_err());
}

#[test]
fn drop_policy_drops_and_counts_late_tuples() {
    let mut pipe = timed_pipe(100);
    pipe.set_lateness_policy(Some(LatenessPolicy::Drop));
    pipe.push_at(StreamId(0), 1, 0, 10).unwrap();
    pipe.push_at(StreamId(1), 1, 0, 5).unwrap(); // late: dropped
    pipe.push_at(StreamId(1), 1, 0, 12).unwrap();
    assert_eq!(pipe.metrics.dropped_late, 1);
    assert_eq!(pipe.metrics.late_admitted, 0);
    assert_eq!(pipe.metrics.tuples_in, 2, "dropped tuple never ingested");
    assert_eq!(pipe.output.count(), 1, "only the on-time S tuple joined");
    // The accounting invariant: 3 generated.
    assert_eq!(pipe.metrics.tuples_in + pipe.metrics.dropped_late, 3);
}

#[test]
fn admit_within_bound_clamps_and_counts() {
    let mut pipe = timed_pipe(100);
    pipe.set_lateness_policy(Some(LatenessPolicy::AdmitWithinBound { bound: 8 }));
    pipe.push_at(StreamId(0), 1, 0, 10).unwrap();
    pipe.push_at(StreamId(1), 1, 0, 5).unwrap(); // 5 ticks late: clamped to 10
    assert_eq!(pipe.metrics.late_admitted, 1);
    assert_eq!(pipe.metrics.dropped_late, 0);
    assert_eq!(pipe.output.count(), 1, "clamped tuple still joins");
    assert_eq!(pipe.last_ts(), 10, "clock never regresses");

    pipe.push_at(StreamId(0), 2, 0, 30).unwrap();
    pipe.push_at(StreamId(1), 2, 0, 3).unwrap(); // 27 ticks late: beyond bound
    assert_eq!(pipe.metrics.dropped_late, 1);
    assert_eq!(pipe.output.count(), 1);
    assert_eq!(pipe.metrics.tuples_in + pipe.metrics.dropped_late, 4);
}

#[test]
fn batched_ingest_honors_the_policy() {
    use jisc_common::ColumnarBatch;
    let rows = [10u64, 4, 12, 11, 13];
    let mut pipe = timed_pipe(100);
    let mut per_tuple = timed_pipe(100);
    pipe.set_lateness_policy(Some(LatenessPolicy::Drop));
    per_tuple.set_lateness_policy(Some(LatenessPolicy::Drop));
    let mut batch = ColumnarBatch::new(8);
    for (i, &ts) in rows.iter().enumerate() {
        let stream = StreamId((i % 2) as u16);
        batch.push_stamped(stream, 7, 0, Some(ts), None).unwrap();
        per_tuple.push_at(stream, 7, 0, ts).unwrap();
    }
    pipe.push_columnar(&batch).unwrap();
    assert_eq!(pipe.metrics.dropped_late, 2, "ts=4 and ts=11 regress");
    assert_eq!(pipe.metrics.tuples_in, 3);
    assert_eq!(pipe.metrics.tuples_in + pipe.metrics.dropped_late, 5);
    assert_eq!(pipe.metrics, per_tuple.metrics, "batch ≡ per-tuple");
    assert_eq!(
        pipe.output.lineage_multiset(),
        per_tuple.output.lineage_multiset()
    );
}

#[test]
fn watermark_is_monotone_and_idempotent() {
    let mut pipe = timed_pipe(10);
    pipe.push_at(StreamId(0), 1, 0, 5).unwrap();
    let mut sem = jisc_engine::DefaultSemantics;
    pipe.apply_watermark_with(&mut sem, 20).unwrap();
    assert_eq!(pipe.watermark(), 20);
    assert!(
        pipe.window_of(StreamId(0)).is_empty(),
        "ts=5 aged out at 20"
    );

    // Repeated and stale watermarks are accepted no-ops.
    pipe.apply_watermark_with(&mut sem, 20).unwrap();
    pipe.apply_watermark_with(&mut sem, 7).unwrap();
    assert_eq!(pipe.watermark(), 20);

    // Advancing again behaves exactly like a strict Expiry.
    pipe.push_at(StreamId(0), 2, 0, 25).unwrap();
    pipe.apply_watermark_with(&mut sem, 40).unwrap();
    assert_eq!(pipe.watermark(), 40);
    assert!(pipe.window_of(StreamId(0)).is_empty());
}
