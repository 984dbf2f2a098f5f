//! Integration test: checkpoint and recovery emit the expected protocol-event
//! (span) sequence through `dpr-telemetry`.
//!
//! The span ring is process-global, so everything lives in one `#[test]` —
//! a second test in this binary would race on `clear_spans`.

use dpr_cluster::{Cluster, ClusterConfig, ClusterKind, ClusterOp};
use dpr_core::{Key, Value};
use dpr_storage::StorageProfile;
use dpr_telemetry::{SpanEvent, Unit};
use std::time::Duration;

/// Index of the first span matching `(target, name, detail-substring)` at or
/// after `from`, or a panic listing the recorded events.
fn find_span(spans: &[SpanEvent], from: usize, target: &str, name: &str, detail: &str) -> usize {
    spans
        .iter()
        .enumerate()
        .skip(from)
        .find(|(_, s)| s.target == target && s.name == name && s.detail.contains(detail))
        .map(|(i, _)| i)
        .unwrap_or_else(|| {
            let log: Vec<String> = spans.iter().map(ToString::to_string).collect();
            panic!(
                "no span {target}/{name} containing {detail:?} after index {from}; events:\n{log}",
                log = log.join("\n")
            )
        })
}

#[test]
fn checkpoint_and_recovery_emit_expected_span_sequence() {
    dpr_telemetry::set_enabled(true);
    dpr_telemetry::global().clear_spans();
    let recoveries = dpr_telemetry::global().counter(
        "dpr_cluster_recoveries_total",
        Unit::Count,
        "Cluster recoveries driven to completion",
    );
    let recoveries_before = recoveries.get();

    let cluster = Cluster::start(ClusterConfig {
        kind: ClusterKind::DFaster,
        shards: 2,
        checkpoint_interval: Some(Duration::from_millis(10)),
        storage: StorageProfile::Null,
        finder_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    })
    .unwrap();
    let mut session = cluster.open_session().unwrap();

    for i in 0..200u64 {
        session
            .execute(vec![ClusterOp::Upsert(
                Key::from_u64(i),
                Value::from_u64(i),
            )])
            .unwrap();
    }
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();

    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    // A second failure, at another worker: attribution must follow the
    // index.
    cluster.inject_failure_at(1).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    // A wait that finds no recovery in progress records none.
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    cluster.shutdown();
    assert_eq!(
        recoveries.get() - recoveries_before,
        2,
        "each recovery is counted once, and a wait without one not at all"
    );

    let spans = dpr_telemetry::global().spans();

    // At least one full CPR checkpoint cycle, in phase-machine order
    // (Rest -> Prepare -> InProgress -> WaitFlush -> Rest, §5.2).
    let p = find_span(&spans, 0, "dpr-faster", "phase", "Rest -> Prepare");
    let p = find_span(
        &spans,
        p + 1,
        "dpr-faster",
        "phase",
        "Prepare -> InProgress",
    );
    let p = find_span(
        &spans,
        p + 1,
        "dpr-faster",
        "phase",
        "InProgress -> WaitFlush",
    );
    find_span(&spans, p + 1, "dpr-faster", "phase", "WaitFlush -> Rest");

    // The recovery arc: begin -> per-shard THROW/PURGE rollback -> both
    // worker_rollback acks -> complete (§4.1, §5.5).
    let begin = find_span(&spans, 0, "dpr-cluster", "recovery_begin", "2 shards");
    let t = find_span(&spans, begin + 1, "dpr-faster", "phase", "Rest -> Throw");
    let t = find_span(&spans, t + 1, "dpr-faster", "phase", "Throw -> Purge");
    find_span(&spans, t + 1, "dpr-faster", "phase", "Purge -> Rest");
    let r0 = find_span(
        &spans,
        begin + 1,
        "dpr-cluster",
        "worker_rollback",
        "shard 0",
    );
    let r1 = find_span(
        &spans,
        begin + 1,
        "dpr-cluster",
        "worker_rollback",
        "shard 1",
    );
    let complete = find_span(&spans, begin + 1, "dpr-cluster", "recovery_complete", "");
    assert!(
        r0 < complete && r1 < complete,
        "recovery_complete must follow both shard rollbacks (r0={r0}, r1={r1}, complete={complete})"
    );

    // Failure attribution: the failure at worker 0 blames shard 0, the one
    // at worker 1 blames shard 1, and the second recovery runs the full arc
    // again.
    assert_eq!(
        begin,
        find_span(
            &spans,
            0,
            "dpr-cluster",
            "recovery_begin",
            "crashed shard 0"
        ),
        "a failure at worker 0 must blame shard 0"
    );
    let begin2 = find_span(
        &spans,
        complete + 1,
        "dpr-cluster",
        "recovery_begin",
        "crashed shard 1",
    );
    let r0b = find_span(
        &spans,
        begin2 + 1,
        "dpr-cluster",
        "worker_rollback",
        "shard 0",
    );
    let r1b = find_span(
        &spans,
        begin2 + 1,
        "dpr-cluster",
        "worker_rollback",
        "shard 1",
    );
    let complete2 = find_span(&spans, begin2 + 1, "dpr-cluster", "recovery_complete", "");
    assert!(
        r0b < complete2 && r1b < complete2,
        "second recovery must also complete after both rollbacks"
    );
    let completes = spans
        .iter()
        .filter(|s| s.name == "recovery_complete")
        .count();
    assert_eq!(completes, 2, "one recovery_complete per recovery");
}
