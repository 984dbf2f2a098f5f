//! Observability demo: run a small D-FASTER cluster with telemetry on, then
//! dump the metrics report — commit-latency histogram, CPR checkpoint phase
//! timings, cut lag, and the protocol-event log.
//!
//! Run with: `cargo run --release --example observability`
//!
//! The metric catalog, with units and paper cross-references, is in
//! `docs/OBSERVABILITY.md`; this example is its worked companion.

use dpr::cluster::{Cluster, ClusterConfig, ClusterOp};
use dpr::core::{Key, Value};
use std::time::Duration;

fn main() {
    // Turn on clock-based telemetry (timers + spans) before any work runs.
    dpr::telemetry::set_enabled(true);

    let config = ClusterConfig {
        shards: 2,
        checkpoint_interval: Some(Duration::from_millis(20)),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).expect("start cluster");
    let mut session = cluster.open_session().expect("open session");

    // A few thousand upserts: operations complete at memory speed and
    // commit asynchronously as checkpoints seal versions and the DPR cut
    // advances — exactly the gap dpr_server_commit_latency_us measures.
    for i in 0..3_000u64 {
        session
            .execute(vec![ClusterOp::Upsert(
                Key::from_u64(i % 512),
                Value::from_u64(i),
            )])
            .expect("execute batch");
    }
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .expect("wait for commit");

    // One failure + recovery so the rollback and recovery metrics and the
    // recovery span sequence are populated too.
    cluster.inject_failure_at(0).expect("inject failure");
    cluster
        .wait_recovered(Duration::from_secs(10))
        .expect("recovery");

    cluster.shutdown();

    let report = dpr::telemetry::global().render_table();
    println!("{report}");

    // The three headline signals this demo exists to show.
    for metric in [
        "dpr_server_commit_latency_us",
        "dpr_faster_checkpoint_total_us",
        "dpr_finder_cut_lag_versions",
    ] {
        assert!(report.contains(metric), "missing {metric} in report");
    }
}
