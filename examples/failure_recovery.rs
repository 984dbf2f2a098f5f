//! Failure injection and non-blocking recovery, end to end.
//!
//! Reproduces §7.4's methodology in miniature: run a workload, inject a
//! failure (all workers roll back to the latest DPR cut on a new
//! world-line), watch the session compute its surviving prefix and resume.
//!
//! Run with: `cargo run --release --example failure_recovery`

use dpr::cluster::{Cluster, ClusterConfig, ClusterOp, OpResult};
use dpr::core::{Key, Value};
use std::time::{Duration, Instant};

fn main() {
    let cluster = Cluster::start(ClusterConfig {
        shards: 4,
        checkpoint_interval: Some(Duration::from_millis(50)),
        ..ClusterConfig::default()
    })
    .expect("start cluster");
    let mut session = cluster.open_session().expect("session");

    // Committed era: write and wait for the cut.
    for i in 0..100u64 {
        session
            .execute(vec![ClusterOp::Upsert(
                Key::from_u64(i),
                Value::from_u64(1),
            )])
            .expect("write");
    }
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .expect("commit");
    let committed_era = session.stats().committed;
    println!("era 1: {committed_era} ops committed");

    // Doomed era: writes that may not commit before the failure.
    for i in 0..100u64 {
        session
            .execute(vec![ClusterOp::Upsert(
                Key::from_u64(i),
                Value::from_u64(2),
            )])
            .expect("write");
    }
    println!("era 2: 100 overwrites completed (commit pending)");

    // Failure!
    let t = Instant::now();
    cluster.inject_failure_at(0).expect("inject");
    cluster
        .wait_recovered(Duration::from_secs(10))
        .expect("recover cluster");
    println!("cluster rolled back to the DPR cut in {:?}", t.elapsed());

    // The session discovers the failure on its next call, computes its
    // surviving prefix, and resumes on the new world-line.
    let err = session.execute(vec![ClusterOp::Read(Key::from_u64(0))]);
    assert!(err.is_err(), "first post-failure call reports the failure");
    let survived = session
        .recover(Duration::from_secs(10))
        .expect("recover session");
    let stats = session.stats();
    println!(
        "session: {survived} ops survived, {} aborted — the exact prefix is known",
        stats.aborted
    );

    // Prefix consistency: every key holds either its committed value (1) or,
    // if the second write made it into the cut before the failure, 2 — but
    // never a torn mix beyond the reported prefix.
    let results = session
        .execute(
            (0..100)
                .map(|i| ClusterOp::Read(Key::from_u64(i)))
                .collect(),
        )
        .expect("read back");
    let (mut ones, mut twos) = (0, 0);
    for r in &results {
        match r {
            OpResult::Value(Some(v)) => match v.as_u64() {
                Some(1) => ones += 1,
                Some(2) => twos += 1,
                other => panic!("impossible value {other:?}"),
            },
            other => panic!("missing key: {other:?}"),
        }
    }
    println!("state after recovery: {ones} keys at v1, {twos} keys at committed v2");
    println!("world line is now {}", session.world_line());

    // Life goes on.
    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(0),
            Value::from_u64(3),
        )])
        .expect("post-recovery write");
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .expect("post-recovery commit");
    println!("post-recovery writes commit normally");

    cluster.shutdown();
}
