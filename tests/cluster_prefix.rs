//! End-to-end prefix consistency across shards: after a failure, the
//! session's reported surviving prefix matches exactly what is readable in
//! the recovered cluster — everything before the prefix is present, and
//! nothing after it is.

use dpr::cluster::{Cluster, ClusterConfig, ClusterOp, OpResult};
use dpr::core::{Key, Value};
use std::time::Duration;

/// Writes key `i` at op `i`, injects a failure mid-stream, and checks the
/// dichotomy around the surviving prefix.
#[test]
fn surviving_prefix_matches_recovered_state() {
    let cluster = Cluster::start(ClusterConfig {
        shards: 4,
        checkpoint_interval: Some(Duration::from_millis(25)),
        finder_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    })
    .unwrap();
    let mut session = cluster.open_session().unwrap();

    // Sequential single-op batches: strictly ordered SessionOrder, each op
    // writing a distinct key.
    let total = 400u64;
    for i in 0..total {
        session
            .execute(vec![ClusterOp::Upsert(
                Key::from_u64(i),
                Value::from_u64(i),
            )])
            .unwrap();
    }

    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();

    // Discover the failure and recover the session.
    let _ = session.execute(vec![ClusterOp::Read(Key::from_u64(0))]);
    let survived = session.recover(Duration::from_secs(10)).unwrap();
    assert!(survived <= total, "prefix bounded by issued ops");

    // The dichotomy: ops [0, survived) recovered; [survived, total) erased.
    // (The probing read may occupy a serial after `total`, it wrote nothing.)
    let reads: Vec<ClusterOp> = (0..total)
        .map(|i| ClusterOp::Read(Key::from_u64(i)))
        .collect();
    let results = session.execute(reads).unwrap();
    for (i, r) in results.iter().enumerate() {
        let expect_present = (i as u64) < survived;
        match r {
            OpResult::Value(Some(v)) => {
                assert!(
                    expect_present,
                    "op {i} beyond surviving prefix {survived} must be erased"
                );
                assert_eq!(v.as_u64(), Some(i as u64));
            }
            OpResult::Value(None) => {
                assert!(
                    !expect_present,
                    "op {i} inside surviving prefix {survived} must be present"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    cluster.shutdown();
}

/// Same dichotomy under the exact finder.
#[test]
fn surviving_prefix_with_exact_finder() {
    let cluster = Cluster::start(ClusterConfig {
        shards: 2,
        checkpoint_interval: Some(Duration::from_millis(25)),
        finder_interval: Duration::from_millis(2),
        finder_mode: dpr::core::DprFinderMode::Exact,
        ..ClusterConfig::default()
    })
    .unwrap();
    let mut session = cluster.open_session().unwrap();
    let total = 200u64;
    for i in 0..total {
        session
            .execute(vec![ClusterOp::Upsert(
                Key::from_u64(i),
                Value::from_u64(i),
            )])
            .unwrap();
    }
    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    let _ = session.execute(vec![ClusterOp::Read(Key::from_u64(0))]);
    let survived = session.recover(Duration::from_secs(10)).unwrap();
    let reads: Vec<ClusterOp> = (0..total)
        .map(|i| ClusterOp::Read(Key::from_u64(i)))
        .collect();
    let results = session.execute(reads).unwrap();
    for (i, r) in results.iter().enumerate() {
        let present = matches!(r, OpResult::Value(Some(_)));
        assert_eq!(
            present,
            (i as u64) < survived,
            "op {i} vs surviving prefix {survived}"
        );
    }
    cluster.shutdown();
}
