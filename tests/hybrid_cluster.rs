//! End-to-end runs under the exact and hybrid finders, and facade API
//! coverage.

use dpr::cluster::{Cluster, ClusterConfig, ClusterOp, OpResult};
use dpr::core::{DprFinderMode, Key, Value};
use std::time::Duration;

fn run_cluster_with(mode: DprFinderMode) {
    let cluster = Cluster::start(ClusterConfig {
        shards: 3,
        finder_mode: mode,
        checkpoint_interval: Some(Duration::from_millis(20)),
        finder_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    })
    .unwrap();
    let mut session = cluster.open_session().unwrap();
    // Cross-shard dependency chain: each op reads the previous op's key
    // (likely on another shard) then writes a new one.
    let mut prev = Key::from_u64(0);
    session
        .execute(vec![ClusterOp::Upsert(prev.clone(), Value::from_u64(0))])
        .unwrap();
    for i in 1..60u64 {
        let key = Key::from_u64(i);
        let results = session
            .execute(vec![
                ClusterOp::Read(prev.clone()),
                ClusterOp::Upsert(key.clone(), Value::from_u64(i)),
            ])
            .unwrap();
        assert!(
            matches!(results[0], OpResult::Value(Some(_))),
            "chain intact at {i}"
        );
        prev = key;
    }
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(15))
        .unwrap();
    assert_eq!(session.stats().committed, session.stats().completed);
    cluster.shutdown();
}

#[test]
fn exact_finder_cluster_end_to_end() {
    run_cluster_with(DprFinderMode::Exact);
}

#[test]
fn hybrid_finder_cluster_end_to_end() {
    run_cluster_with(DprFinderMode::Hybrid);
}

#[test]
fn facade_reexports_cover_all_crates() {
    // Compile-time coverage that the facade exposes every subsystem.
    use dpr::cassandra::CommitLogSync;
    use dpr::core::Version;
    use dpr::faster::FasterConfig;
    use dpr::metadata::Partitioner;
    use dpr::protocol::DprFinder;
    use dpr::redis::AofPolicy;
    use dpr::shared_log::ConsumerId;
    use dpr::storage::StorageProfile;
    use dpr::ycsb::Zipfian;

    let _ = CommitLogSync::Group;
    let _ = Version::FIRST;
    let _ = FasterConfig::default();
    let _ = Partitioner { partitions: 4 };
    let _ = AofPolicy::Off;
    let _ = ConsumerId(1);
    let _ = StorageProfile::Null;
    let _ = Zipfian::new(10, 0.5);
    fn _assert_object_safe(_: &dyn DprFinder) {}
}

#[test]
fn mixed_operation_batches_preserve_per_op_results() {
    let cluster = Cluster::start(ClusterConfig {
        shards: 4,
        checkpoint_interval: Some(Duration::from_millis(25)),
        ..ClusterConfig::default()
    })
    .unwrap();
    let mut session = cluster.open_session().unwrap();
    // A batch mixing every op kind across shards, twice, interleaved.
    let k = Key::from_u64;
    let results = session
        .execute(vec![
            ClusterOp::Upsert(k(1), Value::from_u64(10)),
            ClusterOp::Incr(k(2)),
            ClusterOp::Read(k(1)),
            ClusterOp::Upsert(k(3), Value::from_u64(30)),
            ClusterOp::Delete(k(1)),
            ClusterOp::Read(k(1)),
            ClusterOp::Read(k(2)),
            ClusterOp::Read(k(3)),
        ])
        .unwrap();
    assert_eq!(results[2], OpResult::Value(Some(Value::from_u64(10))));
    assert_eq!(results[5], OpResult::Value(None), "deleted");
    assert_eq!(results[6], OpResult::Value(Some(Value::from_u64(1))));
    assert_eq!(results[7], OpResult::Value(Some(Value::from_u64(30))));
    cluster.shutdown();
}
