//! Cluster membership changes: partition migration, worker addition and
//! removal (§5.3).

use dpr_cluster::{BusFrame, Cluster, ClusterConfig, ClusterKind, ClusterOp, OpResult};
use dpr_core::{Key, Value};
use std::time::Duration;

fn config(kind: ClusterKind, shards: usize) -> ClusterConfig {
    ClusterConfig {
        kind,
        shards,
        partitions: 16,
        checkpoint_interval: Some(Duration::from_millis(20)),
        finder_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    }
}

fn load(cluster: &Cluster, n: u64) {
    let mut session = cluster.open_session().unwrap();
    let ops: Vec<ClusterOp> = (0..n)
        .map(|i| ClusterOp::Upsert(Key::from_u64(i), Value::from_u64(i * 7)))
        .collect();
    session.execute(ops).unwrap();
}

fn verify(cluster: &Cluster, n: u64) {
    let mut session = cluster.open_session().unwrap();
    let reads: Vec<ClusterOp> = (0..n).map(|i| ClusterOp::Read(Key::from_u64(i))).collect();
    let results = session.execute(reads).unwrap();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            *r,
            OpResult::Value(Some(Value::from_u64(i as u64 * 7))),
            "key {i} after membership change"
        );
    }
}

#[test]
fn migrate_single_partition_preserves_data() {
    let cluster = Cluster::start(config(ClusterKind::DFaster, 2)).unwrap();
    load(&cluster, 200);
    // Move every partition owned by worker 0 to worker 1, one at a time.
    let owned = {
        let shard0 = cluster.workers()[0].shard();
        // Probe ownership through the public API: find a partition worker 0
        // owns by checking keys.
        let mut vps = std::collections::BTreeSet::new();
        for k in 0..200u64 {
            let key = Key::from_u64(k);
            if cluster.owner_of(&key).unwrap() == shard0 {
                vps.insert(dpr_metadata::VirtualPartition((key.hash64() % 16) as u32));
            }
        }
        vps
    };
    assert!(!owned.is_empty());
    let vp = *owned.iter().next().unwrap();
    let moved = cluster.migrate_partition(vp, 0, 1).unwrap();
    assert!(moved > 0, "partition had keys");
    // All data still readable, now served by the new owner.
    verify(&cluster, 200);
    cluster.shutdown();
}

#[test]
fn add_worker_rebalances_and_serves() {
    let mut cluster = Cluster::start(config(ClusterKind::DFaster, 2)).unwrap();
    load(&cluster, 300);
    let new_shard = cluster.add_worker().unwrap();
    assert_eq!(cluster.workers().len(), 3);
    // The new worker owns a share of partitions.
    let mut new_owner_keys = 0;
    for k in 0..300u64 {
        if cluster.owner_of(&Key::from_u64(k)).unwrap() == new_shard {
            new_owner_keys += 1;
        }
    }
    assert!(new_owner_keys > 0, "new worker must own some keys");
    verify(&cluster, 300);
    // New writes to migrated keys work and commit.
    let mut session = cluster.open_session().unwrap();
    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(1),
            Value::from_u64(999),
        )])
        .unwrap();
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    cluster.shutdown();
}

/// A worker that joins after a failure starts on the cluster's world-line:
/// it has nothing to roll back. Started on the initial one, it refused every
/// batch of a recovered session as `Recovering`, and `execute` timed out.
#[test]
fn a_worker_added_after_a_failure_serves() {
    let mut cluster = Cluster::start(config(ClusterKind::DFaster, 3)).unwrap();
    load(&cluster, 300);
    let mut session = cluster.open_session().unwrap();
    cluster.inject_failure_at(1).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    session.recover(Duration::from_secs(10)).unwrap();
    let shard = cluster.add_worker().unwrap();
    let owned = (0..).map(Key::from_u64);
    let owned = owned.filter(|k| cluster.owner_of(k).unwrap() == shard);
    let ops: Vec<ClusterOp> = owned
        .take(40)
        .map(|k| ClusterOp::Upsert(k, Value::from_u64(1)))
        .collect();
    let results = session.execute(ops).unwrap();
    assert_eq!(results, vec![OpResult::Done; 40]);
    cluster.shutdown();
}

#[test]
fn remove_worker_migrates_everything_away() {
    let mut cluster = Cluster::start(config(ClusterKind::DFaster, 3)).unwrap();
    load(&cluster, 300);
    cluster.remove_worker(2).unwrap();
    assert_eq!(cluster.workers().len(), 2);
    verify(&cluster, 300);
    // Commits still flow with the smaller membership.
    let mut session = cluster.open_session().unwrap();
    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(5),
            Value::from_u64(1),
        )])
        .unwrap();
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    cluster.shutdown();
}

/// A removed worker's proxy hop leaves the bus with it: a frame sent to the
/// proxy's endpoint fails, where it was forwarded to the closed worker.
#[test]
fn a_removed_workers_proxy_leaves_the_bus() {
    let mut cluster = Cluster::start(ClusterConfig {
        extra_proxy_hop: true,
        ..config(ClusterKind::DRedis, 2)
    })
    .unwrap();
    load(&cluster, 100);
    let proxy = cluster.worker_endpoint(1).unwrap();
    assert_ne!(Some(proxy), cluster.workers().get(1).map(|w| w.endpoint()));
    cluster.remove_worker(1).unwrap();
    verify(&cluster, 100);
    let (from, _inbox) = cluster.network().register();
    let frame = BusFrame {
        from,
        bytes: vec![0u8; 8].into(),
    };
    assert!(cluster.network().send(proxy, frame).is_err());
    cluster.shutdown();
}

#[test]
fn dredis_migration_works_too() {
    let cluster = Cluster::start(config(ClusterKind::DRedis, 2)).unwrap();
    load(&cluster, 100);
    // Find a partition owned by worker 0 and move it.
    let shard0 = cluster.workers()[0].shard();
    let vp = (0..16u32)
        .map(dpr_metadata::VirtualPartition)
        .find(|vp| {
            (0..100u64).any(|k| {
                let key = Key::from_u64(k);
                (key.hash64() % 16) as u32 == vp.0
                    && cluster.owner_of(&key).map(|o| o == shard0).unwrap_or(false)
            })
        })
        .expect("worker 0 owns something");
    cluster.migrate_partition(vp, 0, 1).unwrap();
    verify(&cluster, 100);
    cluster.shutdown();
}

#[test]
fn migration_under_concurrent_increments_is_exactly_once() {
    // A non-idempotent workload (Incr on one key) races the partition it
    // lives in being migrated back and forth. Every increment must apply
    // exactly once: a lost effect or a double-apply both show up in the
    // final counter.
    let cluster = Cluster::start(config(ClusterKind::DFaster, 2)).unwrap();
    let key = Key::from_u64(4242);
    let vp = dpr_metadata::VirtualPartition((key.hash64() % 16) as u32);
    const INCRS: u64 = 300;

    std::thread::scope(|scope| {
        let c = &cluster;
        let k = key.clone();
        let writer = scope.spawn(move || {
            let mut session = c.open_session().unwrap();
            for _ in 0..INCRS {
                session.execute(vec![ClusterOp::Incr(k.clone())]).unwrap();
            }
        });
        // Bounce the partition between the two workers while the
        // increments flow.
        for _ in 0..6 {
            let owner = c.owner_of(&key).unwrap();
            let from = c
                .workers()
                .iter()
                .position(|w| w.shard() == owner)
                .expect("owner is a live worker");
            let to = (from + 1) % 2;
            c.migrate_partition(vp, from, to).unwrap();
            std::thread::sleep(Duration::from_millis(15));
        }
        writer.join().unwrap();
    });

    let mut session = cluster.open_session().unwrap();
    let results = session.execute(vec![ClusterOp::Read(key)]).unwrap();
    assert_eq!(
        results[0],
        OpResult::Value(Some(Value::from_u64(INCRS))),
        "increments lost or duplicated across migrations"
    );
    cluster.shutdown();
}

#[test]
fn client_with_inflight_batches_survives_migration() {
    // Writes racing an ownership transfer are re-routed by the client and
    // none are lost.
    let cluster = Cluster::start(config(ClusterKind::DFaster, 2)).unwrap();
    load(&cluster, 100);
    let shard0 = cluster.workers()[0].shard();
    let vp = (0..16u32)
        .map(dpr_metadata::VirtualPartition)
        .find(|vp| {
            (0..100u64).any(|k| {
                let key = Key::from_u64(k);
                (key.hash64() % 16) as u32 == vp.0
                    && cluster.owner_of(&key).map(|o| o == shard0).unwrap_or(false)
            })
        })
        .unwrap();

    std::thread::scope(|scope| {
        let c = &cluster;
        let writer = scope.spawn(move || {
            let mut session = c.open_session().unwrap();
            for round in 0..40u64 {
                let ops: Vec<ClusterOp> = (0..100)
                    .map(|i| ClusterOp::Upsert(Key::from_u64(i), Value::from_u64(round)))
                    .collect();
                session.execute(ops).unwrap();
            }
            session.stats().completed
        });
        std::thread::sleep(Duration::from_millis(20));
        c.migrate_partition(vp, 0, 1).unwrap();
        let completed = writer.join().unwrap();
        assert_eq!(completed, 4000, "no op lost across the transfer");
    });
    cluster.shutdown();
}
