//! Correctness under injected network and metadata latency: the protocol
//! must behave identically, just slower — and DPR's claim is precisely
//! that metadata latency stays OFF the operation critical path.

use dpr_cluster::{Cluster, ClusterConfig, ClusterKind, ClusterOp, OpResult};
use dpr_core::{Key, SessionId, Value};
use libdpr::DprClientSession;
use std::time::{Duration, Instant};

#[test]
fn cluster_is_correct_with_network_latency() {
    let cluster = Cluster::start(ClusterConfig {
        kind: ClusterKind::DFaster,
        shards: 2,
        network_latency: Duration::from_millis(2),
        checkpoint_interval: Some(Duration::from_millis(25)),
        finder_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    })
    .unwrap();
    let mut session = cluster.open_session().unwrap();
    let t = Instant::now();
    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(1),
            Value::from_u64(7),
        )])
        .unwrap();
    // One round trip ≈ 2 × 2 ms.
    assert!(t.elapsed() >= Duration::from_millis(3), "latency applied");
    let results = session
        .execute(vec![ClusterOp::Read(Key::from_u64(1))])
        .unwrap();
    assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(7))));
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    assert_eq!(session.stats().committed, 2);
    cluster.shutdown();
}

#[test]
fn metadata_latency_stays_off_the_operation_critical_path() {
    // Counted, not timed: the request path both planes share
    // (`execute_local_into`) and a `CutReq`'s answer (`read_cut`, once the
    // finder has published) issue no metadata statement on the thread that
    // calls them, so no statement's latency is an operation's.
    let cluster = Cluster::start(ClusterConfig {
        kind: ClusterKind::DFaster,
        shards: 2,
        checkpoint_interval: Some(Duration::from_millis(20)),
        finder_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    })
    .unwrap();
    let worker = &cluster.workers()[0];
    let keys: Vec<Key> = (0..)
        .map(Key::from_u64)
        .filter(|k| cluster.owner_of(k).unwrap() == worker.shard())
        .take(50)
        .collect();
    let mut session = DprClientSession::new(SessionId(1 << 20));
    let mut results = Vec::new();
    let mut execute = |session: &mut DprClientSession, key: &Key| {
        let header = session.begin_batch(worker.shard(), 1).unwrap();
        let ops = [ClusterOp::Upsert(key.clone(), Value::from_u64(1))];
        let reply = worker.execute_local_into(&header, &ops, &mut results);
        session.process_reply(&reply.unwrap()).unwrap();
    };
    // Until the finder has published a cut of this world-line.
    execute(&mut session, &keys[0]);
    let (cut, started) = (cluster.cut_source(), Instant::now());
    while session.refresh_commit(&cut()) == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "nothing committed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let before = dpr_metadata::statements_on_this_thread();
    for key in &keys {
        execute(&mut session, key);
        worker.read_cut().unwrap();
    }
    let issued = dpr_metadata::statements_on_this_thread() - before;
    assert_eq!(issued, 0, "metadata statements on the operation path");
    cluster.shutdown();
}
