//! Correctness under injected network and metadata latency: the protocol
//! must behave identically, just slower — and DPR's claim is precisely
//! that metadata latency stays OFF the operation critical path.

use dpr_cluster::{Cluster, ClusterConfig, ClusterKind, ClusterOp, OpResult};
use dpr_cluster::{NetServer, NetServerConfig, PipelinedClient};
use dpr_core::{Key, SessionId, Value};
use libdpr::DprClientSession;
use std::net::TcpListener;
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
    // Same workload with 0 vs 5 ms metadata statements: operation latency
    // must be unaffected (commits get slower, operations do not) — on the
    // bus, and over a socket whose client asks for the cut between batches:
    // the thread that serves its connection's batches answers that too.
    const STATEMENT: Duration = Duration::from_millis(5);
    let run = |meta_latency: Duration| -> (Duration, Duration) {
        let cluster = Cluster::start(ClusterConfig {
            kind: ClusterKind::DFaster,
            shards: 2,
            metadata_latency: meta_latency,
            checkpoint_interval: Some(Duration::from_millis(20)),
            finder_interval: Duration::from_millis(2),
            ..ClusterConfig::default()
        })
        .unwrap();
        let mut session = cluster.open_session().unwrap();
        // Measure operation latency over 50 single-op executes.
        let t = Instant::now();
        for i in 0..50u64 {
            session
                .execute(vec![ClusterOp::Upsert(
                    Key::from_u64(i),
                    Value::from_u64(i),
                )])
                .unwrap();
        }
        let op_time = t.elapsed() / 50;
        // Committed: the finder has published.
        session
            .wait_all_committed(cluster.cut_source(), Duration::from_secs(20))
            .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = NetServerConfig::default();
        let server = NetServer::start(cluster.workers().to_vec(), listener, config).unwrap();
        let session = DprClientSession::new(SessionId(1 << 20));
        let mut client = PipelinedClient::connect(session, server.local_addr()).unwrap();
        let mut trips: Vec<Duration> = (0..200u64)
            .map(|i| {
                client.request_cut().unwrap();
                let (t, key) = (Instant::now(), Key::from_u64(i));
                let shard = cluster.owner_of(&key).unwrap();
                client
                    .issue(shard, &[ClusterOp::Upsert(key, Value::from_u64(i))])
                    .unwrap();
                while client.inflight() > 0 {
                    client.poll_each(STATEMENT, |_| {}).unwrap();
                }
                t.elapsed()
            })
            .collect();
        trips.sort();
        server.shutdown();
        cluster.shutdown();
        (op_time, trips[197])
    };
    let (fast_ops, fast_trip) = run(Duration::ZERO);
    let (slow_ops, slow_trip) = run(STATEMENT);
    // Operations are microseconds; even with 5 ms metadata statements they
    // must stay far below one metadata round trip.
    assert!(
        slow_ops < STATEMENT,
        "metadata latency leaked into the op path: {slow_ops:?} (baseline {fast_ops:?})"
    );
    assert!(
        slow_trip < STATEMENT,
        "a cut request held the socket's batches: p99 {slow_trip:?} (baseline {fast_trip:?})"
    );
}
