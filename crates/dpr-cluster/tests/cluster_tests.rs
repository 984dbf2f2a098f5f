//! End-to-end tests: full D-FASTER / D-Redis clusters with client sessions,
//! commit propagation, failure injection and recovery.

use dpr_cluster::{Cluster, ClusterConfig, ClusterKind, ClusterOp, LinkFault, OpResult};
use dpr_core::{Key, RecoverabilityLevel, SessionId, Value, Version, WorldLine};
use dpr_storage::StorageProfile;
use libdpr::BatchHeader;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn base_config(kind: ClusterKind, shards: usize) -> ClusterConfig {
    ClusterConfig {
        kind,
        shards,
        checkpoint_interval: Some(Duration::from_millis(20)),
        storage: StorageProfile::Null,
        finder_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    }
}

fn ops_for_keys(range: std::ops::Range<u64>) -> Vec<ClusterOp> {
    range
        .map(|i| ClusterOp::Upsert(Key::from_u64(i), Value::from_u64(i * 10)))
        .collect()
}

#[test]
fn dfaster_cross_shard_read_write() {
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 4)).unwrap();
    let mut session = cluster.open_session().unwrap();
    session.execute(ops_for_keys(0..64)).unwrap();
    let reads: Vec<ClusterOp> = (0..64).map(|i| ClusterOp::Read(Key::from_u64(i))).collect();
    let results = session.execute(reads).unwrap();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            *r,
            OpResult::Value(Some(Value::from_u64(i as u64 * 10))),
            "key {i}"
        );
    }
    cluster.shutdown();
}

#[test]
fn dfaster_commits_propagate_to_sessions() {
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 4)).unwrap();
    let mut session = cluster.open_session().unwrap();
    session.execute(ops_for_keys(0..32)).unwrap();
    assert_eq!(session.stats().completed, 32);
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    let stats = session.stats();
    assert_eq!(stats.committed, 32, "all ops committed via the DPR cut");
    assert_eq!(stats.aborted, 0);
    cluster.shutdown();
}

#[test]
fn dfaster_incr_and_delete_round_trip() {
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 2)).unwrap();
    let mut session = cluster.open_session().unwrap();
    let k = Key::from_u64(7);
    let results = session
        .execute(vec![
            ClusterOp::Incr(k.clone()),
            ClusterOp::Incr(k.clone()),
            ClusterOp::Read(k.clone()),
            ClusterOp::Delete(k.clone()),
            ClusterOp::Read(k.clone()),
        ])
        .unwrap();
    assert_eq!(results[2], OpResult::Value(Some(Value::from_u64(2))));
    assert_eq!(results[4], OpResult::Value(None));
    cluster.shutdown();
}

#[test]
fn dfaster_failure_rolls_back_uncommitted_state() {
    let mut config = base_config(ClusterKind::DFaster, 2);
    // Long checkpoint interval: writes after the explicit commit wait stay
    // uncommitted until we inject the failure.
    config.checkpoint_interval = Some(Duration::from_millis(50));
    let cluster = Cluster::start(config).unwrap();
    let mut session = cluster.open_session().unwrap();

    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(1),
            Value::from_u64(1),
        )])
        .unwrap();
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();

    // Uncommitted overwrite.
    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(1),
            Value::from_u64(99),
        )])
        .unwrap();

    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();

    // The session discovers the failure on its next interaction.
    let err = session.execute(vec![ClusterOp::Read(Key::from_u64(1))]);
    assert!(err.is_err(), "old-world-line batch must be rejected");
    let survived = session.recover(Duration::from_secs(10)).unwrap();
    assert!(survived >= 1, "committed op survived");

    let results = session
        .execute(vec![ClusterOp::Read(Key::from_u64(1))])
        .unwrap();
    // The uncommitted 99 may or may not have been caught by a checkpoint
    // racing the failure; what is REQUIRED is prefix consistency: the value
    // is either the committed 1, or 99 if the overwrite committed first.
    match &results[0] {
        OpResult::Value(Some(v)) => {
            let got = v.as_u64().unwrap();
            assert!(got == 1 || got == 99, "prefix-consistent value, got {got}");
        }
        other => panic!("unexpected {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn dfaster_failure_with_slow_checkpoints_always_rolls_back() {
    let mut config = base_config(ClusterKind::DFaster, 2);
    config.checkpoint_interval = Some(Duration::from_secs(600)); // effectively never
    let cluster = Cluster::start(config).unwrap();
    let mut session = cluster.open_session().unwrap();

    // Force one commit cycle by writing and explicitly requesting commits.
    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(1),
            Value::from_u64(1),
        )])
        .unwrap();
    for w in cluster.workers() {
        w.store().request_commit(None);
    }
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();

    // These writes can never commit (no checkpoints will run).
    session
        .execute(vec![
            ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(99)),
            ClusterOp::Upsert(Key::from_u64(50), Value::from_u64(50)),
        ])
        .unwrap();

    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    // A cut of the new world-line soon covers the version numbers those
    // writes had: applied by the session, which has not recovered yet, it
    // would count them committed.
    let resumed: Vec<_> = cluster
        .workers()
        .iter()
        .map(|w| (w.shard(), w.store().current_version()))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while resumed
        .iter()
        .any(|(shard, v)| cluster.current_cut().get(shard) < Some(v))
    {
        assert!(Instant::now() < deadline, "no cut of the new world-line");
        for w in cluster.workers() {
            w.store().request_commit(None);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(session.refresh_commit(&cluster.current_cut()), 1);
    let _ = session.execute(vec![ClusterOp::Read(Key::from_u64(1))]);
    session.recover(Duration::from_secs(10)).unwrap();
    let stats = session.stats();
    // Two uncommitted writes, plus the probing read that discovered the
    // failure (its batch was rejected on the old world-line).
    assert_eq!(stats.aborted, 3, "uncommitted ops aborted");

    let results = session
        .execute(vec![
            ClusterOp::Read(Key::from_u64(1)),
            ClusterOp::Read(Key::from_u64(50)),
        ])
        .unwrap();
    assert_eq!(
        results[0],
        OpResult::Value(Some(Value::from_u64(1))),
        "rolled back to committed value"
    );
    assert_eq!(
        results[1],
        OpResult::Value(None),
        "uncommitted insert erased"
    );
    cluster.shutdown();
}

/// Between a rollback and the finder's next publication the finder keeps
/// its cut of the world-line the workers left. A worker answers `CutReq`
/// and collects garbage with `read_cut`: from the finder's cut on its own
/// world-line, from the metadata store meanwhile.
#[test]
fn a_rolled_back_worker_uses_no_cut_of_the_world_line_it_left() {
    let mut config = base_config(ClusterKind::DFaster, 1);
    config.finder_interval = Duration::from_secs(3600); // one publication, at start
    let cluster = Cluster::start(config).unwrap();
    let worker = &cluster.workers()[0];
    let published = loop {
        if let Some(published) = cluster.finder().published() {
            break published;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(Arc::ptr_eq(&worker.read_cut().unwrap(), &published));
    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    let still = cluster.finder().published().unwrap();
    assert!(
        Arc::ptr_eq(&still, &published),
        "the finder published again"
    );
    assert_eq!(worker.read_cut().unwrap().0, WorldLine(1));
    cluster.shutdown();
}

#[test]
fn dfaster_colocated_session_fast_path() {
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 2)).unwrap();
    let mut session = cluster.open_session_colocated(0).unwrap();
    session.execute(ops_for_keys(0..32)).unwrap();
    let reads: Vec<ClusterOp> = (0..32).map(|i| ClusterOp::Read(Key::from_u64(i))).collect();
    let results = session.execute(reads).unwrap();
    assert_eq!(results.len(), 32);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(*r, OpResult::Value(Some(Value::from_u64(i as u64 * 10))));
    }
    cluster.shutdown();
}

#[test]
fn dredis_cluster_round_trip_and_commit() {
    let cluster = Cluster::start(base_config(ClusterKind::DRedis, 3)).unwrap();
    let mut session = cluster.open_session().unwrap();
    session.execute(ops_for_keys(0..30)).unwrap();
    let reads: Vec<ClusterOp> = (0..30).map(|i| ClusterOp::Read(Key::from_u64(i))).collect();
    let results = session.execute(reads).unwrap();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(*r, OpResult::Value(Some(Value::from_u64(i as u64 * 10))));
    }
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    assert_eq!(session.stats().committed, 60);
    cluster.shutdown();
}

#[test]
fn dredis_failure_recovery() {
    let mut config = base_config(ClusterKind::DRedis, 2);
    config.checkpoint_interval = Some(Duration::from_secs(600));
    let cluster = Cluster::start(config).unwrap();
    let mut session = cluster.open_session().unwrap();
    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(1),
            Value::from_u64(1),
        )])
        .unwrap();
    for w in cluster.workers() {
        w.store().request_commit(None);
    }
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    session
        .execute(vec![ClusterOp::Upsert(
            Key::from_u64(1),
            Value::from_u64(99),
        )])
        .unwrap();
    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    let _ = session.execute(vec![ClusterOp::Read(Key::from_u64(1))]);
    session.recover(Duration::from_secs(10)).unwrap();
    let results = session
        .execute(vec![ClusterOp::Read(Key::from_u64(1))])
        .unwrap();
    assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(1))));
    cluster.shutdown();
}

#[test]
fn sync_recoverability_commits_immediately() {
    let mut config = base_config(ClusterKind::DFaster, 2);
    config.recoverability = RecoverabilityLevel::Synchronous;
    let cluster = Cluster::start(config).unwrap();
    let mut session = cluster.open_session().unwrap();
    session.execute(ops_for_keys(0..8)).unwrap();
    // Under sync recoverability every batch waited for durability.
    for w in cluster.workers() {
        assert!(
            w.store().durable_version() >= dpr_core::Version(1) || w.executed_ops() == 0,
            "executed shard must be durable"
        );
    }
    cluster.shutdown();
}

#[test]
fn none_recoverability_never_checkpoints() {
    let mut config = base_config(ClusterKind::DFaster, 2);
    config.recoverability = RecoverabilityLevel::None;
    let cluster = Cluster::start(config).unwrap();
    let mut session = cluster.open_session().unwrap();
    session.execute(ops_for_keys(0..16)).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    for w in cluster.workers() {
        assert_eq!(w.store().durable_version(), dpr_core::Version::ZERO);
    }
    cluster.shutdown();
}

#[test]
fn multiple_sessions_interleave() {
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 4)).unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let mut session = cluster.open_session().unwrap();
            s.spawn(move || {
                for round in 0..10u64 {
                    let ops: Vec<ClusterOp> = (0..16)
                        .map(|i| {
                            ClusterOp::Upsert(
                                Key::from_u64(t * 1000 + round * 16 + i),
                                Value::from_u64(i),
                            )
                        })
                        .collect();
                    session.execute(ops).unwrap();
                }
                assert_eq!(session.stats().completed, 160);
            });
        }
    });
    assert_eq!(cluster.total_executed(), 4 * 160);
    cluster.shutdown();
}

#[test]
fn windowed_async_issue_and_poll() {
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 4)).unwrap();
    let mut session = cluster.open_session().unwrap();
    let window = 256u64;
    let mut issued = 0u64;
    let total = 2000u64;
    while session.stats().completed < total {
        while issued < total && session.inflight_ops() < window {
            let ops: Vec<ClusterOp> = (issued..issued + 16)
                .map(|i| ClusterOp::Upsert(Key::from_u64(i % 500), Value::from_u64(i)))
                .collect();
            session.issue(ops).unwrap();
            issued += 16;
        }
        session.poll(true, Duration::from_millis(100)).unwrap();
    }
    assert_eq!(session.stats().completed, total);
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    assert_eq!(session.stats().committed, total);
    cluster.shutdown();
}

#[test]
fn inject_failure_at_invalid_index_is_an_error() {
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 2)).unwrap();
    assert!(
        cluster.inject_failure_at(5).is_err(),
        "index 5 on a 2-worker cluster must be rejected"
    );
    // The rejected call must not have disturbed the cluster.
    let mut session = cluster.open_session().unwrap();
    session.execute(ops_for_keys(0..8)).unwrap();
    assert_eq!(session.stats().completed, 8);
    cluster.shutdown();
}

#[test]
fn lossy_links_with_dedupe_apply_increments_exactly_once() {
    // Non-idempotent Incrs over links that drop both requests and replies.
    // A dropped request is repaired by `resend_stalled`; a dropped *reply*
    // makes the client resend a batch the worker already executed, so the
    // worker's dedupe cache must answer without re-applying (§7.2).
    let mut config = base_config(ClusterKind::DFaster, 2);
    config.dedupe_window = 64;
    let cluster = Cluster::start(config).unwrap();
    cluster.network().set_fault_seed(0xBAD_CAFE);
    let mut session = cluster.open_session().unwrap();
    let key = Key::from_u64(77);
    const INCRS: u64 = 50;

    let lossy = LinkFault {
        drop_rate: 0.3,
        ..LinkFault::default()
    };
    for idx in 0..2 {
        let ep = cluster.worker_endpoint(idx).unwrap();
        cluster.network().set_link_fault(ep, lossy);
    }
    cluster.network().set_link_fault(session.endpoint(), lossy);

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut issued = 0u64;
    while session.stats().completed < INCRS {
        assert!(
            Instant::now() < deadline,
            "lossy-link retry loop did not converge ({} of {INCRS} done)",
            session.stats().completed
        );
        if issued < INCRS && session.inflight_ops() < 8 {
            session.issue(vec![ClusterOp::Incr(key.clone())]).unwrap();
            issued += 1;
        }
        session.poll(false, Duration::from_millis(5)).unwrap();
        session.resend_stalled(Duration::from_millis(10)).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    cluster.network().clear_all_link_faults();
    let results = session.execute(vec![ClusterOp::Read(key)]).unwrap();
    assert_eq!(
        results[0],
        OpResult::Value(Some(Value::from_u64(INCRS))),
        "increments lost or double-applied across the lossy link"
    );
    cluster.shutdown();
}

#[test]
fn a_retransmitted_batch_outlives_ten_windows_of_fresh_batches() {
    // The pressure of the lossy-link test without its dice: every reply to
    // one `Incr` is dropped on purpose while its session keeps
    // retransmitting it, and ten times `dedupe_window` fresh batches pass
    // through the same worker meanwhile. A count does not push the `Incr`
    // out: its session has not acknowledged it. Its own fresh batches are
    // remembered with it (the `Incr` is its lowest unanswered serial, so it
    // acknowledges none of them) and stay under the window; the bulk comes
    // from a second session, which acknowledges each batch with the next.
    // Each retransmission must be answered from the cache; a second
    // execution shows in the next read.
    const WINDOW: u64 = 64;
    const ROUNDS: u64 = 16;
    const OWN_PER_ROUND: u64 = 3; // 48 in all, below the window
    const OTHER_PER_ROUND: u64 = 10 * WINDOW / ROUNDS;
    let mut config = base_config(ClusterKind::DFaster, 2);
    config.dedupe_window = WINDOW as usize;
    let cluster = Cluster::start(config).unwrap();
    let net = cluster.network();
    let mut session = cluster.open_session().unwrap();
    let mut other = cluster.open_session().unwrap();
    let key = Key::from_u64(77);
    let drop_all = LinkFault {
        drop_rate: 1.0,
        ..LinkFault::default()
    };
    let once = OpResult::Value(Some(Value::from_u64(1)));
    let deadline = Instant::now() + Duration::from_secs(30);

    for round in 0..ROUNDS {
        // Send the `Incr` (again) with the link to the session cut, and
        // wait until the worker's reply to it has been dropped.
        net.set_link_fault(session.endpoint(), drop_all);
        let dropped = net.dropped_count();
        if round == 0 {
            session.issue(vec![ClusterOp::Incr(key.clone())]).unwrap();
        } else {
            assert_eq!(session.resend_stalled(Duration::ZERO).unwrap(), 1);
        }
        while net.dropped_count() == dropped {
            assert!(Instant::now() < deadline, "the worker never replied");
            std::thread::sleep(Duration::from_millis(1));
        }
        net.clear_link_fault(session.endpoint());
        // Reads of the same key: the same shard, so the same reply cache.
        for _ in 0..OWN_PER_ROUND {
            let done = session.stats().completed;
            session.issue(vec![ClusterOp::Read(key.clone())]).unwrap();
            while session.stats().completed == done {
                assert!(Instant::now() < deadline, "a read never completed");
                session.poll(true, Duration::from_millis(100)).unwrap();
            }
        }
        for (_, result) in session.take_results() {
            assert_eq!(result, once, "round {round}: the Incr executed again");
        }
        for _ in 0..OTHER_PER_ROUND {
            let seen = other.execute(vec![ClusterOp::Read(key.clone())]).unwrap();
            assert_eq!(seen[0], once, "round {round}: the Incr executed again");
        }
    }

    // The link has healed: `execute` waits for the `Incr` too, which the
    // next retransmission gets answered, from the cache.
    assert_eq!(session.resend_stalled(Duration::ZERO).unwrap(), 1);
    let results = session.execute(vec![ClusterOp::Read(key)]).unwrap();
    assert_eq!(results[0], once);
    let fresh = ROUNDS * (OWN_PER_ROUND + OTHER_PER_ROUND);
    assert!(fresh > 10 * WINDOW);
    assert_eq!(cluster.total_executed(), 2 + fresh);
    cluster.shutdown();
}

#[test]
fn a_sessions_batches_are_served_in_the_order_sent() {
    // The ordering rule of `docs/NETWORK.md` §6 on the bus: a sender's
    // frames are served by one thread, in the order sent. One session keeps
    // two batches in flight at a worker with two executors: a write, and
    // right behind it a read of the same key. Were the two served by
    // different executors, the read could run first and see the last
    // round's value.
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 1)).unwrap();
    let mut session = cluster.open_session().unwrap();
    let key = Key::from_u64(7);
    const ROUNDS: u64 = 2000;
    for round in 1..=ROUNDS {
        let value = Value::from_u64(round);
        session
            .issue(vec![ClusterOp::Upsert(key.clone(), value.clone())])
            .unwrap();
        session.issue(vec![ClusterOp::Read(key.clone())]).unwrap();
        while session.stats().completed < 2 * round {
            session.poll(true, Duration::from_millis(100)).unwrap();
        }
        let results = session.take_results();
        assert_eq!(
            results[1].1,
            OpResult::Value(Some(value)),
            "round {round}: the read ran before the write sent ahead of it"
        );
    }
    cluster.shutdown();
}

#[test]
fn nested_failures_are_handled_as_sequential_recoveries() {
    let mut config = base_config(ClusterKind::DFaster, 2);
    config.checkpoint_interval = Some(Duration::from_millis(10));
    let cluster = Cluster::start(config).unwrap();
    let mut session = cluster.open_session().unwrap();
    session.execute(ops_for_keys(0..16)).unwrap();
    // First failure.
    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    // Second failure immediately after (the §7.4 nested scenario).
    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    let _ = session.execute(vec![ClusterOp::Read(Key::from_u64(0))]);
    session.recover(Duration::from_secs(10)).unwrap();
    // The cluster is functional on world-line 2.
    assert_eq!(session.world_line(), dpr_core::WorldLine(2));
    session.execute(ops_for_keys(100..110)).unwrap();
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    cluster.shutdown();
}

/// A failure lands while a copy-forward pass waits for the cut on the victim
/// and on a survivor: both roll back, which voids the passes (a record they
/// skipped as superseded may be live again), and nothing of the prefixes they
/// had marked is freed before new passes have copied what is live there.
/// The session's surviving prefix reads back exactly, and the logs go on
/// being shortened in the new world-line.
#[test]
fn a_failure_while_passes_are_pending_loses_nothing() {
    const KEYS: u64 = 300;
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 3)).unwrap();
    let stores: Vec<_> = cluster.workers()[..2]
        .iter()
        .map(|w| w.store().faster().expect("a D-FASTER shard").clone())
        .collect();
    let mut session = cluster.open_session().unwrap();
    // Op `i` writes `i` to key `i % KEYS`, one op a batch: each key is
    // written once per checkpoint or so, every write an append, and the
    // garbage outgrows the live records within a few versions.
    let write = |session: &mut dpr_cluster::SessionHandle, i: u64| {
        session.execute(vec![ClusterOp::Upsert(
            Key::from_u64(i % KEYS),
            Value::from_u64(i),
        )])
    };
    let started = Instant::now();
    let mut issued = 0;
    while stores.iter().any(|kv| kv.pending_pass().is_none()) {
        assert!(started.elapsed() < Duration::from_secs(30), "no pass");
        write(&mut session, issued).unwrap();
        issued += 1;
    }
    let freed_before: Vec<u64> = stores.iter().map(|kv| kv.log_begin()).collect();
    cluster.inject_failure_at(0).unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();
    assert!(write(&mut session, issued).is_err(), "old world-line");
    let survived = session.recover(Duration::from_secs(10)).unwrap();
    assert!(survived <= issued);
    // The newest write below the surviving prefix, key by key.
    let expected = |k: u64, prefix: u64| (0..prefix).rev().find(|i| i % KEYS == k);
    let read_back = |session: &mut dpr_cluster::SessionHandle, prefix: u64, what: &str| {
        let reads = (0..KEYS).map(|k| ClusterOp::Read(Key::from_u64(k)));
        let results = session.execute(reads.collect()).unwrap();
        for (k, r) in results.iter().enumerate() {
            let want = expected(k as u64, prefix).map(Value::from_u64);
            assert_eq!(*r, OpResult::Value(want), "key {k} {what}");
        }
    };
    read_back(&mut session, survived, "after the rollback");
    // Two more rounds over every key, then until both logs have been
    // truncated in the new world-line.
    let mut next = survived.next_multiple_of(KEYS);
    let resumed = next;
    while next < resumed + 2 * KEYS
        || stores
            .iter()
            .zip(&freed_before)
            .any(|(kv, &before)| kv.log_begin() <= before)
    {
        assert!(started.elapsed() < Duration::from_secs(60), "no truncation");
        write(&mut session, next).unwrap();
        next += 1;
    }
    read_back(&mut session, next, "after the truncations");
    cluster.shutdown();
}

/// A finished pass's prefix is freed a few control ticks after the cut
/// covers the version the pass waits for, not at the next round of a timer:
/// on one shard that a session keeps writing to, the log's beginning moves
/// within 50 ms of `pending_pass()` falling to the shard's entry of the cut,
/// five passes in a row.
#[test]
fn a_pass_is_freed_within_50_ms_of_the_cut_covering_it() {
    const KEYS: u64 = 300;
    let cluster = Cluster::start(base_config(ClusterKind::DFaster, 1)).unwrap();
    let worker = &cluster.workers()[0];
    let kv = worker.store().faster().expect("a D-FASTER shard").clone();
    let mut session = cluster.open_session().unwrap();
    let mut issued = 0;
    let mut write = |session: &mut dpr_cluster::SessionHandle| {
        let ops = (issued..issued + 32)
            .map(|i| ClusterOp::Upsert(Key::from_u64(i % KEYS), Value::from_u64(i)));
        session.execute(ops.collect()).unwrap();
        issued += 32;
    };
    let started = Instant::now();
    let mut freed = 0;
    while freed < 5 {
        assert!(started.elapsed() < Duration::from_secs(30), "{freed} freed");
        // `begin` first: a truncation between the two reads then shows as
        // a `begin` that has already moved.
        let begin = kv.log_begin();
        let Some(waits_for) = kv.pending_pass() else {
            write(&mut session);
            continue;
        };
        let mut covered: Option<Instant> = None;
        while kv.log_begin() == begin {
            assert!(started.elapsed() < Duration::from_secs(30), "{freed} freed");
            let cut = cluster.current_cut();
            if cut.get(&worker.shard()).is_some_and(|&at| at >= waits_for) {
                let since = covered.get_or_insert_with(Instant::now).elapsed();
                assert!(
                    since < Duration::from_millis(50),
                    "the pass of {waits_for} is covered and not freed after {since:?}"
                );
            }
            write(&mut session);
        }
        freed += 1;
    }
    cluster.shutdown();
}

/// A batch the co-located worker refuses for ownership has already been
/// given its serials: it is re-routed under them (`docs/PROTOCOL.md` §7),
/// as a remote refusal is, and not handed back to the caller, whose
/// committed prefix would otherwise stop at the first serial never
/// answered. A co-located session writes 256-op batches of its own shard's
/// keys while another thread moves one of their partitions to the other
/// shard and back, 400 times over: no `issue` fails, every write lands, and
/// the committed prefix reaches everything issued.
#[test]
fn a_colocated_batch_refused_mid_migration_keeps_its_serials() {
    const BATCH: usize = 256;
    const MIGRATIONS: usize = 400;
    let cluster = Cluster::start(ClusterConfig {
        partitions: 16,
        ..base_config(ClusterKind::DFaster, 2)
    })
    .unwrap();
    let shard0 = cluster.workers()[0].shard();
    let keys: Vec<Key> = (0..)
        .map(Key::from_u64)
        .filter(|k| cluster.owner_of(k).unwrap() == shard0)
        .take(BATCH)
        .collect();
    let moving = dpr_metadata::VirtualPartition((keys[0].hash64() % 16) as u32);
    let mut session = cluster.open_session_colocated(0).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    let mut round = 0u64;
    std::thread::scope(|scope| {
        let migrator = scope.spawn(|| {
            for i in 0..MIGRATIONS {
                let (from, to) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
                cluster.migrate_partition(moving, from, to).unwrap();
                // Owned for a while: the session's batches get through.
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        while !done.load(std::sync::atomic::Ordering::Acquire) {
            round += 1;
            let ops = keys
                .iter()
                .map(|k| ClusterOp::Upsert(k.clone(), Value::from_u64(round)))
                .collect();
            if let Err(e) = session.issue(ops) {
                done.store(true, std::sync::atomic::Ordering::Release);
                panic!("round {round}: issue failed with {e}");
            }
            // A round's re-routed ops are answered before the next round
            // writes the same keys: a refusal re-routed from `poll` can
            // otherwise land behind a later write (ROADMAP item 2).
            let deadline = Instant::now() + Duration::from_secs(10);
            while session.inflight_ops() > 0 {
                assert!(Instant::now() < deadline, "re-routed ops never answered");
                session.poll(true, Duration::from_millis(10)).unwrap();
            }
        }
        migrator.join().unwrap();
    });
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
        .unwrap();
    let reads = keys.iter().map(|k| ClusterOp::Read(k.clone())).collect();
    for (k, r) in keys.iter().zip(session.execute(reads).unwrap()) {
        assert_eq!(r, OpResult::Value(Some(Value::from_u64(round))), "{k}");
    }
    cluster.shutdown();
}

/// A cluster shard has one background loop, which parks between due times:
/// a 2-shard cluster left idle for 300 ms wakes its shard loops fewer than 400 times
/// (a lease renewal every 4 ms and a checkpoint every 100 ms allow ~150;
/// a loop that polled every millisecond would wake 600 times) — at first,
/// and again once a session has written and a checkpoint interval passed,
/// with checkpoints and without: a log that no maintenance moves (nothing
/// flushes a log without checkpoints) is no work in flight.
#[test]
fn an_idle_cluster_parks_its_background_loops() {
    for checkpoint_interval in [Some(Duration::from_millis(100)), None] {
        let cluster = Cluster::start(ClusterConfig {
            shards: 2,
            checkpoint_interval,
            ..ClusterConfig::default()
        })
        .unwrap();
        let wakeups = || -> u64 { cluster.workers().iter().map(|w| w.loop_wakeups()).sum() };
        let woken_in_300_ms = || {
            let before = wakeups();
            std::thread::sleep(Duration::from_millis(300));
            wakeups() - before
        };
        let woken = woken_in_300_ms();
        assert!(
            woken < 400,
            "{woken} wake-ups of two idle shard loops in 300 ms ({checkpoint_interval:?})"
        );
        let mut session = cluster.open_session().unwrap();
        session.execute(ops_for_keys(0..1_000)).unwrap();
        drop(session);
        std::thread::sleep(Duration::from_millis(150));
        let woken = woken_in_300_ms();
        assert!(
            woken < 400,
            "{woken} wake-ups of two shard loops in 300 ms after writes ({checkpoint_interval:?})"
        );
        cluster.shutdown();
    }
}

/// A batch whose version lower bound is ahead of its shard queues a
/// fast-forward commit and wakes the shard loop to move it: on an idle shard
/// whose loop is parked, it is answered before the loop's next due time. An
/// idle loop without checkpoints is due every 4 ms; issued a millisecond
/// after one of its wake-ups, the median of 20 batches is answered within
/// 2 ms, where without the wake-up each waits the 3 ms left.
#[test]
fn a_batch_ahead_of_an_idle_shard_wakes_its_loop() {
    const SETTLE: Duration = Duration::from_millis(1);
    let cluster = Cluster::start(ClusterConfig {
        shards: 1,
        checkpoint_interval: None,
        ..ClusterConfig::default()
    })
    .unwrap();
    let worker = Arc::clone(&cluster.workers()[0]);
    let (mut waits, mut results) = (Vec::new(), Vec::new());
    for serial in 0..20 {
        // Let the last fast-forward finish and the loop park; then catch a
        // wake-up of it and let that step end.
        std::thread::sleep(Duration::from_millis(10));
        let wakeups = worker.loop_wakeups();
        while worker.loop_wakeups() == wakeups {
            std::hint::spin_loop();
        }
        std::thread::sleep(SETTLE);
        let header = BatchHeader {
            session: SessionId(1),
            world_line: worker.world_line(),
            version_lower_bound: Version(worker.store().current_version().0 + 1),
            deps: Vec::new(),
            first_serial: serial,
            acked_below: serial,
            op_count: 0,
        };
        let t0 = Instant::now();
        worker
            .execute_local_into(&header, &[], &mut results)
            .unwrap();
        waits.push(t0.elapsed());
    }
    waits.sort();
    assert!(
        waits[10] < 2 * SETTLE,
        "a delayed batch waits for the loop's due time: {waits:?}"
    );
    cluster.shutdown();
}
