//! Reproduce the Fig. 5 prefix anomaly — and verify DPR's world-line
//! mechanism prevents it (§4.2).
//!
//! The anomaly: during recovery, shard A has already rolled back (and told
//! the client about the failure), but shard B has not. A naïve client that
//! "recovered" then writes op 11 to B; B's later `Restore()` erases it,
//! violating the prefix guarantee. With world-lines, B rejects the
//! post-recovery client until it has itself restored.

use dpr::cluster::{ClusterOp, FasterShard, OpResult};
use dpr::core::{DprError, Key, SessionId, ShardId, Value, Version, WorldLine};
use dpr::faster::{FasterConfig, FasterKv};
use dpr::protocol::{BatchDisposition, DprClientSession, DprServer, StateObject};
use dpr::storage::{MemBlobStore, MemLogDevice};
use dpr_cluster::worker::ShardStore;
use std::sync::Arc;
use std::time::Duration;

fn shard(id: u32) -> (FasterShard, DprServer) {
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 20,
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    (
        FasterShard::new(ShardId(id), kv),
        DprServer::new(ShardId(id)),
    )
}

#[test]
fn straggler_shard_rejects_post_recovery_operations() {
    let (shard_a, server_a) = shard(0);
    let (shard_b, server_b) = shard(1);
    let mut client = DprClientSession::new(SessionId(1));

    // Normal operation: ops 1..10 across A and B, committed at v1.
    for i in 0..5u64 {
        let ha = client.begin_batch(ShardId(0), 1).unwrap();
        let (_, va) = shard_a
            .execute_batch(
                SessionId(1),
                &[ClusterOp::Upsert(Key::from_u64(i), Value::from_u64(i))],
            )
            .unwrap();
        client.process_reply(&server_a.make_reply(&ha, va)).unwrap();
        let hb = client.begin_batch(ShardId(1), 1).unwrap();
        let (_, vb) = shard_b
            .execute_batch(
                SessionId(1),
                &[ClusterOp::Upsert(
                    Key::from_u64(100 + i),
                    Value::from_u64(i),
                )],
            )
            .unwrap();
        client.process_reply(&server_b.make_reply(&hb, vb)).unwrap();
    }

    // Failure detected: the cluster manager assigns world-line 1. Shard A
    // restores immediately; shard B is a straggler, still on world-line 0.
    shard_a.restore(Version::ZERO).unwrap();
    server_a.on_restore();
    server_a.set_world_line(WorldLine(1));

    // The client learns about the failure from A and recovers.
    let ha = client.begin_batch(ShardId(0), 1).unwrap();
    match server_a.validate(&ha, &shard_a) {
        BatchDisposition::Reject(DprError::WorldLineMismatch { .. }) => {}
        other => panic!("expected world-line rejection, got {other:?}"),
    }
    let cut = dpr::metadata::Cut::new(); // nothing committed → empty prefix
    client.handle_failure(WorldLine(1), &cut);
    assert_eq!(client.world_line(), WorldLine(1));

    // THE ANOMALY ATTEMPT: the recovered client issues op 11 to the
    // straggler B. Without world-lines, B would execute it and then erase
    // it in its own Restore(). With DPR, B rejects it (Recovering).
    let hb = client.begin_batch(ShardId(1), 1).unwrap();
    match server_b.validate(&hb, &shard_b) {
        BatchDisposition::Reject(DprError::Recovering) => {}
        other => panic!("straggler must delay the post-recovery client, got {other:?}"),
    }

    // B finally restores and catches up; the client's op now executes and
    // can never be erased by that recovery.
    shard_b.restore(Version::ZERO).unwrap();
    server_b.on_restore();
    server_b.set_world_line(WorldLine(1));
    match server_b.validate(&hb, &shard_b) {
        BatchDisposition::Execute => {}
        other => panic!("expected execute after B recovered, got {other:?}"),
    }
    let (results, vb) = shard_b
        .execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(11), Value::from_u64(11))],
        )
        .unwrap();
    assert_eq!(results[0], OpResult::Done);
    client.process_reply(&server_b.make_reply(&hb, vb)).unwrap();

    // Op 11 is alive on world-line 1.
    let h = client.begin_batch(ShardId(1), 1).unwrap();
    let (results, _) = shard_b
        .execute_batch(SessionId(1), &[ClusterOp::Read(Key::from_u64(11))])
        .unwrap();
    assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(11))));
    drop(h);
}

#[test]
fn stale_client_is_rejected_after_recovery() {
    let (shard_a, server_a) = shard(0);
    // A client still on world-line 0 after the shard moved to 1 must get a
    // world-line mismatch (it has not handled the failure yet).
    let mut client = DprClientSession::new(SessionId(9));
    server_a.set_world_line(WorldLine(1));
    let h = client.begin_batch(ShardId(0), 1).unwrap();
    match server_a.validate(&h, &shard_a) {
        BatchDisposition::Reject(DprError::WorldLineMismatch { requested, current }) => {
            assert_eq!(requested, WorldLine(0));
            assert_eq!(current, WorldLine(1));
        }
        other => panic!("unexpected {other:?}"),
    }
    // Dropping the shard's maintenance thread cleanly.
    std::thread::sleep(Duration::from_millis(1));
}
