//! Protocol-level reproduction of the paper's Example 2: a workflow whose
//! operators pass messages through DPR-wrapped shared logs. A downstream
//! dequeue may observe an upstream enqueue before it commits, and the
//! resulting output can never commit unless its whole causal prefix does.

use bytes::Bytes;
use dpr_core::{SessionId, ShardId, Token, Version};
use dpr_log::{ConsumerId, SharedLog};
use dpr_metadata::{MetadataStore, PartitionedSqlStore};
use dpr_storage::{MemBlobStore, MemLogDevice};
use libdpr::{DprClientSession, DprFinder, ExactFinder, StateObject};
use std::sync::Arc;

fn log(shard: u32) -> SharedLog {
    SharedLog::new(
        ShardId(shard),
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    )
}

/// Report one shard's completed commits to the finder with the given deps.
fn pump(finder: &dyn DprFinder, so: &SharedLog, deps: Vec<Token>) {
    for d in so.take_commits() {
        finder
            .report_commit(Token::new(so.shard(), d.version), deps.clone())
            .unwrap();
    }
}

#[test]
fn downstream_output_cannot_commit_before_upstream_input() {
    let meta = Arc::new(PartitionedSqlStore::new(8));
    meta.register_worker(ShardId(0)).unwrap();
    meta.register_worker(ShardId(1)).unwrap();
    let finder = ExactFinder::new(meta.clone());

    let upstream = log(0); // queue between source and operator
    let downstream = log(1); // queue between operator and sink
    let mut operator = DprClientSession::new(SessionId(1));

    // Source enqueues into the upstream log (uncommitted).
    let (_, v_up) = upstream.enqueue(Bytes::from_static(b"input"));

    // The operator dequeues the *uncommitted* input and enqueues its output
    // downstream; its session carries the dependency.
    let h1 = operator.begin_batch(ShardId(0), 1).unwrap();
    let (got, v_read) = upstream.poll(ConsumerId(1), 1);
    assert_eq!(got.len(), 1, "sees the enqueue before commit");
    operator
        .process_reply(&libdpr::BatchReply {
            shard: ShardId(0),
            world_line: Default::default(),
            version: v_read,
            first_serial: h1.first_serial,
            op_count: 1,
        })
        .unwrap();
    let h2 = operator.begin_batch(ShardId(1), 1).unwrap();
    assert_eq!(
        h2.deps,
        vec![Token::new(ShardId(0), v_read)],
        "output batch declares its dependency on the input version"
    );
    let (_, v_down) = downstream.enqueue(Bytes::from_static(b"output"));
    operator
        .process_reply(&libdpr::BatchReply {
            shard: ShardId(1),
            world_line: Default::default(),
            version: v_down,
            first_serial: h2.first_serial,
            op_count: 1,
        })
        .unwrap();

    // The downstream shard commits its version FIRST — but the DPR cut must
    // hold it back because the upstream input is still volatile.
    assert!(downstream.request_commit(None));
    pump(&finder, &downstream, h2.deps.clone());
    finder.refresh().unwrap();
    let cut = finder.current_cut();
    assert_eq!(
        cut[&ShardId(1)],
        Version::ZERO,
        "output version withheld from the cut until input commits"
    );
    assert_eq!(operator.refresh_commit(&cut), 0);

    // Upstream commits; now both enter the cut and the operator's whole
    // prefix commits.
    assert!(upstream.request_commit(None));
    pump(&finder, &upstream, vec![]);
    finder.refresh().unwrap();
    let cut = finder.current_cut();
    assert!(cut[&ShardId(0)] >= v_up);
    assert!(cut[&ShardId(1)] >= v_down);
    assert_eq!(operator.refresh_commit(&cut), 2, "both ops committed");
}

#[test]
fn rollback_erases_dequeue_with_its_enqueue() {
    // If the input is lost to a failure, the consumer offset movement that
    // read it must roll back too — otherwise the operator would silently
    // skip the re-delivered input.
    let upstream = log(0);
    upstream.enqueue(Bytes::from_static(b"committed"));
    upstream.request_commit(None);
    upstream.take_commits();

    // Uncommitted input read by the operator.
    upstream.enqueue(Bytes::from_static(b"volatile"));
    let (got, _) = upstream.poll(ConsumerId(7), 10);
    assert_eq!(got.len(), 2);

    // Failure: roll back to v1.
    upstream.restore(Version(1)).unwrap();
    assert_eq!(upstream.len(), 1);
    assert_eq!(
        upstream.consumer_offset(ConsumerId(7)),
        0,
        "offset restored to the v1 boundary (before any poll in v1 committed)"
    );
    // Re-delivery works: the committed entry is polled again.
    let (redelivered, _) = upstream.poll(ConsumerId(7), 10);
    assert_eq!(redelivered.len(), 1);
    assert_eq!(redelivered[0].payload, Bytes::from_static(b"committed"));
}
