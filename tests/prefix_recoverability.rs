//! Property-based test of the core guarantee: after a crash, a FASTER-style
//! shard recovers to a *prefix* of the session's operation sequence —
//! exactly the state produced by applying the first `n` operations, where
//! `n` is the commit point the checkpoint reported.

use dpr::core::{Key, SessionId, Value};
use dpr::faster::{FasterConfig, FasterKv};
use dpr::storage::{MemBlobStore, MemLogDevice};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
enum Op {
    Upsert(u64, u64),
    Delete(u64),
    /// Request a checkpoint and wait for it.
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..32u64, 0..1000u64).prop_map(|(k, v)| Op::Upsert(k, v)),
        2 => (0..32u64).prop_map(Op::Delete),
        1 => Just(Op::Checkpoint),
    ]
}

/// Apply the first `n` data operations to a model map.
fn model_after(ops: &[Op], n: usize) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for op in ops.iter().filter(|o| !matches!(o, Op::Checkpoint)).take(n) {
        match op {
            Op::Upsert(k, v) => {
                m.insert(*k, *v);
            }
            Op::Delete(k) => {
                m.remove(k);
            }
            Op::Checkpoint => unreachable!(),
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crash_recovery_yields_exact_session_prefix(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        let config = FasterConfig {
            memory_budget_records: 1 << 20,
            ..FasterConfig::default()
        };
        {
            let kv = FasterKv::new(config.clone(), device.clone(), blobs.clone());
            let session = kv.start_session(SessionId(1));
            for op in &ops {
                match op {
                    Op::Upsert(k, v) => {
                        session.upsert(Key::from_u64(*k), Value::from_u64(*v)).unwrap();
                    }
                    Op::Delete(k) => {
                        session.delete(Key::from_u64(*k)).unwrap();
                    }
                    Op::Checkpoint => {
                        let target = kv.durable_version().next();
                        if kv.request_checkpoint(None) {
                            prop_assert!(kv.wait_for_durable(target, Duration::from_secs(10)));
                        }
                    }
                }
            }
        }
        // Crash: everything volatile is lost.
        device.crash();
        let kv = FasterKv::recover(config, device, blobs, None).unwrap();

        // The recovered state must equal the model applied up to the commit
        // point the manifest reports for our session.
        let n = kv
            .recovered_manifest()
            .and_then(|m| m.commit_points.get(&SessionId(1)).map(|cp| cp.serial as usize))
            .unwrap_or(0);
        let model = model_after(&ops, n);
        for k in 0..32u64 {
            let got = kv.get(&Key::from_u64(k)).unwrap().and_then(|v| v.as_u64());
            prop_assert_eq!(
                got,
                model.get(&k).copied(),
                "key {} after recovering prefix of {} data ops (manifest v{})",
                k,
                n,
                kv.durable_version().0
            );
        }
    }

    #[test]
    fn rollback_yields_exact_session_prefix(
        ops in prop::collection::vec(op_strategy(), 1..100),
        extra in prop::collection::vec(op_strategy(), 1..40),
    ) {
        // Run `ops` with checkpoints, then `extra` (uncommitted unless it
        // contains checkpoints), then roll back to the durable version. The
        // live store must equal the recovered-prefix model.
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        let config = FasterConfig {
            memory_budget_records: 1 << 20,
            ..FasterConfig::default()
        };
        let kv = FasterKv::new(config, device, blobs);
        let session = kv.start_session(SessionId(1));
        let mut committed_data_ops = 0usize;
        let mut data_ops = 0usize;
        let run = |op: &Op, kv: &Arc<FasterKv>, data_ops: &mut usize, committed: &mut usize| {
            match op {
                Op::Upsert(k, v) => {
                    session.upsert(Key::from_u64(*k), Value::from_u64(*v)).unwrap();
                    *data_ops += 1;
                }
                Op::Delete(k) => {
                    session.delete(Key::from_u64(*k)).unwrap();
                    *data_ops += 1;
                }
                Op::Checkpoint => {
                    let target = kv.durable_version().next();
                    if kv.request_checkpoint(None) {
                        assert!(kv.wait_for_durable(target, Duration::from_secs(10)));
                        *committed = *data_ops;
                    }
                }
            }
        };
        for op in &ops {
            run(op, &kv, &mut data_ops, &mut committed_data_ops);
        }
        for op in &extra {
            run(op, &kv, &mut data_ops, &mut committed_data_ops);
        }
        // Roll back everything uncommitted.
        kv.restore_sync(kv.durable_version(), Duration::from_secs(10)).unwrap();

        let all: Vec<Op> = ops.iter().chain(extra.iter()).cloned().collect();
        let model = model_after(&all, committed_data_ops);
        for k in 0..32u64 {
            let got = kv.get(&Key::from_u64(k)).unwrap().and_then(|v| v.as_u64());
            prop_assert_eq!(
                got,
                model.get(&k).copied(),
                "key {} after rollback to {} committed data ops",
                k,
                committed_data_ops
            );
        }
    }
}
