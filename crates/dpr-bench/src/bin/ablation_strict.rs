//! Ablation — strict vs relaxed CPR (§5.4).
//!
//! With a working set larger than the resident region, reads regularly
//! touch evicted records. Strict CPR resolves each such read inline
//! (blocking the session); relaxed CPR parks it PENDING, keeps issuing, and
//! resolves a batch of I/Os at once — the paper's argument for why relaxed
//! prefixes (with exception lists) are worth the weaker guarantee.

use dpr_bench::util::row;
use dpr_bench::{keyspace, point_duration};
use dpr_core::{CheckpointMode, Key, SessionId, Value, Version};
use dpr_faster::{FasterConfig, FasterKv, OpOutcome};
use dpr_storage::{MemBlobStore, MemLogDevice, StorageProfile};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run(strict: bool, keys: u64, duration: Duration) -> (f64, u64) {
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 0, // floor: 2 pages — heavy eviction
            auto_maintenance: true,
            checkpoint_mode: CheckpointMode::FoldOver,
            strict_cpr: strict,
            unflushed_limit_records: Some(1 << 14),
            // An evicted read costs one I/O round trip (~local-SSD class).
            simulated_read_latency: Some(Duration::from_micros(100)),
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::with_profile(StorageProfile::Null)),
        Arc::new(MemBlobStore::new()),
    );
    let session = kv.start_session(SessionId(1));
    // Preload a working set much larger than two pages, then checkpoint so
    // eviction can kick in.
    for k in 0..keys {
        session
            .upsert(Key::from_u64(k), Value::from_u64(k))
            .unwrap();
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(30)));
    kv.force_evict();

    let start = Instant::now();
    let mut completed = 0u64;
    let mut pendings = 0u64;
    let mut rng: u64 = 0x2545F4914F6CDD1D;
    while start.elapsed() < duration {
        let mut outstanding = 0u64;
        for _ in 0..64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = Key::from_u64(rng % keys);
            match session.read(&key).unwrap() {
                OpOutcome::Read { .. } => completed += 1,
                OpOutcome::Pending(_) => {
                    outstanding += 1;
                    pendings += 1;
                }
                OpOutcome::Mutated { .. } => unreachable!(),
            }
        }
        if outstanding > 0 {
            completed += session.complete_pending().unwrap().len() as u64;
        }
    }
    (
        completed as f64 / start.elapsed().as_secs_f64() / 1e6,
        pendings,
    )
}

fn main() {
    let _metrics = dpr_bench::metrics_dump();
    let keys = keyspace();
    let duration = point_duration().max(Duration::from_secs(2));
    for strict in [true, false] {
        let (mops, pendings) = run(strict, keys, duration);
        row(
            "ablation-strict-cpr",
            &[
                (
                    "mode",
                    if strict { "strict" } else { "relaxed" }.to_string(),
                ),
                ("read_mops", format!("{mops:.4}")),
                ("pendings", pendings.to_string()),
            ],
        );
    }
}
