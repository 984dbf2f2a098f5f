//! Ablation — fold-over vs snapshot checkpoints.
//!
//! Fold-over checkpoints flush only the log delta since the last checkpoint
//! (the mode the paper evaluates); snapshot checkpoints serialize the full
//! live state every time. Fold-over's cost is proportional to the write
//! rate, snapshot's to the keyspace — the crossover is why FASTER defaults
//! to fold-over for frequent commits.

use dpr_bench::util::row;
use dpr_bench::{keyspace, point_duration};
use dpr_core::{CheckpointMode, Key, SessionId, Value};
use dpr_faster::{FasterConfig, FasterKv};
use dpr_storage::{MemBlobStore, MemLogDevice, StorageProfile};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run(mode: CheckpointMode, keys: u64, duration: Duration) -> (f64, f64) {
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 24,
            auto_maintenance: true,
            checkpoint_mode: mode,
            strict_cpr: false,
            unflushed_limit_records: None,
            simulated_read_latency: None,
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::with_profile(StorageProfile::LocalSsd)),
        Arc::new(MemBlobStore::with_latency(
            StorageProfile::LocalSsd.latency(),
        )),
    );
    let session = kv.start_session(SessionId(1));
    // Preload the keyspace.
    for k in 0..keys {
        session
            .upsert(Key::from_u64(k), Value::from_u64(k))
            .unwrap();
    }
    let start = Instant::now();
    let mut ops = 0u64;
    let mut checkpoints = 0u64;
    let mut last_checkpoint = Instant::now();
    while start.elapsed() < duration {
        for i in 0..512u64 {
            session
                .upsert(Key::from_u64((ops + i) % keys), Value::from_u64(i))
                .unwrap();
        }
        ops += 512;
        if last_checkpoint.elapsed() > Duration::from_millis(50) {
            if kv.request_checkpoint(None) {
                checkpoints += 1;
            }
            last_checkpoint = Instant::now();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (ops as f64 / elapsed / 1e6, checkpoints as f64 / elapsed)
}

fn main() {
    let _metrics = dpr_bench::metrics_dump();
    let keys = keyspace();
    let duration = point_duration().max(Duration::from_secs(2));
    for (label, mode) in [
        ("fold-over", CheckpointMode::FoldOver),
        ("snapshot", CheckpointMode::Snapshot),
    ] {
        let (mops, cps) = run(mode, keys, duration);
        row(
            "ablation-checkpoint-mode",
            &[
                ("mode", label.to_string()),
                ("mops", format!("{mops:.4}")),
                ("checkpoints_per_s", format!("{cps:.1}")),
            ],
        );
    }
}
