//! Ablation — `Vmax` fast-forwarding of lagging shards (§3.4).
//!
//! Builds a 2-shard cluster by hand where one shard checkpoints 10× less
//! often than the other. Without fast-forwarding, the approximate cut (the
//! cluster-wide `Vmin`) advances at the straggler's pace, inflating commit
//! latency for the fast shard's clients. With fast-forwarding, the
//! straggler catches up to `Vmax` and commit latency recovers.

use dpr_bench::util::{ms, row};
use dpr_bench::{keyspace, point_duration};
use dpr_cluster::worker::WorkerConfig;
use dpr_cluster::{ClusterOp, FasterShard, SimNetwork, Worker};
use dpr_core::{Clock, Key, SessionId, ShardId, SystemClock, Value};
use dpr_faster::{FasterConfig, FasterKv};
use dpr_metadata::{MetadataStore, OwnershipTable, PartitionedSqlStore, Partitioner};
use dpr_storage::{MemBlobStore, MemLogDevice};
use dpr_ycsb::LatencyHistogram;
use libdpr::{ApproximateFinder, BatchHeader, DprFinder};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_worker(
    shard: u32,
    interval: Duration,
    fast_forward: bool,
    net: &Arc<SimNetwork>,
    ownership: &Arc<OwnershipTable>,
    meta: &Arc<dyn MetadataStore>,
    finder: &Arc<dyn DprFinder>,
) -> Arc<Worker> {
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 22,
            auto_maintenance: true,
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    Worker::start(
        ShardId(shard),
        Arc::new(FasterShard::new(ShardId(shard), kv)),
        net.clone(),
        ownership.clone(),
        meta.clone(),
        finder.clone(),
        WorkerConfig {
            checkpoint_interval: Some(interval),
            dpr_enabled: true,
            sync_commit: false,
            executors: 1,
            validate_ownership: false,
            fast_forward,
            dedupe_window: 0,
        },
    )
    .expect("start worker")
}

fn run(fast_forward: bool, duration: Duration, keys: u64) -> (f64, LatencyHistogram) {
    let net = SimNetwork::new(Duration::ZERO);
    let meta: Arc<dyn MetadataStore> = Arc::new(PartitionedSqlStore::new(8));
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let ownership = Arc::new(OwnershipTable::new(
        Partitioner::Hash { partitions: 64 },
        clock,
        Duration::from_secs(10),
    ));
    let finder: Arc<dyn DprFinder> = Arc::new(ApproximateFinder::new(meta.clone()));
    // Shard 0 checkpoints every 20 ms; shard 1 is a 10× straggler.
    let w0 = build_worker(
        0,
        Duration::from_millis(20),
        fast_forward,
        &net,
        &ownership,
        &meta,
        &finder,
    );
    let w1 = build_worker(
        1,
        Duration::from_millis(200),
        fast_forward,
        &net,
        &ownership,
        &meta,
        &finder,
    );
    ownership.assign_round_robin(&[w0.shard(), w1.shard()]);

    // Drive load directly against shard 0 (the fast shard) and measure how
    // long its ops take to enter the cut.
    let mut session = libdpr::DprClientSession::new(SessionId(1));
    let mut hist = LatencyHistogram::new();
    let mut issued: u64 = 0;
    let mut commit_queue: std::collections::VecDeque<(u64, Instant)> =
        std::collections::VecDeque::new();
    let start = Instant::now();
    let mut completed = 0u64;
    while start.elapsed() < duration {
        let header: BatchHeader = session.begin_batch(ShardId(0), 16).expect("batch");
        let ops: Vec<ClusterOp> = (0..16)
            .map(|i| ClusterOp::Upsert(Key::from_u64((issued + i) % keys), Value::from_u64(i)))
            .collect();
        let now = Instant::now();
        let (reply, _) = w0.execute_local(&header, &ops).expect("execute");
        session.process_reply(&reply).expect("reply");
        for s in header.first_serial..header.first_serial + 16 {
            commit_queue.push_back((s, now));
        }
        issued += 16;
        completed += 16;
        // Refresh commits against the finder's cut.
        let _ = finder.refresh();
        if let Ok(cut) = finder.current_cut() {
            let prefix = session.refresh_commit(&cut);
            let t = Instant::now();
            while let Some(&(serial, at)) = commit_queue.front() {
                if serial < prefix {
                    hist.record(t - at);
                    commit_queue.pop_front();
                } else {
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    w0.stop();
    w1.stop();
    (completed as f64 / start.elapsed().as_secs_f64() / 1e6, hist)
}

fn main() {
    let _metrics = dpr_bench::metrics_dump();
    let keys = keyspace();
    let duration = point_duration().max(Duration::from_secs(2));
    for ff in [false, true] {
        let (mops, hist) = run(ff, duration, keys);
        row(
            "ablation-fastforward",
            &[
                ("fast_forward", ff.to_string()),
                ("mops", format!("{mops:.4}")),
                ("mean_commit_ms", ms(hist.mean())),
                ("p99_commit_ms", ms(hist.percentile(99.0))),
                ("commits_observed", hist.count().to_string()),
            ],
        );
    }
}
