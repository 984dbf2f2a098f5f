//! `figures` — every figure of the paper's evaluation (§7, Figs. 10–19) and
//! the ablations, from one table. The command line is [`USAGE`].
//!
//! The defaults (2 s a point, 50,000 keys) are the run `EXPERIMENTS.md`
//! records, so the bare command regenerates `figures_output.txt`; the sweeps
//! are constants of the table. stdout carries result rows only —
//! tab-separated `name key=value ...`, first a `figures-meta` row naming the
//! commit, the host and the effective windows — while progress, errors and
//! the `--metrics` report go to stderr.
//!
//! A table-driven figure is a function returning its [`Point`]s;
//! [`run_points`] gives every point a fresh cluster (start, preload, run the
//! workload, print, shut down), so no point inherits the log or the
//! checkpoints of the one before it. The experiments that do not drive a
//! [`Cluster`] through [`harness::run_workload`] are functions in the same
//! table. The process exits nonzero if any figure fails.

use dpr_bench::harness::{self, BenchParams, RunStats};
use dpr_bench::util::{ms, row, QUANTILES};
use dpr_cassandra::{CassandraConfig, CassandraStore, CommitLogSync};
use dpr_cluster::worker::WorkerConfig;
use dpr_cluster::{
    Cluster, ClusterConfig, ClusterKind, ClusterOp, FasterShard, SimNetwork, Worker,
};
use dpr_core::{
    Clock, DprFinderMode, Key, RecoverabilityLevel, Result, Rng, SessionId, ShardId, SystemClock,
    Value, Version,
};
use dpr_faster::{FasterConfig, FasterKv, OpOutcome};
use dpr_metadata::{MetadataStore, OwnershipTable, PartitionedSqlStore, Partitioner};
use dpr_storage::{MemBlobStore, MemLogDevice, StorageProfile};
use dpr_telemetry::HistogramSnapshot;
use dpr_ycsb::{KeyDistribution, WorkloadGen, WorkloadOp, WorkloadSpec};
use libdpr::{ApproximateFinder, DprClientSession, DprFinder};
use std::collections::VecDeque;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use Figure::{Custom, Table};

const USAGE: &str = "usage: figures [NAME ...] [--secs S] [--keys N] [--metrics[=prometheus]]
  NAME       the first column of the rows to print: fig10 .. fig19, ablation-finder,
             ablation-fastforward, ablation-strict-cpr, extra-workloads; none = all of
             them, in this order
  --secs S   measurement window of one point (default 2)
  --keys N   distinct keys, preloaded before every point (default 50000)
  --metrics  telemetry report on exit, as a table or in the Prometheus format
stdout: result rows only; stderr: progress, errors and the telemetry report";

/// The run's two settings and the windows derived from them.
#[derive(Debug, Clone, Copy)]
struct Opts {
    /// `--secs`: the measurement window of one point.
    window: Duration,
    keys: u64,
}

impl Opts {
    /// Window of the experiments that report commit latency per checkpoint
    /// (Fig. 12) or count checkpoints (two ablations): below 2 s they see
    /// too few of either, so this is a floor, printed in the meta row.
    fn long_window(&self) -> Duration {
        self.window.max(Duration::from_secs(2))
    }

    /// Fig. 16's span: 7.5 windows, 15 s at the default (the paper: 45 s).
    fn recovery_span(&self) -> Duration {
        self.window.mul_f64(7.5)
    }

    /// YCSB-A 50:50 over the keyspace, for one window.
    fn ycsb_a(&self, distribution: KeyDistribution) -> BenchParams {
        let mut params = BenchParams::new(WorkloadSpec::ycsb_a(self.keys, distribution));
        params.duration = self.window;
        params
    }
}

type Fields = Vec<(&'static str, String)>;

/// One `key=value` field of a row.
fn l(key: &'static str, value: impl ToString) -> (&'static str, String) {
    (key, value.to_string())
}

/// One row of a table-driven figure (two under [`Report::BothDistributions`]).
struct Point {
    /// The fields that identify the row.
    labels: Fields,
    /// The clusters it measures and the load on each: one, except Fig. 17's
    /// three side by side.
    runs: Vec<(ClusterConfig, BenchParams)>,
}

impl Point {
    fn new(labels: Fields, config: ClusterConfig, params: BenchParams) -> Point {
        let runs = vec![(config, params)];
        Point { labels, runs }
    }
}

/// What a table-driven figure prints of each point's runs.
#[derive(Clone, Copy)]
enum Report {
    /// Throughput of each run, under these keys.
    Mops(&'static [&'static str]),
    /// Throughput and the operations committed by the end of the window.
    MopsCommitted,
    /// Throughput, mean and p99 operation latency.
    OpLatency,
    /// Throughput, mean and p99 commit latency (needs `measure_commit`).
    CommitLatency,
    /// The percentile distribution of operation latency.
    OpDistribution,
    /// Two rows, `kind=operation` and `kind=commit`, a distribution each
    /// (needs `measure_commit`).
    BothDistributions,
}

impl Report {
    /// The rows of a point: its labels, then what the report reads off
    /// `stats` (one per run).
    fn rows(self, labels: &Fields, stats: &[RunStats]) -> Vec<Fields> {
        let mops = |s: &RunStats| format!("{:.4}", s.mops());
        let with = |fields: Fields| [labels.clone(), fields].concat();
        let s = &stats[0];
        let mean_p99 = |h: &HistogramSnapshot, mean, p99| {
            let p99 = (p99, ms(h.p99() as f64));
            with(vec![l("mops", mops(s)), (mean, ms(h.mean())), p99])
        };
        let distribution = |h: &HistogramSnapshot| {
            let quantile = |&(q, key)| (key, ms(h.quantile(q) as f64));
            let mut fields = vec![l("samples", h.count), l("mean_ms", ms(h.mean()))];
            fields.extend(QUANTILES.iter().map(quantile));
            fields
        };
        match self {
            Report::Mops(keys) => {
                let fields = keys.iter().zip(stats).map(|(k, s)| (*k, mops(s)));
                vec![with(fields.collect())]
            }
            Report::MopsCommitted => {
                vec![with(vec![l("mops", mops(s)), l("committed", s.committed)])]
            }
            Report::OpLatency => {
                vec![mean_p99(&s.op_latency, "mean_latency_ms", "p99_latency_ms")]
            }
            Report::CommitLatency => {
                vec![mean_p99(
                    &s.commit_latency,
                    "mean_commit_ms",
                    "p99_commit_ms",
                )]
            }
            Report::OpDistribution => vec![with(distribution(&s.op_latency))],
            Report::BothDistributions => {
                [("operation", &s.op_latency), ("commit", &s.commit_latency)]
                    .map(|(kind, h)| with([vec![l("kind", kind)], distribution(h)].concat()))
                    .to_vec()
            }
        }
    }
}

/// The one loop: every point on a fresh cluster.
fn run_points(name: &str, report: Report, points: Vec<Point>) -> Result<()> {
    for point in points {
        let mut stats = Vec::with_capacity(point.runs.len());
        for (config, params) in &point.runs {
            let cluster = Cluster::start(config.clone())?;
            harness::preload(&cluster, params.spec.keys);
            stats.push(harness::run_workload(&cluster, params));
            cluster.shutdown();
        }
        for fields in report.rows(&point.labels, &stats) {
            row(name, &fields);
        }
    }
    Ok(())
}

const ZIPFIAN: KeyDistribution = KeyDistribution::Zipfian { theta: 0.99 };
const DISTRIBUTIONS: [(&str, KeyDistribution); 2] =
    [("uniform", KeyDistribution::Uniform), ("zipfian", ZIPFIAN)];
/// Shard counts of the scale-out sweeps (Figs. 10, 17).
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const LEVELS: [(&str, RecoverabilityLevel); 4] = [
    ("none", RecoverabilityLevel::None),
    ("eventual", RecoverabilityLevel::Eventual),
    ("dpr", RecoverabilityLevel::Dpr),
    ("sync", RecoverabilityLevel::Synchronous),
];

fn every(interval_ms: u64) -> Option<Duration> {
    Some(Duration::from_millis(interval_ms))
}

/// The default deployment (D-FASTER, null device, approximate finder, DPR)
/// at the two axes every figure sets; the others are assigned where used.
fn cluster(shards: usize, checkpoint_interval: Option<Duration>) -> ClusterConfig {
    ClusterConfig {
        shards,
        checkpoint_interval,
        ..ClusterConfig::default()
    }
}

/// Figure 10 — Scaling out D-FASTER.
///
/// Throughput vs number of shards for YCSB-A 50:50 under uniform and
/// Zipfian(0.99) access, across storage backends: no checkpoints, null
/// device, local SSD, cloud SSD.
fn fig10(o: &Opts) -> Vec<Point> {
    let backends = [
        ("no-chkpt", None),
        ("null", Some(StorageProfile::Null)),
        ("local-ssd", Some(StorageProfile::LocalSsd)),
        ("cloud-ssd", Some(StorageProfile::CloudSsd)),
    ];
    let mut points = Vec::new();
    for (dist, distribution) in DISTRIBUTIONS {
        for (backend, profile) in backends {
            for shards in SHARDS {
                let mut config = cluster(shards, profile.and(every(100)));
                config.storage = profile.unwrap_or(StorageProfile::Null);
                let labels = vec![l("dist", dist), l("backend", backend), l("shards", shards)];
                points.push(Point::new(labels, config, o.ycsb_a(distribution)));
            }
        }
    }
    points
}

/// Figure 11 — Scaling up D-FASTER.
///
/// Throughput vs client threads per fixed cluster, for three configurations:
/// no checkpoints, checkpoints without DPR tracking, and full DPR. Shows
/// that DPR adds minimal overhead over plain uncoordinated checkpoints.
fn fig11(o: &Opts) -> Vec<Point> {
    let all_series = [
        ("no-chkpt", RecoverabilityLevel::None, None),
        ("no-dpr", RecoverabilityLevel::Eventual, every(100)),
        ("dpr", RecoverabilityLevel::Dpr, every(100)),
    ];
    let mut points = Vec::new();
    for (dist, distribution) in DISTRIBUTIONS {
        for (series, recoverability, checkpoint_interval) in all_series {
            for threads in [1, 2, 4] {
                let mut config = cluster(2, checkpoint_interval);
                config.recoverability = recoverability;
                let mut params = o.ycsb_a(distribution);
                params.clients = threads;
                let labels = vec![l("dist", dist), l("series", series), l("threads", threads)];
                points.push(Point::new(labels, config, params));
            }
        }
    }
    points
}

/// Figure 12 — Latency distribution of D-FASTER.
///
/// Operation-completion and operation-commit latency distributions under
/// 100 ms checkpoints, for a large batch (b=1024) and a small batch (b=64).
/// Commit latency ≈ one checkpoint interval + checkpoint duration;
/// operation latency is dominated by client batching.
fn fig12(o: &Opts) -> Vec<Point> {
    let point = |batch: usize| {
        let mut params = o.ycsb_a(ZIPFIAN);
        params.batch = batch;
        params.window = batch * 16;
        params.duration = o.long_window();
        params.measure_commit = true;
        Point::new(vec![l("batch", batch)], cluster(4, every(100)), params)
    };
    [1024, 64].map(point).into()
}

/// Figure 13 — Throughput–latency trade-off.
///
/// Sweep the client batch size `b` (window w = 16·b) at 100 ms checkpoints
/// and plot mean operation latency against throughput. Small batches give
/// sub-millisecond latency at reduced throughput; beyond the sweet spot,
/// larger batches only add latency.
fn fig13(o: &Opts) -> Vec<Point> {
    let point = |batch: usize| {
        let mut params = o.ycsb_a(ZIPFIAN);
        params.batch = batch;
        params.window = batch * 16;
        Point::new(vec![l("batch", batch)], cluster(4, every(100)), params)
    };
    let batches = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    batches.map(point).into()
}

/// Figure 14 — Impact of storage backend on throughput.
///
/// Throughput and commit latency vs checkpoint interval (500 → 25 ms) for
/// the three storage backends. Cloud storage's slower flushes cost little
/// at long intervals; once the interval approaches the ~40 ms checkpoint
/// duration the system "thrashes" — visible here as commit latency pinned
/// at the checkpoint duration instead of tracking the interval (requested
/// checkpoints are absorbed while the previous one is still flushing).
fn fig14(o: &Opts) -> Vec<Point> {
    use StorageProfile::{CloudSsd, LocalSsd, Null};
    let mut points = Vec::new();
    for storage in [Null, LocalSsd, CloudSsd] {
        for interval_ms in [500, 250, 100, 50, 25] {
            let mut config = cluster(4, every(interval_ms));
            config.storage = storage;
            let mut params = o.ycsb_a(ZIPFIAN);
            params.measure_commit = true;
            let labels = vec![l("backend", storage.label()), l("interval_ms", interval_ms)];
            points.push(Point::new(labels, config, params));
        }
    }
    points
}

/// Figure 15 — Co-location throughput.
///
/// Clients run on the workers themselves; a configurable fraction of
/// operations hit the local shard (no network), the rest go remote. Sweeps
/// the co-location percentage and the batch size: local execution is
/// insensitive to batching, so low-batch workloads benefit most.
fn fig15(o: &Opts) -> Vec<Point> {
    let mut points = Vec::new();
    for batch in [1, 16, 256] {
        for local_pct in [0, 25, 50, 75, 90, 99, 100] {
            // Remote operations must pay a real network cost for co-location
            // to matter; the paper's clients and servers were separate VMs.
            let mut config = cluster(4, every(100));
            config.network_latency = Duration::from_micros(300);
            let mut params = o.ycsb_a(ZIPFIAN);
            params.batch = batch;
            params.window = (batch * 16).max(64);
            params.colocate_local_fraction = Some(f64::from(local_pct) / 100.0);
            let labels = vec![l("batch", batch), l("local_pct", local_pct)];
            points.push(Point::new(labels, config, params));
        }
    }
    points
}

/// Figure 16 — Impact of recovery on throughput.
///
/// Runs the workload for a fixed span with failures injected partway
/// through — one isolated failure and, later, two in short succession (the
/// nested-failure scenario of §7.4) — and reports 250 ms-bucketed series of
/// completed, committed, and aborted operations.
fn fig16(o: &Opts) -> Result<()> {
    // Scaled from the paper's 45 s / failures at 15 s and 30 s.
    let total = o.recovery_span();
    let f1 = total.mul_f64(1.0 / 3.0);
    let f2 = total.mul_f64(2.0 / 3.0);
    let failures = [f1, f2, f2 + Duration::from_millis(400)]; // the last one nested
    let cluster = Cluster::start(cluster(4, every(100)))?;
    harness::preload(&cluster, o.keys);
    let mut params = o.ycsb_a(ZIPFIAN);
    params.duration = total;
    let series = harness::run_with_failures(&cluster, &params, &failures, total);
    cluster.shutdown();

    let failures_at = failures.map(|f| format!("{:.2}", f.as_secs_f64()));
    let meta = [
        l("total_s", format!("{:.1}", total.as_secs_f64())),
        l("failures_at_s", failures_at.join(",")),
        l("total_completed", series[0].total()),
        l("total_committed", series[1].total()),
        l("total_aborted", series[2].total()),
    ];
    row("fig16-meta", &meta);
    let series = series.map(|s| s.rows());
    for i in 0..series.iter().map(Vec::len).max().unwrap_or(0) {
        let at = |s: usize| format!("{:.0}", series[s].get(i).map_or(0.0, |r| r.1));
        let fields = [
            l("t_s", format!("{:.2}", i as f64 * 0.25)),
            l("completed_ops_s", at(0)),
            l("committed_ops_s", at(1)),
            l("aborted_ops_s", at(2)),
        ];
        row("fig16", &fields);
    }
    Ok(())
}

/// The Redis-like store behind the libDPR wrapper, as Figs. 17–18 vary it:
/// * `redis` (`dpr` and `proxy` off) — clients talk to the store servers
///   directly (one hop, no DPR);
/// * `redis-proxy` (`proxy` on) — a pass-through proxy adds a hop but does no
///   DPR work, isolating the cost of the extra hop (§7.5);
/// * `d-redis` (both on) — proxy hop + the full libDPR wrapper, 250 ms
///   checkpoints.
const REDIS_VARIANTS: [(&str, bool, bool); 3] = [
    ("redis", false, false),
    ("redis-proxy", false, true),
    ("d-redis", true, true),
];

fn redis(shards: usize, dpr: bool, proxy: bool) -> ClusterConfig {
    let mut config = cluster(shards, dpr.then_some(Duration::from_millis(250)));
    config.kind = ClusterKind::DRedis;
    config.extra_proxy_hop = proxy;
    if !dpr {
        config.recoverability = RecoverabilityLevel::None;
    }
    config
}

/// Figure 17 — Throughput of D-Redis vs Redis vs Redis+proxy.
///
/// The three [`REDIS_VARIANTS`] side by side in each row, saturated
/// (w=8192, b=1024) and unsaturated (w=1024, b=16) as in the paper.
fn fig17(o: &Opts) -> Vec<Point> {
    let mut points = Vec::new();
    for (mode, window, batch) in [("saturated", 8192, 1024), ("unsaturated", 1024, 16)] {
        for shards in SHARDS {
            let mut params = o.ycsb_a(ZIPFIAN);
            params.window = window;
            params.batch = batch;
            let run = |(_, dpr, proxy)| (redis(shards, dpr, proxy), params.clone());
            let labels = vec![l("mode", mode), l("shards", shards)];
            let runs = REDIS_VARIANTS.map(run).into();
            points.push(Point { labels, runs });
        }
    }
    points
}

/// Figure 18 — Latency distribution of D-Redis vs Redis vs Redis+proxy.
///
/// Unsaturated load (small windows/batches) so latency is visible: direct
/// Redis has the lowest latency; the pass-through proxy adds a hop; D-Redis
/// matches the proxy (the DPR header work itself is negligible — the hop
/// dominates, §7.5).
fn fig18(o: &Opts) -> Vec<Point> {
    let point = |(name, dpr, proxy)| {
        let mut params = o.ycsb_a(ZIPFIAN);
        params.clients = 1;
        params.batch = 16;
        params.window = 64;
        Point::new(vec![l("config", name)], redis(4, dpr, proxy), params)
    };
    REDIS_VARIANTS.map(point).into()
}

/// Figure 19 — Throughput impact of recoverability guarantees.
///
/// Four recoverability levels (None / Eventual / DPR / Synchronous) on
/// three systems: a Cassandra-like commit-log store ([`fig19_cassandra`]),
/// D-Redis, and D-FASTER. The headline result: DPR performs like *eventual*
/// recoverability while providing prefix guarantees, whereas synchronous
/// recoverability costs an order of magnitude. D-FASTER has no native
/// synchronous WAL in the paper either (it marks FASTER-sync N/A);
/// `sync_commit` emulates per-batch group commit and the row is printed
/// for completeness.
fn fig19(o: &Opts) -> Vec<Point> {
    let systems = [
        ("d-redis", ClusterKind::DRedis),
        ("d-faster", ClusterKind::DFaster),
    ];
    let mut points = Vec::new();
    for (system, kind) in systems {
        for (level, recoverability) in LEVELS {
            let mut config = cluster(4, every(100));
            config.kind = kind;
            config.recoverability = recoverability;
            config.storage = StorageProfile::LocalSsd;
            let params = o.ycsb_a(KeyDistribution::Uniform);
            let labels = vec![l("system", system), l("level", level)];
            points.push(Point::new(labels, config, params));
        }
    }
    points
}

/// Cassandra's commit-log mode at each of [`LEVELS`]; it has no DPR.
const CASSANDRA_SYNC: [Option<CommitLogSync>; 4] = [
    Some(CommitLogSync::Off),
    Some(CommitLogSync::Periodic),
    None,
    Some(CommitLogSync::Group),
];

/// Figure 19's Cassandra rows: 4 commit-log stores on the local-SSD profile,
/// sharded by key hash, 2 clients calling them directly (no DPR stack), a
/// 10 ms flusher for the `periodic` mode. The unsupported level prints
/// `n/a`, as in the paper.
fn fig19_cassandra(o: &Opts) -> Result<()> {
    for ((level, _), sync) in LEVELS.iter().zip(CASSANDRA_SYNC) {
        let mops = sync.map(|sync| format!("{:.4}", cassandra_mops(sync, o)));
        let mops = mops.unwrap_or("n/a".to_string());
        let fields = [l("system", "cassandra"), l("level", level), l("mops", mops)];
        row("fig19", &fields);
    }
    Ok(())
}

fn cassandra_mops(sync: CommitLogSync, o: &Opts) -> f64 {
    let device = || Arc::new(MemLogDevice::with_profile(StorageProfile::LocalSsd));
    let stores = [(); 4].map(|()| CassandraStore::new(CassandraConfig { sync }, device()));
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let client = |seed: u64| {
        let spec = WorkloadSpec::ycsb_a(o.keys, KeyDistribution::Uniform);
        let mut gen = WorkloadGen::new(spec, seed);
        let mut done = 0u64;
        while start.elapsed() < o.window {
            for _ in 0..64 {
                let op = gen.next_op();
                let key = op.key().clone();
                let store = &stores[(key.hash64() % stores.len() as u64) as usize];
                match op {
                    WorkloadOp::Read(_) => _ = store.read(&key),
                    WorkloadOp::Update(_, v) => store.write(key, Some(v)).expect("write"),
                    WorkloadOp::Rmw(_) => unreachable!("YCSB-A has no read-modify-write"),
                }
                done += 1;
            }
        }
        done
    };
    let total: u64 = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                for store in &stores {
                    let _ = store.flush_commitlog();
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let clients = [1, 2].map(|seed| scope.spawn(move || client(seed)));
        let total = clients.map(|c| c.join().expect("client")).iter().sum();
        stop.store(true, Ordering::Release);
        total
    });
    total as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Ablation — exact vs approximate vs hybrid DPR finders (§3.3–3.4).
///
/// Same workload, three cut-finding algorithms. Reports throughput (the
/// finder is off the critical path, so it should be flat) and mean commit
/// latency (the approximate finder's false dependencies can add staleness;
/// the hybrid recovers exact precision).
fn ablation_finder(o: &Opts) -> Vec<Point> {
    let point = |(name, finder_mode)| {
        let mut config = cluster(4, every(50));
        config.finder_mode = finder_mode;
        let mut params = o.ycsb_a(ZIPFIAN);
        params.measure_commit = true;
        Point::new(vec![l("finder", name)], config, params)
    };
    let finders = [
        ("exact", DprFinderMode::Exact),
        ("approximate", DprFinderMode::Approximate),
        ("hybrid", DprFinderMode::Hybrid),
    ];
    finders.map(point).into()
}

/// Ablation — `Vmax` fast-forwarding of lagging shards (§3.4).
///
/// Builds a 2-shard cluster by hand where one shard checkpoints 10× less
/// often than the other. Without fast-forwarding, the approximate cut (the
/// cluster-wide `Vmin`) advances at the straggler's pace, inflating commit
/// latency for the fast shard's clients. With fast-forwarding, the
/// straggler catches up to `Vmax` and commit latency recovers.
fn ablation_fastforward(o: &Opts) -> Result<()> {
    for fast_forward in [false, true] {
        let (mops, hist) = fastforward_run(fast_forward, o)?;
        let fields = [
            l("fast_forward", fast_forward),
            l("mops", format!("{mops:.4}")),
            l("mean_commit_ms", ms(hist.mean())),
            l("p99_commit_ms", ms(hist.p99() as f64)),
            l("commits_observed", hist.count),
        ];
        row("ablation-fastforward", &fields);
    }
    Ok(())
}

fn fastforward_run(fast_forward: bool, o: &Opts) -> Result<(f64, HistogramSnapshot)> {
    let net = SimNetwork::new(Duration::ZERO);
    let meta: Arc<dyn MetadataStore> = Arc::new(PartitionedSqlStore::new(8));
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let partitioner = Partitioner { partitions: 64 };
    let lease = Duration::from_secs(10);
    let ownership = Arc::new(OwnershipTable::new(partitioner, clock, lease));
    let finder: Arc<dyn DprFinder> = Arc::new(ApproximateFinder::new(meta.clone()));
    let worker = |shard: u32, interval_ms: u64| {
        let log = Arc::new(MemLogDevice::null());
        let kv = FasterKv::new(FasterConfig::default(), log, Arc::new(MemBlobStore::new()));
        let config = WorkerConfig {
            checkpoint_interval: every(interval_ms),
            executors: 1,
            validate_ownership: false,
            fast_forward,
            ..WorkerConfig::default()
        };
        let store = Arc::new(FasterShard::new(ShardId(shard), kv));
        let (net, ownership) = (net.clone(), ownership.clone());
        let (meta, finder) = (meta.clone(), finder.clone());
        Worker::start(ShardId(shard), store, net, ownership, meta, finder, config)
    };
    // Shard 0 checkpoints every 20 ms; shard 1 is a 10× straggler.
    let (w0, w1) = (worker(0, 20)?, worker(1, 200)?);
    ownership.assign_round_robin(&[w0.shard(), w1.shard()]);

    // Drive load directly against shard 0 (the fast shard) and measure how
    // long its ops take to enter the cut.
    let mut session = DprClientSession::new(SessionId(1));
    let mut hist = HistogramSnapshot::default();
    let mut issued = 0u64;
    let mut commit_queue: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut results = Vec::new();
    let start = Instant::now();
    while start.elapsed() < o.long_window() {
        let header = session.begin_batch(ShardId(0), 16)?;
        let key = |i| Key::from_u64((issued + i) % o.keys);
        let ops: Vec<ClusterOp> = (0..16)
            .map(|i| ClusterOp::Upsert(key(i), Value::from_u64(i)))
            .collect();
        let now = Instant::now();
        results.clear();
        let reply = w0.execute_local_into(&header, &ops, &mut results)?;
        session.process_reply(&reply)?;
        let serials = header.first_serial..header.first_serial + 16;
        commit_queue.extend(serials.map(|serial| (serial, now)));
        issued += 16;
        // Refresh commits against the finder's cut.
        let _ = finder.refresh();
        let prefix = session.refresh_commit(&finder.current_cut());
        let t = Instant::now();
        let committed = commit_queue.partition_point(|(serial, _)| *serial < prefix);
        for (_, at) in commit_queue.drain(..committed) {
            hist.record((t - at).as_nanos() as u64);
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    w0.stop();
    w1.stop();
    Ok((issued as f64 / start.elapsed().as_secs_f64() / 1e6, hist))
}

/// Ablation — strict vs relaxed CPR (§5.4).
///
/// With a working set larger than the resident region, reads regularly
/// touch evicted records. Strict CPR resolves each such read inline
/// (blocking the session); relaxed CPR parks it PENDING, keeps issuing, and
/// resolves a batch of I/Os at once — the paper's argument for why relaxed
/// prefixes (with exception lists) are worth the weaker guarantee.
fn ablation_strict_cpr(o: &Opts) -> Result<()> {
    for (mode, strict_cpr) in [("strict", true), ("relaxed", false)] {
        let config = FasterConfig {
            memory_budget_records: 0, // floor: 2 pages — heavy eviction
            strict_cpr,
            unflushed_limit_records: Some(1 << 14),
            // An evicted read costs one I/O round trip (~local-SSD class).
            simulated_read_latency: Some(Duration::from_micros(100)),
        };
        // A working set much larger than two pages, checkpointed so that
        // eviction can kick in.
        let kv = FasterKv::new(
            config,
            Arc::new(MemLogDevice::null()),
            Arc::new(MemBlobStore::new()),
        );
        let session = kv.start_session(SessionId(1));
        for k in 0..o.keys {
            session.upsert(Key::from_u64(k), Value::from_u64(k))?;
        }
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(1), Duration::from_secs(30)));
        kv.force_evict();

        let start = Instant::now();
        let (mut completed, mut pendings) = (0u64, 0u64);
        let mut rng = Rng::new(1);
        while start.elapsed() < o.long_window() {
            let pendings_before = pendings;
            for _ in 0..64 {
                match session.read(&Key::from_u64(rng.below(o.keys)))? {
                    OpOutcome::Read { .. } => completed += 1,
                    OpOutcome::Pending(_) => pendings += 1,
                    OpOutcome::Mutated { .. } => unreachable!("a read does not mutate"),
                }
            }
            if pendings > pendings_before {
                completed += session.complete_pending()?.len() as u64;
            }
        }
        let mops = completed as f64 / start.elapsed().as_secs_f64() / 1e6;
        let mops = format!("{mops:.4}");
        let fields = [
            l("mode", mode),
            l("read_mops", mops),
            l("pendings", pendings),
        ];
        row("ablation-strict-cpr", &fields);
    }
    Ok(())
}

/// Extra workload mixes (§7.2's omitted experiments): read-mostly (YCSB-B),
/// read-modify-write (YCSB-F) and read-latest (YCSB-D), each with DPR on
/// and off — supporting the paper's statement that "DPR does not slow down
/// D-FASTER" across mixes.
fn extra_workloads(o: &Opts) -> Vec<Point> {
    let workloads = [
        ("ycsb-a(50:50)", WorkloadSpec::ycsb_a(o.keys, ZIPFIAN)),
        ("ycsb-b(95:5)", WorkloadSpec::ycsb_b(o.keys, ZIPFIAN)),
        ("ycsb-f(rmw)", WorkloadSpec::ycsb_f(o.keys, ZIPFIAN)),
        ("ycsb-d(latest)", WorkloadSpec::ycsb_d(o.keys)),
    ];
    let all_series = [
        ("dpr", RecoverabilityLevel::Dpr),
        ("no-dpr", RecoverabilityLevel::Eventual),
    ];
    let mut points = Vec::new();
    for (workload, spec) in workloads {
        for (series, recoverability) in all_series {
            let mut config = cluster(4, every(100));
            config.recoverability = recoverability;
            let mut params = BenchParams::new(spec.clone());
            params.duration = o.window;
            let labels = vec![l("workload", workload), l("series", series)];
            points.push(Point::new(labels, config, params));
        }
    }
    points
}

/// How an entry of [`FIGURES`] produces its rows.
#[derive(Clone, Copy)]
enum Figure {
    /// Points for [`run_points`], and what to print of each.
    Table(Report, fn(&Opts) -> Vec<Point>),
    /// An experiment with a driver of its own; it prints its rows.
    Custom(fn(&Opts) -> Result<()>),
}

const MOPS: Report = Report::Mops(&["mops"]);
const REDIS_MOPS: Report = Report::Mops(&["redis_mops", "redis_proxy_mops", "dredis_mops"]);

/// Every experiment by the name its rows carry, in the order a full run
/// takes them. Fig. 19 is two entries: the Cassandra rows, then the table.
const FIGURES: &[(&str, Figure)] = &[
    ("fig10", Table(Report::MopsCommitted, fig10)),
    ("fig11", Table(MOPS, fig11)),
    ("fig12", Table(Report::BothDistributions, fig12)),
    ("fig13", Table(Report::OpLatency, fig13)),
    ("fig14", Table(Report::CommitLatency, fig14)),
    ("fig15", Table(MOPS, fig15)),
    ("fig16", Custom(fig16)),
    ("fig17", Table(REDIS_MOPS, fig17)),
    ("fig18", Table(Report::OpDistribution, fig18)),
    ("fig19", Custom(fig19_cassandra)),
    ("fig19", Table(MOPS, fig19)),
    (
        "ablation-finder",
        Table(Report::CommitLatency, ablation_finder),
    ),
    ("ablation-fastforward", Custom(ablation_fastforward)),
    ("ablation-strict-cpr", Custom(ablation_strict_cpr)),
    ("extra-workloads", Table(MOPS, extra_workloads)),
];

/// A parsed command line.
#[derive(Debug)]
struct Args {
    /// Selected names; empty = all.
    names: Vec<String>,
    opts: Opts,
    /// `--metrics`: `Some(prometheus)`.
    metrics: Option<bool>,
}

fn parse(args: impl IntoIterator<Item = String>) -> std::result::Result<Args, String> {
    let window = Duration::from_secs(2);
    let mut opts = Opts {
        window,
        keys: 50_000,
    };
    let (mut names, mut metrics) = (Vec::new(), None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--secs" => {
                let secs = value()?.parse().ok();
                let window = secs.and_then(|s| Duration::try_from_secs_f64(s).ok());
                let window = window.filter(|w| !w.is_zero());
                opts.window = window.ok_or("--secs takes a number of seconds above zero")?;
            }
            "--keys" => {
                let keys = value()?.parse().ok().filter(|keys| *keys > 0);
                opts.keys = keys.ok_or("--keys takes a key count above zero")?;
            }
            "--metrics" => metrics = Some(false),
            "--metrics=prometheus" => metrics = Some(true),
            name if FIGURES.iter().any(|(n, _)| *n == name) => names.push(arg),
            _ => return Err(format!("unknown figure or flag `{arg}`")),
        }
    }
    Ok(Args {
        names,
        opts,
        metrics,
    })
}

/// The first row: which commit, on what host, with which effective windows.
fn meta_row(o: &Opts) {
    let read = |path| std::fs::read_to_string(path).unwrap_or_default();
    let mut git = Command::new("git");
    git.args(["-C", env!("CARGO_MANIFEST_DIR"), "describe", "--always"]);
    let commit = git.args(["--dirty", "--exclude=*"]).output().ok();
    let commit = commit.filter(|out| out.status.success());
    let commit = commit.map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let cpuinfo = read("/proc/cpuinfo");
    let model_name = |line: &str| line.strip_prefix("model name").is_some();
    let cpu = cpuinfo.lines().find(|line| model_name(line));
    let cpu = cpu.and_then(|line| line.split_once(':'));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let fields = [
        l("commit", commit.unwrap_or("unknown".to_string())),
        l("nproc", nproc),
        l("cpu", cpu.map_or("unknown", |(_, model)| model.trim())),
        l("kernel", read("/proc/sys/kernel/osrelease").trim()),
        l("secs", o.window.as_secs_f64()),
        l("keys", o.keys),
        l("long_window_s", o.long_window().as_secs_f64()),
        l("fig16_span_s", o.recovery_span().as_secs_f64()),
    ];
    row("figures-meta", &fields);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("figures: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _metrics = args.metrics.map(dpr_bench::metrics_dump);
    meta_row(&args.opts);
    let mut status = ExitCode::SUCCESS;
    for (name, figure) in FIGURES {
        if !args.names.is_empty() && !args.names.iter().any(|n| n == name) {
            continue;
        }
        eprintln!("==> {name}");
        let result = match figure {
            Table(report, points) => run_points(name, *report, points(&args.opts)),
            Custom(run) => run(&args.opts),
        };
        if let Err(e) = result {
            eprintln!("!! {name} failed: {e}");
            status = ExitCode::FAILURE;
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_command_line_is_checked_not_ignored() {
        let args = |line: &str| parse(line.split_whitespace().map(str::to_string));
        let Opts { window, keys } = args("").unwrap().opts;
        assert_eq!((window, keys), (Duration::from_secs(2), 50_000));
        let smoke = args("fig12 ablation-finder --secs 0.2 --keys 2000 --metrics=prometheus");
        let smoke = smoke.unwrap();
        assert_eq!(smoke.names, ["fig12", "ablation-finder"]);
        let Opts { window, keys } = smoke.opts;
        assert_eq!((window, keys), (Duration::from_millis(200), 2000));
        assert_eq!(smoke.metrics, Some(true));
        let bad = "fig20;--shards 2;--metrics=json;--secs;--secs fast;--secs 0;--secs -1;\
                   --secs inf;--secs nan;--keys;--keys 0;--keys -5;--keys 1e3";
        for line in bad.split(';') {
            let message = args(line).expect_err(line);
            assert!(!message.is_empty(), "{line}");
        }
    }

    /// Every selectable name has a runner or at least one point, and a
    /// table-driven one prints exactly the rows — count and field keys — that
    /// the checked-in `figures_output.txt` holds under its name: editing a
    /// sweep or a report without re-taking the document fails here. Every
    /// row of the document is a header or a figure's: a removed figure's rows
    /// fail here too.
    #[test]
    fn the_table_and_figures_output_txt_agree() {
        let mut artifact = std::collections::BTreeMap::<_, Vec<Vec<_>>>::new();
        for line in include_str!("../../../../figures_output.txt").lines() {
            let (name, fields) = line.split_once('\t').expect("a row has fields");
            let key = |field: &'static str| field.split_once('=').expect("key=value").0;
            let keys = fields.split('\t').map(key).collect();
            artifact.entry(name).or_default().push(keys);
        }
        assert_eq!(artifact["figures-meta"].len(), 1);
        let opts = parse(Vec::new()).unwrap().opts;
        let idle = || RunStats {
            completed: 0,
            committed: 0,
            aborted: 0,
            duration: Duration::from_secs(1),
            op_latency: HistogramSnapshot::default(),
            commit_latency: HistogramSnapshot::default(),
        };
        for (name, figure) in FIGURES {
            let Some(taken) = artifact.get(name) else {
                panic!("{name} has no row in figures_output.txt");
            };
            let Table(report, points) = figure else {
                continue;
            };
            let mut rows: Vec<Vec<&str>> = Vec::new();
            for point in points(&opts) {
                let stats: Vec<RunStats> = point.runs.iter().map(|_| idle()).collect();
                let keys = |row: Fields| row.iter().map(|(key, _)| *key).collect();
                rows.extend(report.rows(&point.labels, &stats).into_iter().map(keys));
            }
            assert!(!rows.is_empty(), "{name} has no point");
            // Fig. 19's Cassandra rows come first, from outside the table.
            let outside = CASSANDRA_SYNC.len() * usize::from(*name == "fig19");
            assert_eq!(taken.len(), outside + rows.len(), "{name}: row count");
            assert_eq!(taken[outside..], rows[..], "{name}: field keys");
        }
        for name in artifact.keys() {
            let figure = FIGURES.iter().any(|(n, _)| n == name);
            let header = ["figures-meta", "fig16-meta"].contains(name);
            assert!(figure || header, "{name}: a row of no figure");
        }
    }
}
