//! The chaos driver: a live cluster under sustained YCSB load while a
//! seed-determined fault schedule injects crashes, link faults, checkpoint
//! stalls and membership churn — with the [`InvariantChecker`] watching
//! every tick and an exactly-once ledger auditing session replay.

use crate::checker::InvariantChecker;
use crate::schedule::{self, FaultKind};
use dpr_cluster::{Cluster, ClusterConfig, ClusterKind, ClusterOp, LinkFault, SessionStats};
use dpr_core::{DprFinderMode, Key, Result};
use dpr_metadata::VirtualPartition;
use dpr_ycsb::{KeyDistribution, WorkloadGen, WorkloadOp, WorkloadSpec};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chaos run parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed determining the entire fault schedule (and transport drops).
    pub seed: u64,
    /// Load duration; faults are spread evenly across it.
    pub duration: Duration,
    /// Initial worker count.
    pub shards: usize,
    /// YCSB client threads (plus one ledger session).
    pub clients: usize,
    /// Number of fault events to inject.
    pub events: usize,
    /// YCSB keyspace size.
    pub keys: u64,
    /// Maximum workers added above the initial set (churn depth).
    pub max_extra_workers: usize,
    /// Tolerated per-shard cut lag `Vmax − Vsafe`, in versions.
    pub lag_bound: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xD15EA5E,
            duration: Duration::from_secs(4),
            shards: 3,
            clients: 2,
            events: 8,
            keys: 2048,
            max_extra_workers: 1,
            lag_bound: 256,
        }
    }
}

/// Per-kind fault counts actually executed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultCounts {
    /// Worker crashes (cluster-wide recoveries).
    pub crashes: u64,
    /// Link partitions.
    pub partitions: u64,
    /// Slow-link windows.
    pub slow_links: u64,
    /// Lossy-link windows.
    pub lossy_links: u64,
    /// Checkpoint stalls.
    pub stalls: u64,
    /// Workers added.
    pub workers_added: u64,
    /// Workers removed.
    pub workers_removed: u64,
    /// Partition migrations.
    pub migrations: u64,
    /// Keys moved by migrations.
    pub keys_migrated: u64,
}

/// Everything a chaos run measured.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The configuration the run used.
    pub config: ChaosConfig,
    /// Executed fault schedule, in order (seed-determined).
    pub fault_log: Vec<String>,
    /// Executed fault counts.
    pub faults: FaultCounts,
    /// Wall-clock per recovery, inject → all shards rolled back.
    pub recovery_ms: Vec<u64>,
    /// Milliseconds of 100ms buckets in which zero ops completed
    /// cluster-wide (the lost-availability SLO).
    pub lost_availability_ms: u64,
    /// Total run wall-clock.
    pub elapsed_ms: u64,
    /// Maximum per-shard cut lag observed (versions).
    pub max_cut_lag: u64,
    /// Ops completed across all sessions.
    pub completed: u64,
    /// Ops known committed across all sessions.
    pub committed: u64,
    /// Ops aborted by failures across all sessions.
    pub aborted: u64,
    /// Messages dropped by injected lossy links.
    pub net_dropped: u64,
    /// Invariant-checker tick passes.
    pub checks: u64,
    /// Total invariant violations (must be zero for a healthy protocol).
    pub violation_count: u64,
    /// Stored violation descriptions (capped).
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Percentage of run time with cluster-wide availability.
    #[must_use]
    pub fn availability_pct(&self) -> f64 {
        if self.elapsed_ms == 0 {
            return 100.0;
        }
        100.0 * (1.0 - self.lost_availability_ms as f64 / self.elapsed_ms as f64)
    }

    /// Render the report as a `BENCH_chaos.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut rec_sorted = self.recovery_ms.clone();
        rec_sorted.sort_unstable();
        let p50 = rec_sorted.get(rec_sorted.len() / 2).copied().unwrap_or(0);
        let max = rec_sorted.last().copied().unwrap_or(0);
        let mut s = String::with_capacity(2048);
        s.push_str("{\n  \"bench\": \"chaos\",\n");
        s.push_str(&format!(
            "  \"config\": {{\"seed\": {}, \"duration_ms\": {}, \"shards\": {}, \
             \"clients\": {}, \"events\": {}, \"keys\": {}, \"max_extra_workers\": {}, \
             \"lag_bound\": {}}},\n",
            self.config.seed,
            self.config.duration.as_millis(),
            self.config.shards,
            self.config.clients,
            self.config.events,
            self.config.keys,
            self.config.max_extra_workers,
            self.config.lag_bound,
        ));
        s.push_str("  \"fault_log\": [\n");
        for (i, f) in self.fault_log.iter().enumerate() {
            let comma = if i + 1 == self.fault_log.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!("    \"{f}\"{comma}\n"));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"faults\": {{\"crashes\": {}, \"partitions\": {}, \"slow_links\": {}, \
             \"lossy_links\": {}, \"checkpoint_stalls\": {}, \"workers_added\": {}, \
             \"workers_removed\": {}, \"migrations\": {}, \"keys_migrated\": {}}},\n",
            self.faults.crashes,
            self.faults.partitions,
            self.faults.slow_links,
            self.faults.lossy_links,
            self.faults.stalls,
            self.faults.workers_added,
            self.faults.workers_removed,
            self.faults.migrations,
            self.faults.keys_migrated,
        ));
        s.push_str(&format!(
            "  \"slo\": {{\"recoveries\": {}, \"recovery_ms_p50\": {p50}, \
             \"recovery_ms_max\": {max}, \"lost_availability_ms\": {}, \
             \"availability_pct\": {:.2}, \"max_cut_lag_versions\": {}}},\n",
            self.recovery_ms.len(),
            self.lost_availability_ms,
            self.availability_pct(),
            self.max_cut_lag,
        ));
        s.push_str(&format!(
            "  \"ops\": {{\"completed\": {}, \"committed\": {}, \"aborted\": {}, \
             \"net_messages_dropped\": {}}},\n",
            self.completed, self.committed, self.aborted, self.net_dropped,
        ));
        s.push_str(&format!(
            "  \"invariants\": {{\"checks\": {}, \"violations\": {}, \"catalog\": \
             [\"cut_monotonicity\", \"downward_closure\", \"prefix_recoverability\", \
             \"recovery_completeness\", \"bounded_cut_lag\", \"monotone_reports\", \
             \"exactly_once_replay\"], \
             \"violation_details\": [",
            self.checks, self.violation_count,
        ));
        for (i, v) in self.violations.iter().take(20).enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", v.replace('"', "'")));
        }
        s.push_str("]},\n");
        s.push_str(&format!("  \"elapsed_ms\": {}\n}}\n", self.elapsed_ms));
        s
    }
}

/// Serializes chaos runs within a process: the telemetry span ring and the
/// `libdpr::audit` sink are process-global.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Run one chaos campaign and return its report. Violations do not abort
/// the run — they accumulate in the report for the caller to assert on.
pub fn run(config: &ChaosConfig) -> Result<ChaosReport> {
    let _guard = RUN_LOCK.lock();
    dpr_telemetry::set_enabled(true);
    let checker = Arc::new(InvariantChecker::new(config.lag_bound));
    libdpr::audit::install(checker.clone());
    let result = run_inner(config, &checker);
    libdpr::audit::uninstall();
    result
}

const PARTITIONS: u32 = 32;

fn run_inner(config: &ChaosConfig, checker: &Arc<InvariantChecker>) -> Result<ChaosReport> {
    let cluster = Cluster::start(ClusterConfig {
        kind: ClusterKind::DFaster,
        shards: config.shards,
        partitions: PARTITIONS,
        checkpoint_interval: Some(Duration::from_millis(25)),
        finder_mode: DprFinderMode::Hybrid,
        finder_interval: Duration::from_millis(5),
        network_latency: Duration::from_micros(100),
        dedupe_window: 512,
        ..ClusterConfig::default()
    })?;
    cluster.network().set_fault_seed(config.seed);
    let meta = cluster.metadata().clone();
    let cluster = Arc::new(RwLock::new(cluster));
    let stop = Arc::new(AtomicBool::new(false));
    let completed_ctr = Arc::new(AtomicU64::new(0));

    // Checker thread: one invariant pass every few milliseconds.
    let checker_thread = {
        let checker = checker.clone();
        let meta = meta.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                checker.tick(&meta);
                std::thread::sleep(Duration::from_millis(4));
            }
            checker.tick(&meta);
        })
    };

    // Availability monitor: 100ms buckets with zero completed ops count as
    // lost availability.
    let avail_thread = {
        let completed = completed_ctr.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut lost_ms = 0u64;
            let mut last = completed.load(Ordering::Relaxed);
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(100));
                let now = completed.load(Ordering::Relaxed);
                if now == last {
                    lost_ms += 100;
                }
                last = now;
            }
            lost_ms
        })
    };

    // YCSB load threads.
    let mut load_threads = Vec::new();
    for c in 0..config.clients {
        let session = cluster.read().open_session()?;
        let stop = stop.clone();
        let completed = completed_ctr.clone();
        let keys = config.keys;
        let seed = config.seed ^ (c as u64 + 1).wrapping_mul(0x5DEE_CE66);
        load_threads.push(std::thread::spawn(move || {
            run_load(session, stop, completed, keys, seed)
        }));
    }

    // Exactly-once ledger session.
    let ledger_thread = {
        let session = cluster.read().open_session()?;
        let checker = checker.clone();
        let stop = stop.clone();
        std::thread::spawn(move || crate::ledger::run(session, checker, stop))
    };

    // Fault loop (main thread).
    let plan = schedule::plan(
        config.seed,
        config.events,
        config.shards,
        config.max_extra_workers,
    );
    let gap = config.duration / (config.events as u32 + 1);
    let started = Instant::now();
    let mut fault_log = Vec::with_capacity(plan.len());
    let mut counts = FaultCounts::default();
    let mut recovery_ms = Vec::new();
    for kind in &plan {
        std::thread::sleep(gap);
        fault_log.push(kind.to_string());
        execute_fault(&cluster, checker, kind, &mut counts, &mut recovery_ms);
    }
    if started.elapsed() < config.duration {
        std::thread::sleep(config.duration - started.elapsed());
    }

    // Heal everything, stop load, gather.
    {
        let c = cluster.read();
        c.network().clear_all_link_faults();
        for w in c.workers() {
            w.store().clear_commit_stall();
        }
    }
    // Let retransmissions and commits settle before the final checks.
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Release);
    let mut completed = 0u64;
    let mut committed = 0u64;
    let mut aborted = 0u64;
    for t in load_threads {
        if let Ok(stats) = t.join() {
            completed += stats.completed;
            committed += stats.committed;
            aborted += stats.aborted;
        }
    }
    let _ = ledger_thread.join();
    let _ = checker_thread.join();
    let lost_availability_ms = avail_thread.join().unwrap_or(0);
    let net_dropped = cluster.read().network().dropped_count();
    let elapsed_ms = started.elapsed().as_millis() as u64;
    cluster.read().shutdown();

    Ok(ChaosReport {
        config: config.clone(),
        fault_log,
        faults: counts,
        recovery_ms,
        lost_availability_ms,
        elapsed_ms,
        max_cut_lag: checker.max_lag(),
        completed,
        committed,
        aborted,
        net_dropped,
        checks: checker.checks(),
        violation_count: checker.violation_count(),
        violations: checker.violations(),
    })
}

/// One YCSB client: windowed issue/poll with stall retransmission and
/// failure recovery, mirroring the Fig. 16 methodology.
fn run_load(
    mut session: dpr_cluster::SessionHandle,
    stop: Arc<AtomicBool>,
    completed: Arc<AtomicU64>,
    keys: u64,
    seed: u64,
) -> SessionStats {
    let spec = WorkloadSpec::ycsb_a(keys, KeyDistribution::Zipfian { theta: 0.99 });
    let mut gen = WorkloadGen::new(spec, seed);
    let mut iters = 0u64;
    while !stop.load(Ordering::Acquire) {
        while session.inflight_ops() < 64 {
            let ops: Vec<ClusterOp> = gen
                .next_batch(8)
                .into_iter()
                .map(|op| match op {
                    WorkloadOp::Read(k) => ClusterOp::Read(k),
                    WorkloadOp::Update(k, v) => ClusterOp::Upsert(k, v),
                    WorkloadOp::Rmw(k) => ClusterOp::Incr(k),
                })
                .collect();
            if session.issue(ops).is_err() {
                break;
            }
        }
        match session.poll(true, Duration::from_millis(10)) {
            Ok(n) => {
                completed.fetch_add(n, Ordering::Relaxed);
            }
            Err(dpr_core::DprError::WorldLineMismatch { .. }) => {
                while session.recover(Duration::from_secs(15)).is_err() {
                    if stop.load(Ordering::Acquire) {
                        return session.stats();
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Err(_) => {}
        }
        session.take_results().clear();
        let _ = session.resend_stalled(Duration::from_millis(250));
        iters += 1;
        if iters.is_multiple_of(32) {
            // World-line-checked so an unnoticed recovery cannot inflate
            // the committed prefix with aliased post-rollback versions.
            let _ = session.refresh_commit_safe();
        }
    }
    if let Ok(n) = session.poll(false, Duration::ZERO) {
        completed.fetch_add(n, Ordering::Relaxed);
    }
    let _ = session.refresh_commit_safe();
    session.stats()
}

fn execute_fault(
    cluster: &Arc<RwLock<Cluster>>,
    checker: &Arc<InvariantChecker>,
    kind: &FaultKind,
    counts: &mut FaultCounts,
    recovery_ms: &mut Vec<u64>,
) {
    match *kind {
        FaultKind::CrashWorker { idx } => {
            counts.crashes += 1;
            // Rollback waits for a quiescent checkpoint machine and for
            // worker liveness, so lift stalls and link faults first.
            let c = cluster.read();
            for w in c.workers() {
                w.store().clear_commit_stall();
            }
            c.network().clear_all_link_faults();
            checker.exempt_lag(Duration::from_secs(5));
            let idx = idx.min(c.workers().len() - 1);
            let t = Instant::now();
            if let Err(e) = c.inject_failure_at(idx) {
                checker.report_violation(format!("crash injection failed: {e}"));
                return;
            }
            match c.wait_recovered(Duration::from_secs(15)) {
                Ok(()) => recovery_ms.push(t.elapsed().as_millis() as u64),
                Err(e) => checker.report_violation(format!(
                    "recovery after crashing worker {idx} did not complete: {e}"
                )),
            }
        }
        FaultKind::PartitionLink { idx, ms } => {
            counts.partitions += 1;
            let (net, ep) = {
                let c = cluster.read();
                let idx = idx.min(c.workers().len() - 1);
                (c.network().clone(), c.worker_endpoint(idx))
            };
            if let Some(ep) = ep {
                net.set_link_fault(
                    ep,
                    LinkFault {
                        partitioned: true,
                        ..LinkFault::default()
                    },
                );
                std::thread::sleep(Duration::from_millis(ms));
                net.clear_link_fault(ep);
            }
        }
        FaultKind::SlowLink { idx, extra_ms, ms } => {
            counts.slow_links += 1;
            let (net, ep) = {
                let c = cluster.read();
                let idx = idx.min(c.workers().len() - 1);
                (c.network().clone(), c.worker_endpoint(idx))
            };
            if let Some(ep) = ep {
                net.set_link_fault(
                    ep,
                    LinkFault {
                        extra_delay: Duration::from_millis(extra_ms),
                        ..LinkFault::default()
                    },
                );
                std::thread::sleep(Duration::from_millis(ms));
                net.clear_link_fault(ep);
            }
        }
        FaultKind::LossyLink { idx, drop_pct, ms } => {
            counts.lossy_links += 1;
            let (net, ep) = {
                let c = cluster.read();
                let idx = idx.min(c.workers().len() - 1);
                (c.network().clone(), c.worker_endpoint(idx))
            };
            if let Some(ep) = ep {
                net.set_link_fault(
                    ep,
                    LinkFault {
                        drop_rate: f64::from(drop_pct) / 100.0,
                        ..LinkFault::default()
                    },
                );
                std::thread::sleep(Duration::from_millis(ms));
                net.clear_link_fault(ep);
            }
        }
        FaultKind::StallCheckpoint { idx, ms } => {
            counts.stalls += 1;
            checker.exempt_lag(Duration::from_millis(ms) + Duration::from_secs(5));
            let worker = {
                let c = cluster.read();
                c.workers()[idx.min(c.workers().len() - 1)].clone()
            };
            worker
                .store()
                .inject_commit_stall(Duration::from_millis(ms));
            std::thread::sleep(Duration::from_millis(ms));
            worker.store().clear_commit_stall();
        }
        FaultKind::AddWorker => {
            checker.exempt_lag(Duration::from_secs(5));
            match cluster.write().add_worker() {
                Ok(_) => counts.workers_added += 1,
                Err(e) => checker.report_violation(format!("add_worker failed: {e}")),
            }
        }
        FaultKind::RemoveWorker => {
            checker.exempt_lag(Duration::from_secs(5));
            let mut c = cluster.write();
            c.network().clear_all_link_faults();
            let idx = c.workers().len() - 1;
            let shard = c.workers()[idx].shard();
            match c.remove_worker(idx) {
                Ok(()) => {
                    counts.workers_removed += 1;
                    checker.note_shard_removed(shard);
                }
                Err(e) => checker.report_violation(format!("remove_worker failed: {e}")),
            }
        }
        FaultKind::MigratePartition { key } => {
            counts.migrations += 1;
            let c = cluster.read();
            let key = Key::from_u64(key);
            let vp = VirtualPartition((key.hash64() % u64::from(PARTITIONS)) as u32);
            let moved = c.owner_of(&key).and_then(|owner| {
                let from = c
                    .workers()
                    .iter()
                    .position(|w| w.shard() == owner)
                    .ok_or_else(|| dpr_core::DprError::Invalid("owner not found".into()))?;
                let to = (from + 1) % c.workers().len();
                c.migrate_partition(vp, from, to)
            });
            match moved {
                Ok(n) => counts.keys_migrated += n as u64,
                Err(e) => checker.report_violation(format!("migrate_partition failed: {e}")),
            }
        }
    }
}
