//! Shared load-generation harness: windowed, batched client sessions over a
//! running cluster, measuring throughput, operation latency, commit latency,
//! and (for the recovery experiment) time-bucketed series.

use dpr_cluster::{Cluster, ClusterOp, SessionHandle};
use dpr_core::{DprError, Key, Rng, Value};
use dpr_telemetry::HistogramSnapshot;
use dpr_ycsb::{ThroughputSeries, WorkloadGen, WorkloadOp, WorkloadSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Load parameters (the paper's `w` and `b`, §7.1).
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Concurrent client sessions.
    pub clients: usize,
    /// Outstanding-operation window per client (`w`).
    pub window: usize,
    /// Operations per batch (`b`).
    pub batch: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Workload.
    pub spec: WorkloadSpec,
    /// Co-location: `Some(p)` opens each session co-located with a worker
    /// and draws a fraction `p` of keys from the local shard (§7.3).
    pub colocate_local_fraction: Option<f64>,
    /// Track commit latency (costs a little bookkeeping).
    pub measure_commit: bool,
}

impl BenchParams {
    /// Sensible defaults for a laptop-scale run.
    #[must_use]
    pub fn new(spec: WorkloadSpec) -> Self {
        BenchParams {
            clients: 2,
            window: 1024,
            batch: 64,
            duration: Duration::from_secs(2),
            spec,
            colocate_local_fraction: None,
            measure_commit: false,
        }
    }
}

/// Aggregated results of one run.
#[derive(Debug)]
pub struct RunStats {
    /// Ops completed during the measurement window.
    pub completed: u64,
    /// Ops known committed by the end of the run.
    pub committed: u64,
    /// Ops that completed and were then rolled back by a failure. What a
    /// failure caught in flight never completed and is in neither count.
    pub aborted: u64,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Operation completion latency, in nanoseconds.
    pub op_latency: HistogramSnapshot,
    /// Operation commit latency, in nanoseconds.
    pub commit_latency: HistogramSnapshot,
}

impl RunStats {
    /// Throughput in Mop/s.
    #[must_use]
    pub fn mops(&self) -> f64 {
        self.completed as f64 / self.duration.as_secs_f64() / 1e6
    }
}

fn op_to_cluster(op: WorkloadOp) -> ClusterOp {
    match op {
        WorkloadOp::Read(k) => ClusterOp::Read(k),
        WorkloadOp::Update(k, v) => ClusterOp::Upsert(k, v),
        WorkloadOp::Rmw(k) => ClusterOp::Incr(k),
    }
}

/// Build per-shard key pools so co-located clients can draw local keys
/// without rejection sampling.
fn shard_key_pools(cluster: &Cluster, keys: u64) -> Vec<Vec<u64>> {
    let shards = cluster.workers().len();
    let mut pools = vec![Vec::new(); shards];
    for k in 0..keys {
        let key = Key::from_u64(k);
        if let Ok(owner) = cluster.owner_of(&key) {
            pools[owner.0 as usize].push(k);
        }
    }
    pools
}

struct ClientState {
    session: SessionHandle,
    gen: WorkloadGen,
    issue_times: HashMap<u64, Instant>,
    commit_queue: std::collections::VecDeque<(u64, Instant)>,
    local_pool: Option<Vec<u64>>,
    local_fraction: f64,
    rng: Rng,
}

impl ClientState {
    fn next_batch(&mut self, batch: usize) -> Vec<ClusterOp> {
        let mut ops = Vec::with_capacity(batch);
        for _ in 0..batch {
            let mut op = self.gen.next_op();
            if let Some(pool) = &self.local_pool {
                // Classify local vs global, then draw the key accordingly
                // (§7.3's methodology), preserving the read/update mix.
                if self.rng.bool(self.local_fraction) && !pool.is_empty() {
                    let key = Key::from_u64(pool[self.rng.below(pool.len() as u64) as usize]);
                    op = match op {
                        WorkloadOp::Read(_) => WorkloadOp::Read(key),
                        WorkloadOp::Update(_, v) => WorkloadOp::Update(key, v),
                        WorkloadOp::Rmw(_) => WorkloadOp::Rmw(key),
                    };
                }
            }
            ops.push(op_to_cluster(op));
        }
        ops
    }

    /// Recover the session after a failure: the queued operations below the
    /// surviving prefix are committed, everything else issued so far is
    /// gone. Returns how many of the gone had completed.
    fn recover(&mut self, commit_latency: &mut HistogramSnapshot) -> u64 {
        let aborted_before = self.session.stats().aborted;
        let Ok(survived) = self.session.recover(Duration::from_secs(10)) else {
            return 0;
        };
        let now = Instant::now();
        for (serial, t) in self.commit_queue.drain(..) {
            if serial < survived {
                commit_latency.record((now - t).as_nanos() as u64);
            }
        }
        // No result was taken for these and none will be.
        let never_completed = self.issue_times.len() as u64;
        self.issue_times.clear();
        self.session.stats().aborted - aborted_before - never_completed
    }
}

/// Run the workload against `cluster` and gather statistics.
pub fn run_workload(cluster: &Cluster, params: &BenchParams) -> RunStats {
    let pools = params
        .colocate_local_fraction
        .map(|_| shard_key_pools(cluster, params.spec.keys));
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..params.clients {
            let session = match params.colocate_local_fraction {
                Some(_) => cluster
                    .open_session_colocated(c % cluster.workers().len())
                    .expect("open colocated session"),
                None => cluster.open_session().expect("open session"),
            };
            let local_pool = pools
                .as_ref()
                .map(|p| p[c % cluster.workers().len()].clone());
            let mut state = ClientState {
                session,
                gen: WorkloadGen::new(params.spec.clone(), c as u64 + 1),
                issue_times: HashMap::new(),
                commit_queue: std::collections::VecDeque::new(),
                local_pool,
                local_fraction: params.colocate_local_fraction.unwrap_or(0.0),
                // Apart from every client's workload seed.
                rng: Rng::new(!(c as u64)),
            };
            let params = params.clone();
            handles.push(scope.spawn(move || client_loop(&mut state, &params, start)));
        }
        let mut total = RunStats {
            completed: 0,
            committed: 0,
            aborted: 0,
            duration: Duration::ZERO,
            op_latency: HistogramSnapshot::default(),
            commit_latency: HistogramSnapshot::default(),
        };
        for handle in handles {
            let client = handle.join().expect("client thread");
            total.completed += client.completed;
            total.committed += client.committed;
            total.aborted += client.aborted;
            total.op_latency.merge(&client.op_latency);
            total.commit_latency.merge(&client.commit_latency);
        }
        total.duration = start.elapsed();
        total
    })
}

fn client_loop(state: &mut ClientState, params: &BenchParams, start: Instant) -> RunStats {
    let deadline = start + params.duration;
    let mut op_latency = HistogramSnapshot::default();
    let mut commit_latency = HistogramSnapshot::default();
    let mut last_cut_check = Instant::now();
    let mut aborted = 0u64;
    // A failure shows as a world-line mismatch, from a reply or from the
    // world-line-checked commit refresh: recover first, then go on.
    let moved = |r: Result<u64, DprError>| matches!(r, Err(DprError::WorldLineMismatch { .. }));
    while Instant::now() < deadline {
        // Fill the window.
        while (state.session.inflight_ops() as usize) < params.window {
            let ops = state.next_batch(params.batch);
            let now = Instant::now();
            match state.session.issue(ops) {
                Ok(serials) => {
                    for s in serials {
                        state.issue_times.insert(s, now);
                        if params.measure_commit {
                            state.commit_queue.push_back((s, now));
                        }
                    }
                }
                Err(_) => break,
            }
            if state.session.inflight_ops() == 0 {
                // Fully co-located batch: completed synchronously.
                break;
            }
        }
        // Drain replies.
        let mut failed = moved(state.session.poll(true, Duration::from_millis(10)));
        let now = Instant::now();
        for (serial, _) in state.session.take_results() {
            if let Some(t) = state.issue_times.remove(&serial) {
                op_latency.record((now - t).as_nanos() as u64);
            }
        }
        // Track commits.
        if params.measure_commit && last_cut_check.elapsed() > Duration::from_millis(2) {
            last_cut_check = Instant::now();
            match state.session.refresh_commit_safe() {
                Ok(prefix) => {
                    let now = Instant::now();
                    let queue = &mut state.commit_queue;
                    let committed = queue.partition_point(|(serial, _)| *serial < prefix);
                    for (_, t) in queue.drain(..committed) {
                        commit_latency.record((now - t).as_nanos() as u64);
                    }
                }
                failure => failed |= moved(failure),
            }
        }
        if failed {
            aborted += state.recover(&mut commit_latency);
        }
    }
    // Final committed accounting.
    if moved(state.session.refresh_commit_safe()) {
        aborted += state.recover(&mut commit_latency);
    }
    let stats = state.session.stats();
    RunStats {
        completed: stats.completed,
        committed: stats.committed,
        aborted,
        duration: params.duration,
        op_latency,
        commit_latency,
    }
}

/// The Fig. 16 experiment: run for `total`, injecting failures at the given
/// offsets, and return 250 ms-bucketed series of completed, committed and
/// aborted operations, in that order.
pub fn run_with_failures(
    cluster: &Cluster,
    params: &BenchParams,
    failures_at: &[Duration],
    total: Duration,
) -> [ThroughputSeries; 3] {
    let series = || [(); 3].map(|()| ThroughputSeries::new(Duration::from_millis(250)));
    let start = Instant::now();

    std::thread::scope(|scope| {
        // Failure injector.
        scope.spawn(move || {
            for &at in failures_at {
                std::thread::sleep(at.saturating_sub(start.elapsed()));
                let _ = cluster.inject_failure_at(0);
            }
        });
        let mut clients = Vec::new();
        for c in 0..params.clients {
            let mut session = cluster.open_session().expect("session");
            let mut gen = WorkloadGen::new(params.spec.clone(), c as u64 + 1);
            let params = params.clone();
            clients.push(scope.spawn(move || {
                let [mut completed, mut committed, mut aborted] = series();
                let mut last_committed = 0u64;
                let mut last_aborted = 0u64;
                let deadline = start + total;
                while Instant::now() < deadline {
                    while (session.inflight_ops() as usize) < params.window {
                        let ops: Vec<ClusterOp> = (0..params.batch)
                            .map(|_| op_to_cluster(gen.next_op()))
                            .collect();
                        if session.issue(ops).is_err() {
                            break;
                        }
                    }
                    let at = start.elapsed();
                    match session.poll(true, Duration::from_millis(5)) {
                        Ok(n) => completed.record_at(at, n),
                        Err(_) => {
                            // Failure observed: recover the session and keep
                            // going on the new world-line.
                            if session.recover(Duration::from_secs(10)).is_ok() {
                                let stats = session.stats();
                                let newly_aborted = stats.aborted - last_aborted;
                                last_aborted = stats.aborted;
                                aborted.record_at(start.elapsed(), newly_aborted);
                            }
                        }
                    }
                    session.take_results().clear();
                    // World-line-checked: this loop lives across recoveries,
                    // and a cut read after one it has not noticed yet covers
                    // post-rollback versions that alias purged ones.
                    let _ = session.refresh_commit_safe();
                    let stats = session.stats();
                    if stats.committed > last_committed {
                        committed.record_at(start.elapsed(), stats.committed - last_committed);
                        last_committed = stats.committed;
                    }
                }
                [completed, committed, aborted]
            }));
        }
        let mut merged = series();
        for client in clients {
            let of_client = client.join().expect("client");
            for (sum, part) in merged.iter_mut().zip(&of_client) {
                sum.merge(part);
            }
        }
        merged
    })
}

/// Pre-load the keyspace so reads hit existing records.
pub fn preload(cluster: &Cluster, keys: u64) {
    let mut session = cluster.open_session().expect("loader session");
    let upsert = |k| ClusterOp::Upsert(Key::from_u64(k), Value::from_u64(k));
    for first in (0..keys).step_by(256) {
        let batch = (first..keys.min(first + 256)).map(upsert).collect();
        session.execute(batch).expect("preload");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_cluster::ClusterConfig;

    /// A failure in the middle of `run_workload`: the client loops recover
    /// and go on, and no operation the rollback purged is counted committed.
    #[test]
    fn a_failure_mid_run_is_recovered_from_and_counted_once() {
        let cluster = Cluster::start(ClusterConfig {
            shards: 2,
            checkpoint_interval: Some(Duration::from_millis(20)),
            finder_interval: Duration::from_millis(2),
            ..ClusterConfig::default()
        })
        .unwrap();
        let spec = WorkloadSpec::ycsb_a(1000, dpr_ycsb::KeyDistribution::Uniform);
        let mut params = BenchParams::new(spec);
        params.window = 64;
        params.batch = 8;
        params.measure_commit = true;
        params.duration = Duration::from_millis(600);
        let (stats, executed_at_recovery) = std::thread::scope(|scope| {
            let run = scope.spawn(|| run_workload(&cluster, &params));
            std::thread::sleep(Duration::from_millis(200));
            cluster.inject_failure_at(0).unwrap();
            cluster.wait_recovered(Duration::from_secs(10)).unwrap();
            let executed = cluster.total_executed();
            (run.join().unwrap(), executed)
        });
        // A worker on the new world-line executes nothing of a session that
        // has not recovered.
        assert!(
            cluster.total_executed() > executed_at_recovery,
            "no client went on after the failure"
        );
        cluster.shutdown();
        assert!(stats.aborted > 0, "the failure rolled nothing back");
        assert!(
            stats.committed <= stats.completed - stats.aborted,
            "{} committed of {} completed, {} of them aborted",
            stats.committed,
            stats.completed,
            stats.aborted
        );
    }
}
