//! Cluster assembly: wire up workers, metadata, finder, ownership and the
//! bus into a running D-FASTER or D-Redis deployment.

use crate::client::SessionHandle;
use crate::dfaster::FasterShard;
use crate::dredis::RedisShard;
use crate::manager::ClusterManager;
use crate::transport::{EndpointId, SimNetwork};
use crate::worker::{ShardStore, Worker, WorkerConfig};
use dpr_core::{
    Clock, DprFinderMode, RecoverabilityLevel, Result, SessionId, ShardId, SystemClock,
};
use dpr_metadata::{Cut, MetadataStore, OwnershipTable, PartitionedSqlStore, Partitioner};
use dpr_redis::{AofPolicy, RedisConfig, RedisStore};
use dpr_storage::{FileLogDevice, MemBlobStore, MemLogDevice, StorageProfile};
use libdpr::{ApproximateFinder, DprFinder, ExactFinder, HybridFinder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, Weak};
use std::thread::Thread;
use std::time::Duration;

/// Which cache-store backs the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterKind {
    /// D-FASTER (§5): deep integration, non-blocking restore.
    DFaster,
    /// D-Redis (§6): unmodified Redis-like store behind the libDPR wrapper.
    DRedis,
}

/// Full deployment configuration — the experiment axes of §7.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Store kind.
    pub kind: ClusterKind,
    /// Number of shard workers (the paper's #VMs).
    pub shards: usize,
    /// Virtual partitions for ownership mapping (§5.3).
    pub partitions: u32,
    /// Checkpoint period (`None` = no checkpoints).
    pub checkpoint_interval: Option<Duration>,
    /// Storage backend profile (null / local SSD / cloud SSD).
    pub storage: StorageProfile,
    /// Cut-finding algorithm.
    pub finder_mode: DprFinderMode,
    /// One-way network latency on the bus.
    pub network_latency: Duration,
    /// Per-statement metadata-store latency (the Azure SQL round trip).
    pub metadata_latency: Duration,
    /// Recoverability level (§7.6).
    pub recoverability: RecoverabilityLevel,
    /// FASTER memory budget per shard, in records of the paper's size (32
    /// bytes each, [`dpr_faster::FasterConfig::memory_budget_records`]): the
    /// default keeps 128 MiB of log resident per shard.
    pub memory_budget_records: usize,
    /// How often the finder service recomputes the cut.
    pub finder_interval: Duration,
    /// Ownership validation, once per batch (§5.3).
    pub validate_ownership: bool,
    /// Insert a pass-through proxy hop in front of every worker (the
    /// Fig. 17/18 "Redis + Proxy" configuration).
    pub extra_proxy_hop: bool,
    /// The most unacknowledged batches each worker remembers, over all
    /// sessions, so that a retransmitted batch is answered again and not
    /// executed again (see [`crate::worker::WorkerConfig::dedupe_window`]);
    /// `0` disables it. Set it wherever clients retransmit: the chaos
    /// harness does, so that loss on a link stays exactly-once.
    pub dedupe_window: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            kind: ClusterKind::DFaster,
            shards: 4,
            partitions: 64,
            checkpoint_interval: Some(Duration::from_millis(100)),
            storage: StorageProfile::Null,
            finder_mode: DprFinderMode::Approximate,
            network_latency: Duration::ZERO,
            metadata_latency: Duration::ZERO,
            recoverability: RecoverabilityLevel::Dpr,
            memory_budget_records: 1 << 22,
            finder_interval: Duration::from_millis(5),
            validate_ownership: true,
            extra_proxy_hop: false,
            dedupe_window: 0,
        }
    }
}

/// Executor threads per D-FASTER worker (a D-Redis store is single-threaded
/// and gets one).
const EXECUTORS_PER_WORKER: usize = 2;

/// A running cluster.
pub struct Cluster {
    config: ClusterConfig,
    net: Arc<SimNetwork>,
    meta: Arc<dyn MetadataStore>,
    ownership: Arc<OwnershipTable>,
    finder: Arc<dyn DprFinder>,
    workers: Vec<Arc<Worker>>,
    worker_endpoints: Arc<RwLock<HashMap<ShardId, EndpointId>>>,
    manager: ClusterManager,
    next_session: AtomicU64,
    shutdown: Arc<AtomicBool>,
    finder_thread: Option<Thread>,
}

impl Cluster {
    /// Start a cluster per `config`.
    pub fn start(config: ClusterConfig) -> Result<Cluster> {
        let net = SimNetwork::new(config.network_latency);
        // One touch counter: nobody reads a cluster's.
        let meta: Arc<dyn MetadataStore> = Arc::new(PartitionedSqlStore::with_latency(
            1,
            config.metadata_latency,
        ));
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let ownership = Arc::new(OwnershipTable::new(
            Partitioner {
                partitions: config.partitions,
            },
            clock,
            Duration::from_secs(10),
        ));
        let finder: Arc<dyn DprFinder> = match config.finder_mode {
            DprFinderMode::Exact => Arc::new(ExactFinder::new(meta.clone())),
            DprFinderMode::Approximate => Arc::new(ApproximateFinder::new(meta.clone())),
            DprFinderMode::Hybrid => Arc::new(HybridFinder::new(meta.clone())),
        };

        let mut cluster = Cluster {
            manager: ClusterManager::new(meta.clone()),
            config,
            net,
            meta,
            ownership,
            finder,
            workers: Vec::new(),
            worker_endpoints: Arc::default(),
            next_session: AtomicU64::new(1),
            shutdown: Arc::default(),
            finder_thread: None,
        };
        for i in 0..cluster.config.shards {
            cluster.start_worker(ShardId(i as u32))?;
        }
        let shard_ids: Vec<ShardId> = cluster.workers.iter().map(|w| w.shard()).collect();
        cluster.ownership.assign_round_robin(&shard_ids);

        if cluster.config.recoverability == RecoverabilityLevel::Dpr {
            let finder_weak: Weak<dyn DprFinder> = Arc::downgrade(&cluster.finder);
            let stop = cluster.shutdown.clone();
            let interval = cluster.config.finder_interval;
            // Parked between refreshes; `shutdown` unparks it.
            let finder = std::thread::Builder::new()
                .name("dpr-finder".into())
                .spawn(move || loop {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let Some(finder) = finder_weak.upgrade() else {
                        return;
                    };
                    let _ = finder.refresh();
                    drop(finder);
                    std::thread::park_timeout(interval);
                })
                .expect("spawn finder service");
            cluster.finder_thread = Some(finder.thread().clone());
        }
        Ok(cluster)
    }

    /// Build, start and publish the worker of `shard`: its store and knobs
    /// per the cluster configuration, and the endpoint clients reach it at
    /// (the worker's own, or that of the proxy hop in front of it).
    fn start_worker(&mut self, shard: ShardId) -> Result<()> {
        let config = &self.config;
        let worker_config = WorkerConfig {
            checkpoint_interval: match config.recoverability {
                RecoverabilityLevel::None | RecoverabilityLevel::Synchronous => None,
                _ => config.checkpoint_interval,
            },
            dpr_enabled: config.recoverability == RecoverabilityLevel::Dpr,
            sync_commit: config.recoverability == RecoverabilityLevel::Synchronous
                && config.kind == ClusterKind::DFaster,
            executors: match config.kind {
                ClusterKind::DFaster => EXECUTORS_PER_WORKER,
                ClusterKind::DRedis => 1,
            },
            validate_ownership: config.validate_ownership,
            fast_forward: true,
            dedupe_window: config.dedupe_window,
        };
        let worker = Worker::start(
            shard,
            build_store(config, shard)?,
            self.net.clone(),
            self.ownership.clone(),
            self.meta.clone(),
            self.finder.clone(),
            worker_config,
        )?;
        let public_endpoint = if config.extra_proxy_hop {
            crate::proxy::start_proxy(&self.net, worker.endpoint())
        } else {
            worker.endpoint()
        };
        self.worker_endpoints
            .write()
            .unwrap()
            .insert(shard, public_endpoint);
        self.workers.push(worker);
        Ok(())
    }

    /// Open a client session (dedicated-client mode).
    pub fn open_session(&self) -> Result<SessionHandle> {
        self.open_session_inner(None)
    }

    /// Open a session co-located with worker `idx`: batches for that shard
    /// execute directly on the calling thread (§5.2).
    pub fn open_session_colocated(&self, idx: usize) -> Result<SessionHandle> {
        self.open_session_inner(Some(self.workers[idx].clone()))
    }

    fn open_session_inner(&self, local: Option<Arc<Worker>>) -> Result<SessionHandle> {
        let id = SessionId(self.next_session.fetch_add(1, Ordering::AcqRel));
        Ok(SessionHandle::new(
            id,
            self.meta.world_line()?,
            self.net.clone(),
            self.ownership.clone(),
            self.meta.clone(),
            self.worker_endpoints.clone(),
            local,
        ))
    }

    /// The latest cut published by the finder service, as the finder keeps
    /// it: no metadata statement.
    #[must_use]
    pub fn current_cut(&self) -> Cut {
        self.finder.current_cut()
    }

    /// A cheap cut reader for [`SessionHandle::wait_all_committed`].
    pub fn cut_source(&self) -> impl Fn() -> Cut + Send + 'static {
        let finder = Arc::clone(&self.finder);
        move || finder.current_cut()
    }

    /// Inject a failure (Fig. 16's methodology) attributed to the worker at
    /// `idx`, and return once recovery is underway; workers roll back
    /// asynchronously. Per §4.1 the recovery protocol is cluster-wide
    /// regardless of which worker crashed — every worker rolls back to the
    /// guaranteed cut — but the `recovery_begin` span names the blamed
    /// shard. The blamed worker keeps its memory: it rolls back as every
    /// other does, and its rollback, like theirs, forgets the replies of the
    /// world-line it leaves (`docs/PROTOCOL.md` §6).
    pub fn inject_failure_at(&self, idx: usize) -> Result<()> {
        let worker = self
            .workers
            .get(idx)
            .ok_or_else(|| dpr_core::DprError::Invalid(format!("no worker at index {idx}")))?;
        self.manager.trigger_failure_at(worker.shard())?;
        Ok(())
    }

    /// Wait for any in-flight recovery to complete.
    pub fn wait_recovered(&self, timeout: Duration) -> Result<()> {
        self.manager.wait_recovery_complete(timeout)
    }

    /// The workers (tests/benchmarks).
    #[must_use]
    pub fn workers(&self) -> &[Arc<Worker>] {
        &self.workers
    }

    /// The shard owning `key` (benchmark key-pool construction).
    pub fn owner_of(&self, key: &dpr_core::Key) -> Result<ShardId> {
        self.ownership.owner_of(key)
    }

    /// Sum of ops executed across workers.
    #[must_use]
    pub fn total_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed_ops()).sum()
    }

    /// The deployment configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared metadata store (tests).
    #[must_use]
    pub fn metadata(&self) -> &Arc<dyn MetadataStore> {
        &self.meta
    }

    /// The simulated network (chaos harness installs link faults here).
    #[must_use]
    pub fn network(&self) -> &Arc<SimNetwork> {
        &self.net
    }

    /// The bus endpoint of the worker at `idx` (chaos harness targets
    /// link faults at it).
    #[must_use]
    pub fn worker_endpoint(&self, idx: usize) -> Option<EndpointId> {
        let shard = self.workers.get(idx)?.shard();
        self.worker_endpoints.read().unwrap().get(&shard).copied()
    }

    /// The finder (tests/ablations).
    #[must_use]
    pub fn finder(&self) -> &Arc<dyn DprFinder> {
        &self.finder
    }

    /// Migrate one virtual partition from the worker at `from_idx` to the
    /// worker at `to_idx` (§5.3). Ownership transfer is deferred to a
    /// checkpoint boundary: the old owner renounces, seals its current
    /// version, the data is copied and made durable at the new owner, and
    /// only then is the partition claimed. Clients retry while the
    /// partition is un-owned. Returns the number of keys moved.
    ///
    /// Failure *during* a migration is out of scope (the paper defers the
    /// full transfer protocol to Shadowfax).
    pub fn migrate_partition(
        &self,
        vp: dpr_metadata::VirtualPartition,
        from_idx: usize,
        to_idx: usize,
    ) -> Result<usize> {
        let from = &self.workers[from_idx];
        let to = &self.workers[to_idx];
        // 1. Renounce: the partition is now un-owned; in-flight writes to it
        //    at the old owner start failing validation.
        self.ownership.renounce(vp, from.shard())?;
        // 2. Seal the last version that contained the partition at the old
        //    owner, so ownership is static within versions.
        let from_store = from.store();
        from_store.wait_durable(from_store.current_version(), Duration::from_secs(10))?;
        // 3. Copy the partition's live data.
        let partitioner = self.ownership.partitioner().clone();
        let moved: Vec<crate::message::ClusterOp> = from
            .store()
            .scan_live()?
            .into_iter()
            .filter(|(k, _)| partitioner.partition_of(k) == vp)
            .map(|(k, v)| crate::message::ClusterOp::Upsert(k, v))
            .collect();
        let count = moved.len();
        if !moved.is_empty() {
            // Direct store write (bypasses ownership validation) under a
            // reserved migration session id.
            let migration_session = SessionId(u64::MAX - u64::from(to.shard().0));
            to.store().execute_batch(migration_session, &moved)?;
        }
        // 4. Make the migrated data durable at the new owner before serving.
        let to_store = to.store();
        to_store.wait_durable(to_store.current_version(), Duration::from_secs(10))?;
        // 5. Claim: clients' retries now resolve to the new owner.
        self.ownership.claim(vp, to.shard())?;
        Ok(count)
    }

    /// Add a worker to the running cluster and rebalance a share of the
    /// virtual partitions onto it ("adding a worker is equivalent to adding
    /// a row in the DPR table", §5.3). Returns the new shard id.
    pub fn add_worker(&mut self) -> Result<ShardId> {
        let new_idx = self.workers.len();
        let shard = ShardId(new_idx as u32);
        self.start_worker(shard)?;
        // Rebalance: every partition that hashes to the new worker under
        // round-robin over the new count moves to it.
        let partitions = self.config.partitions;
        let n = self.workers.len();
        for p in 0..partitions {
            if (p as usize) % n == new_idx {
                let vp = dpr_metadata::VirtualPartition(p);
                let owner = self.ownership.owner_of_partition(vp)?;
                let from_idx = self
                    .workers
                    .iter()
                    .position(|w| w.shard() == owner)
                    .ok_or_else(|| dpr_core::DprError::Invalid("unknown owner".into()))?;
                self.migrate_partition(vp, from_idx, new_idx)?;
            }
        }
        Ok(shard)
    }

    /// Remove the worker at `idx` from the cluster: migrate all its
    /// partitions to the remaining workers, then drop its DPR-table row
    /// ("non-empty workers first migrate all keys before leaving", §5.3).
    pub fn remove_worker(&mut self, idx: usize) -> Result<()> {
        let shard = self.workers[idx].shard();
        let targets: Vec<usize> = (0..self.workers.len()).filter(|&i| i != idx).collect();
        if targets.is_empty() {
            return Err(dpr_core::DprError::Invalid(
                "cannot remove the last worker".into(),
            ));
        }
        let owned = self.ownership.partitions_of(shard);
        for (i, vp) in owned.into_iter().enumerate() {
            self.migrate_partition(vp, idx, targets[i % targets.len()])?;
        }
        self.workers[idx].pump_commits();
        self.meta.remove_worker(shard)?;
        let public = self.worker_endpoints.write().unwrap().remove(&shard);
        let worker = self.workers.remove(idx);
        // A proxy hop in front of the worker ends with its endpoint.
        if let Some(proxy) = public.filter(|&e| e != worker.endpoint()) {
            self.net.close(proxy);
        }
        worker.stop();
        Ok(())
    }

    /// Stop all background threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(finder) = &self.finder_thread {
            finder.unpark();
        }
        for w in &self.workers {
            w.stop();
        }
        self.net.shutdown();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bound on each D-FASTER shard's unflushed (volatile) log region, in
/// records, held to at most the memory budget. Applied only when checkpoints
/// are enabled; makes device speed throughput-relevant via append
/// backpressure (§7.2's "thrashing" regime).
const UNFLUSHED_LIMIT_RECORDS: u64 = 1 << 18;

/// Build one shard's cache-store per the cluster configuration. A D-FASTER
/// shard's log lives in files of its own, charged the storage profile's
/// latency per flush, so what the log has flushed is held by the kernel and
/// not a second time in this process's heap; and its store has no
/// maintenance thread: the worker's shard loop maintains it.
fn build_store(config: &ClusterConfig, shard: ShardId) -> Result<Arc<dyn ShardStore>> {
    Ok(match config.kind {
        ClusterKind::DFaster => {
            let device = Arc::new(FileLogDevice::temporary(config.storage.latency()));
            let blobs = Arc::new(MemBlobStore::with_latency(config.storage.latency()));
            let kv = dpr_faster::FasterKv::new(
                dpr_faster::FasterConfig {
                    memory_budget_records: config.memory_budget_records,
                    // Without checkpoints the log is "entirely mutable and we
                    // do not invoke the checkpointing code path" (§7.2) — no
                    // flushing, no backpressure.
                    unflushed_limit_records: if config.checkpoint_interval.is_some()
                        && config.recoverability != RecoverabilityLevel::None
                    {
                        Some(UNFLUSHED_LIMIT_RECORDS)
                    } else {
                        None
                    },
                    ..dpr_faster::FasterConfig::default()
                },
                device,
                blobs,
            );
            Arc::new(FasterShard::new(shard, kv))
        }
        ClusterKind::DRedis => {
            let blobs = Arc::new(MemBlobStore::with_latency(config.storage.latency()));
            let (aof_policy, aof) = match config.recoverability {
                RecoverabilityLevel::Synchronous => (
                    AofPolicy::Always,
                    Some(Arc::new(MemLogDevice::with_profile(config.storage)) as _),
                ),
                RecoverabilityLevel::Eventual => (
                    AofPolicy::EverySec,
                    Some(Arc::new(MemLogDevice::with_profile(config.storage)) as _),
                ),
                _ => (AofPolicy::Off, None),
            };
            let store = RedisStore::new(RedisConfig { aof: aof_policy }, blobs, aof)?;
            Arc::new(RedisShard::new(shard, store))
        }
    })
}
