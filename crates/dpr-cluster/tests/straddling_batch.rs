//! A batch in flight at a checkpoint straddles it: every operation
//! refreshes its CPR session, so the operations before the boundary execute
//! in `v` and the rest in `v + 1`. The worker records such a batch's
//! dependencies at `v`, the lowest version it touched, so that the report of
//! `(A, v)` carries what the operations that did run in `v` rest on. Filed
//! under `v + 1` (what the reply carries), `(A, v)` would enter the cut
//! without them, and a recovery could keep writes whose session predecessor
//! on another shard was rolled back.
//!
//! Real `Worker`, real `FasterShard`, checkpoints every millisecond against
//! batches that take about as long.

use dpr_cluster::worker::WorkerConfig;
use dpr_cluster::{ClusterOp, FasterShard, OpResult, ShardStore, SimNetwork, VersionSpan, Worker};
use dpr_core::{Clock, Key, Result, SessionId, ShardId, SystemClock, Token, Value, Version};
use dpr_faster::{FasterConfig, FasterKv};
use dpr_metadata::{MetadataStore, OwnershipTable, PartitionedSqlStore, Partitioner};
use dpr_storage::{MemBlobStore, MemLogDevice};
use libdpr::{BatchHeader, CommitDescriptor, DprFinder, StateObject};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A `FasterShard` that notes the versions each batch executed in.
struct Spy {
    inner: FasterShard,
    spans: Mutex<Vec<VersionSpan>>,
}

impl StateObject for Spy {
    fn shard(&self) -> ShardId {
        self.inner.shard()
    }
    fn current_version(&self) -> Version {
        self.inner.current_version()
    }
    fn durable_version(&self) -> Version {
        self.inner.durable_version()
    }
    fn request_commit(&self, target: Option<Version>) -> bool {
        self.inner.request_commit(target)
    }
    fn take_commits(&self) -> Vec<CommitDescriptor> {
        self.inner.take_commits()
    }
    fn restore(&self, version: Version) -> Result<()> {
        self.inner.restore(version)
    }
    fn maintain(&self) -> bool {
        self.inner.maintain()
    }
}

impl ShardStore for Spy {
    fn execute_batch_into(
        &self,
        session: SessionId,
        ops: &[ClusterOp],
        out: &mut Vec<OpResult>,
    ) -> Result<VersionSpan> {
        let span = self.inner.execute_batch_into(session, ops, out)?;
        self.spans.lock().unwrap().push(span);
        Ok(span)
    }
    fn scan_live(&self) -> Result<Vec<(Key, Value)>> {
        self.inner.scan_live()
    }
}

/// Keeps every report the worker's commit pump sends.
#[derive(Default)]
struct CapturingFinder {
    reports: Mutex<Vec<(Token, Vec<Token>)>>,
}

impl DprFinder for CapturingFinder {
    fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()> {
        self.reports.lock().unwrap().extend(reports);
        Ok(())
    }
    fn refresh(&self) -> Result<()> {
        Ok(())
    }
    fn max_version(&self) -> Result<Version> {
        Ok(Version::ZERO)
    }
}

#[test]
fn straddling_batch_reports_deps_with_its_lowest_version() {
    const OTHER: ShardId = ShardId(1);
    const OPS: u64 = 2048;
    const WANTED: usize = 10;

    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 20,
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    let store = Arc::new(Spy {
        inner: FasterShard::new(ShardId(0), kv),
        spans: Mutex::new(Vec::new()),
    });
    let finder = Arc::new(CapturingFinder::default());
    let meta: Arc<dyn MetadataStore> = Arc::new(PartitionedSqlStore::new(8));
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let worker = Worker::start(
        ShardId(0),
        store.clone(),
        SimNetwork::new(Duration::ZERO),
        Arc::new(OwnershipTable::new(
            Partitioner { partitions: 64 },
            clock,
            Duration::from_secs(10),
        )),
        meta,
        finder.clone(),
        WorkerConfig {
            checkpoint_interval: Some(Duration::from_millis(1)),
            validate_ownership: false,
            fast_forward: false,
            ..WorkerConfig::default()
        },
    )
    .unwrap();

    // One session, one batch at a time. Batch `i` depends on `(OTHER, i)`:
    // the dependency version labels the batch, and a generation keeps the
    // largest label recorded in it.
    let ops: Vec<ClusterOp> = (0..OPS)
        .map(|k| ClusterOp::Upsert(Key::from_u64(k), Value::from_u64(k)))
        .collect();
    let mut results = Vec::new();
    let mut replied = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    let straddles = |spans: &[VersionSpan]| spans.iter().filter(|s| s.lowest < s.highest).count();
    while straddles(&store.spans.lock().unwrap()) < WANTED && Instant::now() < deadline {
        let label = replied.len() as u64 + 1;
        let header = BatchHeader {
            session: SessionId(7),
            world_line: worker.world_line(),
            version_lower_bound: Version::ZERO,
            deps: vec![Token::new(OTHER, Version(label))],
            first_serial: (label - 1) * OPS,
            acked_below: 0,
            op_count: OPS as u32,
        };
        results.clear();
        let reply = worker
            .execute_local_into(&header, &ops, &mut results)
            .unwrap();
        replied.push(reply.version);
    }
    let spans = store.spans.lock().unwrap().clone();
    assert!(
        straddles(&spans) >= WANTED,
        "only {} of {} batches straddled a checkpoint",
        straddles(&spans),
        spans.len()
    );

    // Let the pump report the last version a batch touched.
    let last = spans[spans.len() - 1].highest;
    while store.current_version() <= last {
        store.request_commit(None);
        std::thread::sleep(Duration::from_millis(1));
    }
    let reported = |v: Version| {
        finder
            .reports
            .lock()
            .unwrap()
            .iter()
            .any(|(t, _)| t.version >= v)
    };
    while !reported(last) {
        assert!(Instant::now() < deadline + Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(1));
    }
    worker.stop();

    let reports = finder.reports.lock().unwrap();
    for (i, span) in spans.iter().enumerate() {
        let label = Version(i as u64 + 1);
        assert_eq!(replied[i], span.highest, "the reply carries the highest");
        // The largest label among the reports up to `v`.
        let carried = |v: Version| {
            reports
                .iter()
                .filter(|(t, _)| t.version <= v)
                .flat_map(|(_, deps)| deps)
                .filter(|d| d.shard == OTHER)
                .map(|d| d.version)
                .max()
                .unwrap_or(Version::ZERO)
        };
        assert!(
            carried(span.lowest) >= label,
            "batch {i} ran in {span:?}; the reports up to v{} carry only label {}",
            span.lowest.0,
            carried(span.lowest).0
        );
        // And not too early: nothing below the batch's first version knows it.
        assert!(carried(span.lowest.prev()) < label);
    }
}
