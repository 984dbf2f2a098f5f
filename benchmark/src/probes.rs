//! Layer probes: the traced run replays the workload's seeded op stream,
//! single-threaded, through one layer's public functions at a time, with a
//! clock around each call. No wire, no other threads contending: what a
//! layer costs when nothing else is in its way. Each probe is sized to a
//! fraction of a second.

use crate::gen::{encode_value, Dist, Kind, Mix, OpGen, PRELOAD_TAG};
use crate::outcome::{Outcome, RunOpts};
use crate::spec::{self, Finder, TcpSpec, BATCH, COLO_BATCH};
use crate::stats::{median, Samples};
use crate::tcp::TcpTrace;
use bytes::Bytes;
use dpr_cluster::{wire, Cluster, ClusterConfig, ClusterOp, FasterShard, OpResult, ShardStore};
use dpr_core::{
    DprFinderMode, Key, Result as DprResult, SessionId, ShardId, Token, Value, Version,
};
use dpr_faster::{FasterConfig, FasterKv, OpOutcome};
use dpr_metadata::{MetadataStore, PartitionedSqlStore};
use dpr_storage::{BlobStore, LogDevice, MemBlobStore, MemLogDevice};
use libdpr::{
    ApproximateFinder, BatchHeader, BatchReply, DprClientSession, DprFinder, DprServer,
    ExactFinder, StateObject,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct batches a probe replays; it goes over them `ROUNDS` times.
const PROBE_BATCHES: usize = 4096;
const ROUNDS: usize = 16;
/// Keys in the store probes (a quarter resident on `colo_store`).
const STORE_KEYS: u64 = 200_000;

/// What a workload's op stream looks like to the probes.
struct Shape {
    batch: usize,
    mix: Mix,
    dist: Dist,
    shards: u32,
    finder: Finder,
    metadata_us: u64,
    /// Keyspace larger than the resident budget (`colo_store`).
    larger_than_memory: bool,
}

fn shape(workload: &str, tcp: Option<&TcpSpec>) -> Shape {
    let half = Mix {
        read_pct: 50,
        upsert_pct: 50,
    };
    match tcp {
        Some(s) => Shape {
            batch: BATCH,
            mix: s.mix,
            dist: s.dist,
            shards: s.shards as u32,
            finder: s.finder,
            metadata_us: s.metadata_us,
            larger_than_memory: false,
        },
        None if workload == "colo_store" => Shape {
            batch: COLO_BATCH,
            mix: spec::COLO_MIX,
            dist: Dist::Zipf(0.99),
            shards: spec::COLO_SHARDS as u32,
            finder: Finder::Approximate,
            metadata_us: 0,
            larger_than_memory: true,
        },
        None => Shape {
            batch: BATCH,
            mix: half,
            dist: Dist::Uniform,
            shards: spec::CRASH_SHARDS as u32,
            finder: Finder::Approximate,
            metadata_us: 0,
            larger_than_memory: false,
        },
    }
}

fn batches(seed: u64, keys: u64, sh: &Shape) -> Vec<Vec<ClusterOp>> {
    let mut gen = OpGen::new(seed, keys, sh.dist, sh.mix);
    (0..PROBE_BATCHES)
        .map(|b| {
            (0..sh.batch)
                .map(|i| {
                    let (kind, idx) = gen.next_op();
                    let key = Key::from_u64(idx);
                    match kind {
                        Kind::Read => ClusterOp::Read(key),
                        Kind::Upsert => ClusterOp::Upsert(
                            key,
                            Value::from_u64(encode_value(1, (b * sh.batch + i) as u64)),
                        ),
                        Kind::Incr => ClusterOp::Incr(key),
                    }
                })
                .collect()
        })
        .collect()
}

/// Nanoseconds per call of `f` over `n` calls.
fn ns_per(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn p50_of(samples: Samples) -> f64 {
    samples.sorted().median_us().unwrap_or(0.0)
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

/// A session that has seen every shard, so its headers carry a full
/// dependency vector, as a client's do in steady state.
fn seasoned_session(shards: u32) -> DprClientSession {
    let mut s = DprClientSession::new(SessionId(77));
    for shard in 0..shards {
        let h = s.begin_batch(ShardId(shard), 1).expect("fresh session");
        s.process_reply(&BatchReply {
            shard: ShardId(shard),
            world_line: h.world_line,
            version: Version(1),
            first_serial: h.first_serial,
            op_count: 1,
        })
        .expect("same world-line");
    }
    s
}

fn wire_probe(stream: &[Vec<ClusterOp>], sh: &Shape, out: &mut Outcome) {
    let mut session = seasoned_session(sh.shards);
    let mut header = session.begin_batch(ShardId(0), 0).expect("active session");
    let ops_total: usize = stream.iter().map(Vec::len).sum();

    // Requests: encode, then decode what was encoded. Every batch has a
    // frame buffer of its own, sized beforehand, so the loops time the
    // codec and nothing else.
    let n = stream.len();
    let mut frames: Vec<Vec<u8>> = (0..n).map(|_| Vec::with_capacity(4096)).collect();
    let encode_req = ns_per(n * ROUNDS, |i| {
        let i = i % n;
        session
            .begin_batch_into(ShardId(0), stream[i].len() as u32, &mut header)
            .expect("active session");
        frames[i].clear();
        wire::encode_request(&mut frames[i], ShardId(0), i as u64, &header, &stream[i]);
        black_box(&frames[i]);
    });
    let req_bytes: usize = frames.iter().map(Vec::len).sum();
    // The server hands the codec a body it already holds in a shared
    // buffer; making that buffer is the network layer's cost, not wire's.
    let body_of = |f: &Vec<u8>| {
        Bytes::from_shared(
            Arc::from(&f[wire::FRAME_HEADER_LEN..]),
            0..f.len() - wire::FRAME_HEADER_LEN,
        )
    };
    let bodies: Vec<Bytes> = frames.iter().map(body_of).collect();
    let mut ops = Vec::new();
    let decode_req = ns_per(n * ROUNDS, |i| {
        let i = i % n;
        black_box(wire::decode_header(&frames[i]).expect("own frame"));
        ops.clear();
        wire::decode_request_body_into(&bodies[i], &mut ops, &mut header).expect("own frame");
        black_box(&ops);
    });

    // Responses to the same batches.
    let results: Vec<Vec<OpResult>> = stream
        .iter()
        .map(|b| {
            b.iter()
                .map(|op| match op {
                    ClusterOp::Read(_) => {
                        OpResult::Value(Some(Value::from_u64(encode_value(1, 7))))
                    }
                    _ => OpResult::Done,
                })
                .collect()
        })
        .collect();
    let reply = BatchReply {
        shard: ShardId(0),
        world_line: header.world_line,
        version: Version(1),
        first_serial: 0,
        op_count: sh.batch as u32,
    };
    let encode_resp = ns_per(n * ROUNDS, |i| {
        let i = i % n;
        frames[i].clear();
        wire::encode_response(&mut frames[i], 0, i as u64, Ok((&reply, &results[i])));
        black_box(&frames[i]);
    });
    let resp_bytes: usize = frames.iter().map(Vec::len).sum();
    let bodies: Vec<Bytes> = frames.iter().map(body_of).collect();
    let mut decoded = Vec::new();
    let decode_resp = ns_per(n * ROUNDS, |i| {
        let i = i % n;
        black_box(wire::decode_header(&frames[i]).expect("own frame"));
        decoded.clear();
        let r = wire::decode_response_body(&bodies[i], &mut decoded).expect("own frame");
        black_box((&r, &decoded));
    });
    out.set("wire.encode_req_ns_per_batch", encode_req);
    out.set("wire.decode_req_ns_per_batch", decode_req);
    out.set("wire.encode_resp_ns_per_batch", encode_resp);
    out.set("wire.decode_resp_ns_per_batch", decode_resp);
    out.set("wire.req_bytes_per_op", req_bytes as f64 / ops_total as f64);
    out.set(
        "wire.resp_bytes_per_op",
        resp_bytes as f64 / ops_total as f64,
    );
}

fn small_store() -> Arc<FasterKv> {
    FasterKv::new(
        FasterConfig::default(),
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    )
}

fn finder_over(meta: Arc<dyn MetadataStore>, mode: Finder) -> Box<dyn DprFinder> {
    match mode {
        Finder::Approximate => Box::new(ApproximateFinder::new(meta)),
        Finder::Exact => Box::new(ExactFinder::new(meta)),
    }
}

/// The batch gate's two hooks, and what draining commits to the finder
/// costs per sealed version.
fn gate_probe(stream: &[Vec<ClusterOp>], sh: &Shape, out: &mut Outcome) -> DprResult<()> {
    let shard = ShardId(0);
    let store = FasterShard::new(shard, small_store());
    let server = DprServer::new(shard);
    let mut session = seasoned_session(sh.shards);
    let headers: Vec<BatchHeader> = stream
        .iter()
        .map(|b| session.begin_batch(shard, b.len() as u32))
        .collect::<DprResult<_>>()?;
    // Versions the headers ask for must exist, or `validate` delays.
    store.request_commit(Some(Version(2)));
    store
        .kv()
        .wait_for_durable(Version(1), Duration::from_secs(5));
    let version = store.current_version();
    out.set(
        "gate.validate_ns_per_batch",
        ns_per(headers.len() * ROUNDS, |i| {
            black_box(server.validate(&headers[i % headers.len()], &store));
        }),
    );
    out.set(
        "gate.record_ns_per_batch",
        ns_per(headers.len() * ROUNDS, |i| {
            server.record_batch(&headers[i % headers.len()], version);
        }),
    );
    out.set(
        "gate.reply_ns_per_batch",
        ns_per(headers.len() * ROUNDS, |i| {
            black_box(server.make_reply(&headers[i % headers.len()], version));
        }),
    );

    let meta = Arc::new(PartitionedSqlStore::new(8));
    for s in 0..sh.shards {
        meta.register_worker(ShardId(s))?;
    }
    let finder = finder_over(meta.clone(), sh.finder);
    let mut pump_us = Vec::new();
    let before = meta.statement_count();
    let mut versions = 0u64;
    for round in 0..32usize {
        store.execute_batch_into(SessionId(5), &stream[round], &mut Vec::new())?;
        server.record_batch(&headers[round], store.current_version());
        let sealing = store.current_version();
        store.request_commit(None);
        store.kv().wait_for_durable(sealing, Duration::from_secs(5));
        let t = Instant::now();
        let reported = server.pump_commits(&store, finder.as_ref())?;
        if !reported.is_empty() {
            pump_us.push(micros(t.elapsed()) / reported.len() as f64);
            versions += reported.len() as u64;
        }
    }
    if let Some(v) = median(&pump_us) {
        out.set("gate.pump_us_per_version", v);
    }
    out.set(
        "gate.statements_per_version",
        (meta.statement_count() - before) as f64 / versions.max(1) as f64,
    );
    Ok(())
}

/// `Worker::execute_local_into` on a one-shard cluster: gate, store and
/// the worker's own bookkeeping, without a network.
fn worker_probe(
    stream: &[Vec<ClusterOp>],
    keys: u64,
    sh: &Shape,
    out: &mut Outcome,
) -> DprResult<()> {
    let cluster = Cluster::start(ClusterConfig {
        shards: 1,
        validate_ownership: false,
        finder_mode: match sh.finder {
            Finder::Approximate => DprFinderMode::Approximate,
            Finder::Exact => DprFinderMode::Exact,
        },
        checkpoint_interval: Some(Duration::from_millis(50)),
        ..ClusterConfig::default()
    })?;
    let worker = cluster.workers()[0].clone();
    let mut session = DprClientSession::new(SessionId(78));
    let mut header = session.begin_batch(worker.shard(), 0)?;
    let mut results = Vec::new();
    let mut run = |ops: &[ClusterOp], session: &mut DprClientSession| -> DprResult<()> {
        session.begin_batch_into(worker.shard(), ops.len() as u32, &mut header)?;
        results.clear();
        let reply = worker.execute_local_into(&header, ops, &mut results)?;
        session.process_reply(&reply)
    };
    let preload: Vec<ClusterOp> = (0..keys)
        .map(|k| {
            ClusterOp::Upsert(
                Key::from_u64(k),
                Value::from_u64(encode_value(PRELOAD_TAG, k)),
            )
        })
        .collect();
    for chunk in preload.chunks(1024) {
        run(chunk, &mut session)?;
    }
    let ops_total: usize = stream.iter().map(Vec::len).sum();
    const WORKER_ROUNDS: usize = 4;
    let t = Instant::now();
    for _ in 0..WORKER_ROUNDS {
        for b in stream {
            run(b, &mut session)?;
        }
    }
    out.set(
        "worker.execute_ns_per_op",
        t.elapsed().as_nanos() as f64 / (ops_total * WORKER_ROUNDS) as f64,
    );
    cluster.shutdown();
    Ok(())
}

/// Counts what the store does to its log device.
struct CountingDevice {
    inner: MemLogDevice,
    appended_bytes: AtomicU64,
    flushes: AtomicU64,
    reads: AtomicU64,
}

impl LogDevice for CountingDevice {
    fn append(&self, data: &[u8]) -> DprResult<u64> {
        self.appended_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(data)
    }
    fn read(&self, addr: u64, buf: &mut [u8]) -> DprResult<usize> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(addr, buf)
    }
    fn flush(&self) -> DprResult<u64> {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
    fn tail(&self) -> u64 {
        self.inner.tail()
    }
    fn durable_frontier(&self) -> u64 {
        self.inner.durable_frontier()
    }
    fn truncate_before(&self, addr: u64) -> DprResult<()> {
        self.inner.truncate_before(addr)
    }
}

/// Counts the bytes of checkpoint manifests and snapshots.
struct CountingBlobs {
    inner: MemBlobStore,
    put_bytes: AtomicU64,
}

impl BlobStore for CountingBlobs {
    fn put(&self, name: &str, data: &[u8]) -> DprResult<()> {
        self.put_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.put(name, data)
    }
    fn get(&self, name: &str) -> DprResult<Option<Bytes>> {
        self.inner.get(name)
    }
    fn delete(&self, name: &str) -> DprResult<()> {
        self.inner.delete(name)
    }
    fn list(&self, prefix: &str) -> DprResult<Vec<String>> {
        self.inner.list(prefix)
    }
}

/// `dpr-faster` and `dpr-storage` through `FasterKv`/`Session` directly.
#[allow(clippy::too_many_lines)]
fn store_probe(seed: u64, keys: u64, sh: &Shape, out: &mut Outcome) -> DprResult<()> {
    let device = Arc::new(CountingDevice {
        inner: MemLogDevice::null(),
        appended_bytes: AtomicU64::new(0),
        flushes: AtomicU64::new(0),
        reads: AtomicU64::new(0),
    });
    let blobs = Arc::new(CountingBlobs {
        inner: MemBlobStore::new(),
        put_bytes: AtomicU64::new(0),
    });
    let config = FasterConfig {
        memory_budget_records: if sh.larger_than_memory {
            (keys / 4) as usize
        } else {
            FasterConfig::default().memory_budget_records
        },
        unflushed_limit_records: Some(1 << 18),
        ..FasterConfig::default()
    };
    let kv = FasterKv::new(config.clone(), device.clone(), blobs.clone());
    let key = |k: u64| Key::from_u64(k);
    let mut user_bytes = 0u64;
    {
        let s = kv.start_session(SessionId(1));
        for k in 0..keys {
            s.upsert(key(k), Value::from_u64(encode_value(PRELOAD_TAG, k)))?;
            user_bytes += 16;
        }
        s.complete_pending()?;
    }

    // The workload's own key choice: how much of it finds its key resident.
    let mut gen = OpGen::new(seed, keys, sh.dist, sh.mix);
    let picks: Vec<u64> = (0..PROBE_BATCHES * 8).map(|_| gen.next_op().1).collect();
    // Keys written last are in memory whatever the budget.
    let hot: Vec<u64> = (0..(PROBE_BATCHES * ROUNDS) as u64)
        .map(|i| keys - 1 - (i * 7919) % (keys / 8).max(1))
        .collect();
    let session = kv.start_session(SessionId(2));
    let mut resident = 0usize;
    for &k in &picks {
        if !matches!(session.read(&key(k))?, OpOutcome::Pending(_)) {
            resident += 1;
        }
    }
    session.complete_pending()?;
    out.set("store.resident_ratio", resident as f64 / picks.len() as f64);
    let allocs_before_hot = crate::alloc_count();
    out.set(
        "store.read_ns_per_op",
        ns_per(hot.len(), |i| {
            black_box(session.read(&key(hot[i])).is_ok());
        }),
    );
    out.set(
        "store.upsert_ns_per_op",
        ns_per(hot.len(), |i| {
            black_box(
                session
                    .upsert(key(hot[i]), Value::from_u64(encode_value(1, i as u64)))
                    .is_ok(),
            );
        }),
    );
    out.set(
        "store.rmw_ns_per_op",
        ns_per(hot.len(), |i| {
            black_box(
                session
                    .rmw(key(hot[i]), |old| {
                        Value::from_u64(old.and_then(Value::as_u64).unwrap_or(0) + 1)
                    })
                    .is_ok(),
            );
        }),
    );
    user_bytes += 2 * 16 * hot.len() as u64;
    session.complete_pending()?;
    out.set(
        "store.allocs_per_op",
        (crate::alloc_count() - allocs_before_hot) as f64 / (3 * hot.len()) as f64,
    );
    drop(session);

    // Checkpoints: a slice of writes, then commit and wait for durability.
    let mut checkpoint_ms = Vec::new();
    let flushes_before = device.flushes.load(Ordering::Relaxed);
    let bytes_before = device.appended_bytes.load(Ordering::Relaxed);
    const CHECKPOINTS: u64 = 9;
    for round in 0..CHECKPOINTS {
        let s = kv.start_session(SessionId(10 + round));
        for i in 0..2048u64 {
            s.upsert(
                key((round * 2048 + i) % keys),
                Value::from_u64(encode_value(2, i)),
            )?;
            user_bytes += 16;
        }
        drop(s);
        let sealing = kv.current_version();
        let t = Instant::now();
        kv.request_checkpoint(None);
        if !kv.wait_for_durable(sealing, Duration::from_secs(10)) {
            return Err(dpr_core::DprError::Timeout);
        }
        checkpoint_ms.push(micros(t.elapsed()) / 1000.0);
    }
    out.set(
        "store.checkpoint_ms_p50",
        median(&checkpoint_ms).unwrap_or(0.0),
    );
    let flushes = (device.flushes.load(Ordering::Relaxed) - flushes_before).max(1);
    out.set(
        "storage.flushes_per_checkpoint",
        flushes as f64 / CHECKPOINTS as f64,
    );
    out.set(
        "storage.bytes_per_flush",
        (device.appended_bytes.load(Ordering::Relaxed) - bytes_before) as f64 / flushes as f64,
    );

    // Cold lookups: everything flushed is evicted, then read again.
    kv.force_evict();
    let reads_before = device.reads.load(Ordering::Relaxed);
    let session = kv.start_session(SessionId(3));
    let cold: Vec<u64> = (0..PROBE_BATCHES as u64)
        .map(|i| (i * 7919) % (keys / 2))
        .collect();
    let mut went_pending = 0u64;
    let t = Instant::now();
    for chunk in cold.chunks(64) {
        for &k in chunk {
            if matches!(session.read(&key(k))?, OpOutcome::Pending(_)) {
                went_pending += 1;
            }
        }
        black_box(session.complete_pending()?);
    }
    out.set(
        "store.pending_ns_per_op",
        t.elapsed().as_nanos() as f64 / cold.len() as f64,
    );
    out.set(
        "storage.reads_per_cold_lookup",
        (device.reads.load(Ordering::Relaxed) - reads_before) as f64 / went_pending.max(1) as f64,
    );
    drop(session);

    // Rollback of live state, then recovery of a fresh store from the
    // same device and manifests.
    let safe = kv.durable_version();
    {
        let s = kv.start_session(SessionId(4));
        for i in 0..2048u64 {
            s.upsert(key(i % keys), Value::from_u64(encode_value(3, i)))?;
            user_bytes += 16;
        }
    }
    let t = Instant::now();
    kv.restore_sync(safe, Duration::from_secs(10))?;
    out.set("store.restore_ms", t.elapsed().as_secs_f64() * 1000.0);
    out.set(
        "storage.bytes_written_per_user_byte",
        (device.appended_bytes.load(Ordering::Relaxed) + blobs.put_bytes.load(Ordering::Relaxed))
            as f64
            / user_bytes as f64,
    );
    kv.shutdown();
    let t = Instant::now();
    let recovered = FasterKv::recover(config, device, blobs, None)?;
    out.set("store.recover_ms", t.elapsed().as_secs_f64() * 1000.0);
    recovered.shutdown();
    Ok(())
}

/// A report stream shaped like the workload's (its shard count, and one
/// dependency on every other shard per report where batches cross
/// shards), replayed into the workload's finder over a partitioned
/// metadata store.
fn finder_probe(sh: &Shape, out: &mut Outcome) -> DprResult<()> {
    const VERSIONS: u64 = 200;
    let meta = Arc::new(PartitionedSqlStore::new(8));
    for s in 0..sh.shards {
        meta.register_worker(ShardId(s))?;
    }
    let finder = finder_over(meta.clone(), sh.finder);
    let mut refresh = Samples::default();
    let mut pending_max = 0.0f64;
    let before = meta.statement_count();
    for v in 1..=VERSIONS {
        for s in 0..sh.shards {
            let deps = (0..sh.shards)
                .filter(|&d| d != s)
                .map(|d| Token::new(ShardId(d), Version(v)))
                .collect();
            finder.report_commits(vec![(Token::new(ShardId(s), Version(v)), deps)])?;
        }
        let t = Instant::now();
        finder.refresh()?;
        refresh.push(t.elapsed());
        let mut gauges = std::collections::BTreeMap::new();
        crate::serve::parse_telemetry(
            dpr_telemetry::global()
                .render_prometheus()
                .lines()
                .filter(|l| l.starts_with("dpr_finder_delta_pending_tokens")),
            &mut gauges,
        );
        pending_max = pending_max.max(gauges.values().copied().fold(0.0, f64::max));
    }
    out.set("finder.refresh_us_p50", p50_of(refresh));
    out.set("finder.pending_tokens_max", pending_max);
    out.set(
        "metadata.statements_per_version",
        (meta.statement_count() - before) as f64 / (VERSIONS * u64::from(sh.shards)) as f64,
    );
    let touched = meta.partition_statement_counts();
    let mean = touched.iter().sum::<u64>() as f64 / touched.len().max(1) as f64;
    out.set(
        "metadata.partition_imbalance",
        touched.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );

    // One statement, with the delay the workload injects per statement.
    let slow = PartitionedSqlStore::with_latency(8, Duration::from_micros(sh.metadata_us));
    slow.register_worker(ShardId(0))?;
    let mut stmt = Samples::default();
    for v in 1..=100u64 {
        let t = Instant::now();
        slow.update_persisted_versions(&[(ShardId(0), Version(v))])?;
        stmt.push(t.elapsed());
    }
    out.set("metadata.stmt_us_p50", p50_of(stmt));
    Ok(())
}

/// What generating and bookkeeping one op costs the generator itself.
fn loadgen_probe(seed: u64, keys: u64, sh: &Shape, out: &mut Outcome) {
    let mut gen = OpGen::new(seed, keys, sh.dist, sh.mix);
    let mut last_write = vec![0u64; keys as usize];
    let n = PROBE_BATCHES * sh.batch;
    let mut ops = Vec::with_capacity(sh.batch);
    let per_op = ns_per(n, |i| {
        let (kind, idx) = gen.next_op();
        let key = Key::from_u64(idx);
        ops.push(match kind {
            Kind::Read => ClusterOp::Read(key),
            Kind::Upsert => {
                last_write[idx as usize] = i as u64 + 1;
                ClusterOp::Upsert(key, Value::from_u64(encode_value(1, i as u64)))
            }
            Kind::Incr => ClusterOp::Incr(key),
        });
        if ops.len() == sh.batch {
            black_box(&ops);
            ops.clear();
        }
    });
    out.set("loadgen.cpu_ns_per_op", per_op);
}

/// Run every probe on the workload's op stream.
pub fn run(workload: &str, opts: &RunOpts, tcp: Option<&TcpSpec>, out: &mut Outcome) {
    let sh = shape(workload, tcp);
    let keys = match tcp {
        Some(s) => s.keys_per_shard,
        None if workload == "colo_store" => spec::colo_sizes(opts.scale).0.min(STORE_KEYS),
        None => spec::crash_keys(opts.scale),
    };
    let t = Instant::now();
    let stream = batches(opts.seed, keys, &sh);
    wire_probe(&stream, &sh, out);
    loadgen_probe(opts.seed, keys, &sh, out);
    let probes: [(&str, DprResult<()>); 4] = [
        ("gate", gate_probe(&stream, &sh, out)),
        ("worker", worker_probe(&stream, keys, &sh, out)),
        (
            "store",
            store_probe(opts.seed, keys.min(STORE_KEYS), &sh, out),
        ),
        ("finder", finder_probe(&sh, out)),
    ];
    for (name, result) in probes {
        if let Err(e) = result {
            out.error(format!("{name} probe: {e}"));
        }
    }
    out.note(format!(
        "layer probes: {PROBE_BATCHES} batches of {}, {keys} keys, took {:.3} s",
        sh.batch,
        t.elapsed().as_secs_f64()
    ));
}

/// What is left of the server's CPU per op once the store, the gate and
/// the codec (all three from the probes) are paid: sockets, readiness
/// loops, queues.
pub fn residual(t: &TcpTrace, out: &mut Outcome) {
    let (Some(&execute), Some(&decode), Some(&encode)) = (
        out.metrics.get("worker.execute_ns_per_op"),
        out.metrics.get("wire.decode_req_ns_per_batch"),
        out.metrics.get("wire.encode_resp_ns_per_batch"),
    ) else {
        return;
    };
    let codec = (decode + encode) / BATCH as f64;
    let residual = t.server_cpu_ns_per_op - execute - codec;
    out.set("net.residual_ns_per_op", residual);
    out.note(format!(
        "server CPU {:.1} ns/op = execute {execute:.1} + codec {codec:.1} + residual \
         {residual:.1}",
        t.server_cpu_ns_per_op
    ));
}
