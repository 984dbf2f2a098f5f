//! Criterion benchmarks for the single-node FASTER-style store and the DPR
//! finder algorithms.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dpr_core::{Key, SessionId, ShardId, Token, Value, Version};
use dpr_faster::{FasterConfig, FasterKv};
use dpr_metadata::{MetadataStore, PartitionedSqlStore};
use dpr_storage::{MemBlobStore, MemLogDevice};
use libdpr::{ApproximateFinder, DprFinder, ExactFinder, HybridFinder};
use std::sync::Arc;
use std::time::Duration;

fn store() -> Arc<FasterKv> {
    FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 24,
            auto_maintenance: true,
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    )
}

fn bench_faster_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("faster");
    g.throughput(Throughput::Elements(1));
    let kv = store();
    let session = kv.start_session(SessionId(1));
    for i in 0..100_000u64 {
        session
            .upsert(Key::from_u64(i), Value::from_u64(i))
            .unwrap();
    }
    let mut i = 0u64;
    g.bench_function("upsert", |b| {
        b.iter(|| {
            session
                .upsert(Key::from_u64(i % 100_000), Value::from_u64(i))
                .unwrap();
            i += 1;
        })
    });
    g.bench_function("read", |b| {
        b.iter(|| {
            black_box(session.read(&Key::from_u64(i % 100_000)).unwrap());
            i += 1;
        })
    });
    g.bench_function("rmw", |b| {
        b.iter(|| {
            session
                .rmw(Key::from_u64(i % 100_000), |old| {
                    Value::from_u64(old.and_then(|v| v.as_u64()).unwrap_or(0) + 1)
                })
                .unwrap();
            i += 1;
        })
    });
    g.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("faster-checkpoint");
    g.sample_size(10);
    let kv = store();
    let session = kv.start_session(SessionId(1));
    g.bench_function("fold-over-1k-dirty", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                session
                    .upsert(Key::from_u64(i), Value::from_u64(i))
                    .unwrap();
            }
            let target = kv.durable_version().next();
            kv.request_checkpoint(None);
            assert!(kv.wait_for_durable(target, Duration::from_secs(10)));
        })
    });
    g.finish();
}

fn finder_setup(meta: &Arc<PartitionedSqlStore>, shards: u32) {
    for s in 0..shards {
        meta.register_worker(ShardId(s)).unwrap();
    }
}

fn bench_finders(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpr-finder");
    let shards = 8;
    type FinderMaker = Box<dyn Fn(Arc<PartitionedSqlStore>) -> Box<dyn DprFinder>>;
    let makers: Vec<(&str, FinderMaker)> = vec![
        (
            "exact",
            Box::new(|m| Box::new(ExactFinder::new(m)) as Box<dyn DprFinder>),
        ),
        (
            "approximate",
            Box::new(|m| Box::new(ApproximateFinder::new(m)) as Box<dyn DprFinder>),
        ),
        (
            "hybrid",
            Box::new(|m| Box::new(HybridFinder::new(m)) as Box<dyn DprFinder>),
        ),
    ];
    for (name, make) in makers {
        let meta = Arc::new(PartitionedSqlStore::new(8));
        finder_setup(&meta, shards);
        let finder = make(meta);
        let mut v = 1u64;
        g.bench_function(&format!("{name}-report+refresh"), |b| {
            b.iter(|| {
                for s in 0..shards {
                    finder
                        .report_commit(
                            Token::new(ShardId(s), Version(v)),
                            vec![Token::new(
                                ShardId((s + 1) % shards),
                                Version(v.saturating_sub(1)),
                            )],
                        )
                        .unwrap();
                }
                finder.refresh().unwrap();
                black_box(finder.current_cut().unwrap());
                v += 1;
            })
        });
    }
    g.finish();
}

criterion_group!(
    name = store_benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = bench_faster_ops, bench_checkpoint, bench_finders
);
criterion_main!(store_benches);
