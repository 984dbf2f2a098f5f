//! Criterion microbenchmarks for the core data structures: hash index,
//! record log, record serialization, epoch protection, Zipfian generation,
//! latency histogram.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dpr_core::{Key, LightEpoch, Value, Version};
use dpr_faster::{index::HashIndex, GetOutcome, RecordLog, NONE_ADDRESS};
use dpr_storage::MemLogDevice;
use dpr_ycsb::{LatencyHistogram, Zipfian};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn bench_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash-index");
    g.throughput(Throughput::Elements(1));
    let epoch = Arc::new(LightEpoch::new(8));
    let idx = HashIndex::new(Arc::clone(&epoch), 1 << 16);
    let guard = epoch.protect();
    for i in 0..10_000u64 {
        let k = Key::from_u64(i);
        let head = idx.head(&guard, &k);
        let _ = idx.try_publish(&guard, &k, head, i);
    }
    let mut i = 0u64;
    g.bench_function("publish", |b| {
        b.iter(|| {
            let k = Key::from_u64(i % 10_000);
            let head = idx.head(&guard, &k);
            let _ = idx.try_publish(&guard, black_box(&k), head, i);
            i += 1;
        })
    });
    g.bench_function("lookup", |b| {
        b.iter(|| {
            let k = Key::from_u64(i % 10_000);
            black_box(idx.head(&guard, &k));
            i += 1;
        })
    });
    g.finish();
}

fn bench_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("record-log");
    g.throughput(Throughput::Elements(1));
    let log = RecordLog::new(Arc::new(MemLogDevice::null()), 1 << 24);
    let mut addrs = Vec::with_capacity(10_000);
    for i in 0..10_000u64 {
        addrs.push(log.append(
            &Key::from_u64(i),
            &Value::from_u64(i),
            Version(1),
            false,
            NONE_ADDRESS,
        ));
    }
    let mut i = 0u64;
    g.bench_function("append", |b| {
        b.iter(|| {
            black_box(log.append(
                &Key::from_u64(i),
                &Value::from_u64(i),
                Version(1),
                false,
                NONE_ADDRESS,
            ));
            i += 1;
        })
    });
    let guard = log.protect();
    g.bench_function("get-resident", |b| {
        b.iter(|| {
            let addr = addrs[(i % 10_000) as usize];
            black_box(log.get(&guard, addr).unwrap());
            i += 1;
        })
    });
    drop(guard);
    g.finish();
}

fn bench_record_serde(c: &mut Criterion) {
    // The arena serializes in place: "serialize" is reading a resident
    // view's value, "deserialize" is materializing a record from the
    // device's wire bytes.
    let mut g = c.benchmark_group("record-serde");
    let log = RecordLog::new(Arc::new(MemLogDevice::null()), 1 << 24);
    let addr = log.append(
        &Key::from_u64(7),
        &Value::from_u64(9),
        Version(3),
        false,
        NONE_ADDRESS,
    );
    let guard = log.protect();
    g.bench_function("view-read-value", |b| {
        b.iter(|| match log.get(&guard, addr).unwrap() {
            GetOutcome::Resident(view) => black_box(view.read_value()),
            _ => unreachable!("record is resident"),
        })
    });
    drop(guard);
    let until = log.seal_to_tail();
    log.flush_until(until).unwrap();
    g.bench_function("device-decode", |b| {
        b.iter(|| black_box(log.read_from_device(addr).unwrap()))
    });
    g.finish();
}

fn bench_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("epoch");
    let epoch = LightEpoch::new(64);
    g.bench_function("protect-drop", |b| {
        b.iter(|| {
            let guard = epoch.protect();
            black_box(&guard);
        })
    });
    let guard = epoch.protect();
    g.bench_function("refresh", |b| b.iter(|| guard.refresh()));
    drop(guard);
    g.finish();
}

fn bench_zipf(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipf");
    g.throughput(Throughput::Elements(1));
    let z = Zipfian::scrambled(1_000_000, 0.99);
    let mut rng = StdRng::seed_from_u64(1);
    g.bench_function("next", |b| b.iter(|| black_box(z.next(&mut rng))));
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("latency-histogram");
    g.throughput(Throughput::Elements(1));
    let mut h = LatencyHistogram::new();
    let mut i = 0u64;
    g.bench_function("record", |b| {
        b.iter(|| {
            h.record(Duration::from_nanos(i % 10_000_000));
            i += 1;
        })
    });
    g.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = bench_index, bench_log, bench_record_serde, bench_epoch, bench_zipf, bench_histogram
);
criterion_main!(micro);
