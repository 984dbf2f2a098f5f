//! `colo_store`: the co-located mode of §5.2/§7.3. An in-process cluster,
//! one session per shard opened on that shard's worker, every key local,
//! so a batch executes on the calling thread and never touches a wire.
//! The keyspace is four times the resident budget, so both the in-memory
//! hot path and the evicted (PENDING) path of `dpr-faster` run.

use crate::gen::{encode_value, preload_value, value_tag, Dist, Kind, OpGen, PRELOAD_TAG};
use crate::outcome::{push_error, Outcome, RunOpts};
use crate::segment::{session_check, sleep_until, Answered, CommitTracker, Rss, Seg, Timeline};
use crate::spec::{
    colo_sizes, BULK_BATCH, COLO_BATCH, COLO_MIX, COLO_SHARDS, CUT_EVERY, DRAIN, LAG_BOUND,
};
use crate::sys;
use crate::trace::{BatchStamp, Clock, LiveTrace, Span, Tracer};
use dpr_cluster::{Cluster, ClusterConfig, ClusterOp, OpResult, SessionHandle};
use dpr_core::{Key, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One key in this many is read back after the run.
const READ_BACK_STRIDE: usize = 16;

fn config(resident: usize) -> ClusterConfig {
    ClusterConfig {
        shards: COLO_SHARDS,
        memory_budget_records: resident,
        checkpoint_interval: Some(Duration::from_millis(50)),
        finder_interval: Duration::from_millis(5),
        ..ClusterConfig::default()
    }
}

/// Key ids owned by each shard, `keys` per shard, from a throwaway
/// cluster: the pools are the generator's work, not part of a set-up.
fn key_pools(keys: u64) -> Result<Vec<Vec<u64>>, String> {
    let cluster = Cluster::start(config(1024)).map_err(|e| format!("start cluster: {e}"))?;
    let pools = crate::gen::key_pools(&cluster, COLO_SHARDS, keys as usize);
    cluster.shutdown();
    pools
}

/// Run `ops` through the co-located session and return the results in op
/// order. All keys are local, so the batch completes inside `issue`.
fn execute(session: &mut SessionHandle, ops: Vec<ClusterOp>) -> Result<Vec<OpResult>, String> {
    let n = ops.len();
    session.issue(ops).map_err(|e| format!("issue: {e}"))?;
    let results = session.take_results();
    if results.len() != n {
        return Err(format!(
            "co-located batch of {n} returned {} results",
            results.len()
        ));
    }
    Ok(results.into_iter().map(|(_, r)| r).collect())
}

/// One set-up: start the cluster and preload every shard from its own
/// co-located session, shards in parallel.
fn set_up(
    resident: usize,
    pools: &[Vec<u64>],
) -> Result<(Cluster, Vec<SessionHandle>, f64), String> {
    let t = Instant::now();
    let cluster = Cluster::start(config(resident)).map_err(|e| format!("start cluster: {e}"))?;
    let mut sessions = Vec::new();
    for shard in 0..COLO_SHARDS {
        sessions.push(
            cluster
                .open_session_colocated(shard)
                .map_err(|e| format!("open session: {e}"))?,
        );
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(pools)
            .enumerate()
            .map(|(shard, (session, pool))| {
                scope.spawn(move || -> Result<(), String> {
                    for (chunk_i, chunk) in pool.chunks(BULK_BATCH).enumerate() {
                        let ops = chunk
                            .iter()
                            .enumerate()
                            .map(|(i, &id)| {
                                let idx = chunk_i * BULK_BATCH + i;
                                ClusterOp::Upsert(
                                    Key::from_u64(id),
                                    Value::from_u64(preload_value(shard, idx)),
                                )
                            })
                            .collect();
                        execute(session, ops)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err("preload thread panicked".into()))
        })
    })?;
    Ok((cluster, sessions, t.elapsed().as_secs_f64()))
}

/// What one generator thread hands back.
struct ThreadResult {
    segs: [Seg; 3],
    errors: Vec<String>,
    stamps: Vec<BatchStamp>,
    spans: Vec<Span>,
    read_back: u64,
    read_back_wrong: u64,
}

#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn drive(
    shard: usize,
    session: &mut SessionHandle,
    cluster: &Cluster,
    pool: &[u64],
    mut gen: OpGen,
    tl: Timeline,
    tracing: &AtomicBool,
    clock: Clock,
) -> ThreadResult {
    let tag = shard as u64 + 1;
    let mut res = ThreadResult {
        segs: Default::default(),
        errors: Vec::new(),
        stamps: Vec::new(),
        spans: Vec::new(),
        read_back: 0,
        read_back_wrong: 0,
    };
    // Per key: serial + 1 of the last upsert (0 = preload value stands) and
    // the increments applied since. Keys are local to this session, so it
    // is their only writer and the final value is known exactly.
    let mut last_write = vec![0u64; pool.len()];
    let mut incrs = vec![0u32; pool.len()];
    let mut next_serial = session.stats().completed;
    let mut commits = CommitTracker::new(COLO_BATCH);
    let who = format!("session {tag}");
    let mut tracer = Tracer::new(clock, tag);
    let store = cluster.workers()[shard].store().clone();
    let mut last_cut = Instant::now();
    let mut batches = 0u64;
    // Scratch for checking a batch's reads: the key indices it touches,
    // and `(position, key index, value)` expected of each read.
    let mut touched: Vec<usize> = Vec::with_capacity(COLO_BATCH);
    let mut expected: Vec<(usize, usize, u64)> = Vec::with_capacity(COLO_BATCH);
    let mut batch_incrs: Vec<usize> = Vec::with_capacity(COLO_BATCH);
    // Per key: increments issued before the last upsert in the same batch.
    // The value may be up to this much above the sequential one.
    let mut late_incrs = vec![0u16; pool.len()];
    let value_now = |last_write: &[u64], incrs: &[u32], idx: usize| {
        let base = match last_write[idx] {
            0 => preload_value(shard, idx),
            s => encode_value(tag, s - 1),
        };
        base + u64::from(incrs[idx])
    };
    let fail = push_error;

    sleep_until(tl.start);
    loop {
        let now = Instant::now();
        let ended = now >= tl.end;
        if ended && (commits.is_empty() || now >= tl.end + DRAIN) {
            break;
        }
        if ended {
            // Drain: only wait for the cut to catch up.
            std::thread::sleep(Duration::from_millis(1));
        } else {
            touched.clear();
            expected.clear();
            batch_incrs.clear();
            let ops: Vec<ClusterOp> = (0..COLO_BATCH as u64)
                .map(|i| {
                    let (kind, idx) = gen.next_op();
                    let idx = idx as usize;
                    let key = Key::from_u64(pool[idx]);
                    touched.push(idx);
                    match kind {
                        Kind::Read => {
                            expected.push((i as usize, idx, value_now(&last_write, &incrs, idx)));
                            ClusterOp::Read(key)
                        }
                        Kind::Upsert => {
                            let serial = next_serial + i;
                            last_write[idx] = serial + 1;
                            incrs[idx] = 0;
                            // Increments of an evicted key go PENDING and
                            // may land after this upsert (relaxed CPR).
                            late_incrs[idx] =
                                batch_incrs.iter().filter(|&&k| k == idx).count() as u16;
                            ClusterOp::Upsert(key, Value::from_u64(encode_value(tag, serial)))
                        }
                        Kind::Incr => {
                            incrs[idx] += 1;
                            batch_incrs.push(idx);
                            ClusterOp::Incr(key)
                        }
                    }
                })
                .collect();
            let seg_i = tl.segment(now);
            let seg = &mut res.segs[seg_i];
            seg.scheduled += COLO_BATCH as u64;
            let issued = Instant::now();
            match execute(session, ops) {
                Ok(results) => {
                    let done = Instant::now();
                    // This session is the only writer of its keys and a
                    // batch runs in order, so each read's value is known.
                    // A key touched twice in one batch is exempt: an
                    // evicted key's read goes PENDING and may resolve after
                    // the later op (relaxed CPR, §5.4).
                    touched.sort_unstable();
                    for &(pos, idx, want) in &expected {
                        let lo = touched.partition_point(|&t| t < idx);
                        let once = touched.get(lo + 1) != Some(&idx);
                        let seen = match &results[pos] {
                            OpResult::Value(Some(v)) => v.as_u64(),
                            _ => None,
                        };
                        let ok = if once {
                            seen.is_some_and(|v| {
                                (want..=want + u64::from(late_incrs[idx])).contains(&v)
                            })
                        } else {
                            // Its own writes or the preload; nobody else
                            // writes this shard's keys.
                            seen.is_some_and(|v| [PRELOAD_TAG, tag].contains(&value_tag(v)))
                        };
                        if !ok {
                            fail(
                                &mut res.errors,
                                format!("read of key {} saw {seen:x?}, want {want:x}", pool[idx]),
                            );
                        }
                    }
                    seg.completed += COLO_BATCH as u64;
                    seg.op_lat.push(done.duration_since(issued));
                    next_serial += COLO_BATCH as u64;
                    let traced = seg_i == 2 && tracing.load(Ordering::Relaxed);
                    let mut span = 0;
                    let mut version = 0;
                    if traced && batches.is_multiple_of(64) {
                        // The batch ran on this thread a moment ago, so the
                        // store's current version is the one it ran in.
                        version = store.current_version().0;
                        span = tracer.span("batch", issued, done, 0, batches + 1);
                    }
                    commits.push(Answered {
                        end_serial: next_serial,
                        at: done,
                        seg: seg_i,
                        shard: shard as u32,
                        version,
                        span,
                    });
                }
                Err(e) => {
                    seg.failed += COLO_BATCH as u64;
                    fail(&mut res.errors, e);
                    // The session's serial counter moved even so.
                    next_serial += COLO_BATCH as u64;
                }
            }
            batches += 1;
        }
        let now = Instant::now();
        if now.duration_since(last_cut) >= CUT_EVERY || ended {
            last_cut = now;
            session.refresh_commit(&cluster.current_cut());
            let stats = session.stats();
            let prefix = stats.committed + stats.aborted;
            let stamps = &mut res.stamps;
            let moved = commits.advance(prefix, now, &mut res.segs, |u| {
                stamps.push(BatchStamp::new(clock, u, now));
                tracer.span("commit", u.at, now, u.span, 0);
            });
            if let Err(e) = moved {
                fail(&mut res.errors, e);
            }
        }
    }
    let stats = session.stats();
    for check in [
        commits.leftover(&who, 0),
        session_check(&who, stats.committed, stats.completed, next_serial),
    ] {
        if let Err(e) = check {
            fail(&mut res.errors, e);
        }
    }

    // Read back one key in `READ_BACK_STRIDE` (a cold read costs about
    // 10 us, so all two million would outlast the window): the last upsert
    // or the preload, plus the increments since. Every read in the window
    // was already checked against its exact value above.
    let sample: Vec<usize> = (0..pool.len()).step_by(READ_BACK_STRIDE).collect();
    res.read_back = sample.len() as u64;
    for chunk in sample.chunks(BULK_BATCH) {
        let ops = chunk
            .iter()
            .map(|&idx| ClusterOp::Read(Key::from_u64(pool[idx])))
            .collect();
        match execute(session, ops) {
            Ok(results) => {
                for (&idx, r) in chunk.iter().zip(&results) {
                    let want = value_now(&last_write, &incrs, idx);
                    let seen = match r {
                        OpResult::Value(Some(v)) => v.as_u64(),
                        _ => None,
                    };
                    let ok = seen
                        .is_some_and(|v| (want..=want + u64::from(late_incrs[idx])).contains(&v));
                    if !ok {
                        res.read_back_wrong += 1;
                        if res.read_back_wrong <= 3 {
                            fail(
                                &mut res.errors,
                                format!(
                                    "read-back of key {}: saw {seen:x?}, want {want:x}",
                                    pool[idx]
                                ),
                            );
                        }
                    }
                }
            }
            Err(e) => {
                fail(&mut res.errors, format!("read-back: {e}"));
                break;
            }
        }
    }
    res.spans = tracer.into_spans();
    res
}

pub fn run(opts: &RunOpts, out: &mut Outcome) {
    if let Err(e) = run_inner(opts, out) {
        out.error(e);
    }
}

fn run_inner(opts: &RunOpts, out: &mut Outcome) -> Result<(), String> {
    let (keys, resident) = colo_sizes(opts.scale);
    out.note(format!(
        "colo_store: in-process cluster, {COLO_SHARDS} shards, co-located sessions, closed loop, \
         {COLO_SHARDS} threads, batches of {COLO_BATCH}, {keys} keys/shard of which {resident} \
         resident, Zipfian 0.99; injected: nothing (Null storage)"
    ));
    let t_pools = Instant::now();
    let pools = key_pools(keys)?;
    out.note(format!(
        "key pools built in {:.3} s",
        t_pools.elapsed().as_secs_f64()
    ));
    let (cluster, mut sessions, setup_s) = set_up(resident, &pools)?;
    let rss_after_setup = sys::peak_rss_mb(std::process::id());
    let setup_done = Instant::now();

    let clock = Clock::start();
    let proto = OpGen::new(opts.seed, keys, Dist::Zipf(0.99), COLO_MIX);
    let tl = Timeline::plan(opts);
    let tracing = AtomicBool::new(false);
    let me = std::process::id();
    let mut traced = None;

    let (results, cpu) = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(&pools)
            .enumerate()
            .map(|(shard, (session, pool))| {
                let gen = proto.reseeded(opts.seed.wrapping_mul(1_000_003) + shard as u64 + 1);
                let (cluster, tracing) = (&cluster, &tracing);
                scope.spawn(move || drive(shard, session, cluster, pool, gen, tl, tracing, clock))
            })
            .collect();
        sleep_until(tl.a);
        let at_a = (sys::cpu_us(me), crate::alloc_count());
        sleep_until(tl.b);
        let at_b = (sys::cpu_us(me), crate::alloc_count());
        if opts.trace {
            // Tracing on for the second half.
            let live = LiveTrace::start(clock, cluster.metadata().clone(), LAG_BOUND);
            tracing.store(true, Ordering::Relaxed);
            sleep_until(tl.end);
            traced = Some(live.finish());
        }
        let results: Vec<ThreadResult> =
            handles.into_iter().filter_map(|h| h.join().ok()).collect();
        (results, [at_a, at_b])
    });
    if results.len() != COLO_SHARDS {
        return Err("a generator thread panicked".into());
    }
    let rss = Rss {
        after_setup: rss_after_setup,
        at_end: sys::peak_rss_mb(me),
        closed_loop: true,
    };

    let mut results = results;
    let (seg_a, seg_b) =
        crate::segment::merge(results.iter_mut().map(|r| std::mem::take(&mut r.segs)));
    for e in results.iter_mut().flat_map(|r| r.errors.drain(..)) {
        out.error(e);
    }
    let wrong: u64 = results.iter().map(|r| r.read_back_wrong).sum();
    if wrong > 0 {
        out.error(format!("read-back: {wrong} keys wrong in all"));
    }
    out.note(format!(
        "read-back checked {} of {} keys, {wrong} wrong; every read in the window was checked too",
        results.iter().map(|r| r.read_back).sum::<u64>(),
        keys * COLO_SHARDS as u64
    ));
    let allocs_per_op_a = (cpu[1].1 - cpu[0].1) as f64 / seg_a.completed.max(1) as f64;
    crate::segment::report(out, &tl, seg_a, seg_b, cpu[1].0 - cpu[0].0, rss);
    out.note(format!(
        "untraced half: {allocs_per_op_a:.3} allocations per op, generator included"
    ));
    out.setup(setup_s, tl.a.duration_since(setup_done).as_secs_f64());
    if !opts.trace {
        cluster.shutdown();
        return Ok(());
    }

    let (audit, checker) = traced.ok_or("tracing never started")?;
    let dump = crate::serve::ServerDump::local(audit, &checker);
    dump.report(false, tl.secs_b(), out);
    let stamps: Vec<BatchStamp> = results
        .iter()
        .flat_map(|r| r.stamps.iter().copied())
        .collect();
    crate::trace::report_commit_stages(&stamps, &dump.audit, false, out);
    let spans: Vec<Span> = results.iter_mut().flat_map(|r| r.spans.drain(..)).collect();
    crate::trace::save_spans("colo_store", spans, out);
    cluster.shutdown();
    Ok(())
}
