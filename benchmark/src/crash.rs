//! `crash`: what a failure costs (the paper's Fig. 16). Two open-loop
//! sessions against an in-process cluster over the simulated network;
//! faults are injected on a schedule, sessions recover and keep their
//! schedule, so operations due during an outage are sent late and their
//! latency says so. Runs on the simulator plane because `PipelinedClient`
//! has no recover path yet.

use crate::gen::{encode_value, preload_value, read_is_known, Dist, Kind, Mix, OpGen};
use crate::outcome::{push_error, Outcome, RunOpts};
use crate::segment::{session_check, sleep_until, Answered, CommitTracker, Rss, Seg, Timeline};
use crate::spec::{
    crash_fault_offsets, crash_keys, BATCH, BULK_BATCH, CONNS, CRASH_NET_LATENCY, CRASH_RATE_OPS_S,
    CRASH_SHARDS, CUT_EVERY, DRAIN, LAG_BOUND,
};
use crate::stats::median;
use crate::sys;
use crate::trace::{Clock, LiveTrace, Span, Tracer};
use dpr_cluster::{Cluster, ClusterConfig, ClusterOp, OpResult, SessionHandle};
use dpr_core::{DprError, Key, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const RECOVER_TIMEOUT: Duration = Duration::from_secs(15);

fn config() -> ClusterConfig {
    ClusterConfig {
        shards: CRASH_SHARDS,
        network_latency: CRASH_NET_LATENCY,
        checkpoint_interval: Some(Duration::from_millis(50)),
        finder_interval: Duration::from_millis(5),
        ..ClusterConfig::default()
    }
}

fn set_up(keys: u64) -> Result<(Cluster, Vec<Vec<u64>>, f64), String> {
    let t = Instant::now();
    let cluster = Cluster::start(config()).map_err(|e| format!("start cluster: {e}"))?;
    let per_shard = (keys as usize / CRASH_SHARDS).max(8);
    let pools = crate::gen::key_pools(&cluster, CRASH_SHARDS, per_shard)?;
    let mut session = cluster
        .open_session()
        .map_err(|e| format!("open session: {e}"))?;
    for (shard, pool) in pools.iter().enumerate() {
        for (chunk_i, chunk) in pool.chunks(BULK_BATCH).enumerate() {
            let ops = chunk
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    ClusterOp::Upsert(
                        Key::from_u64(id),
                        Value::from_u64(preload_value(shard, chunk_i * BULK_BATCH + i)),
                    )
                })
                .collect();
            session.execute(ops).map_err(|e| format!("preload: {e}"))?;
        }
    }
    Ok((cluster, pools, t.elapsed().as_secs_f64()))
}

struct Inflight {
    due: Instant,
    seg: usize,
    remaining: usize,
}

/// What a session saw of one fault, indexed by the world-line it moved to.
#[derive(Clone, Copy, Default)]
struct FaultSeen {
    recover_ms: f64,
    recovered_at: Option<Instant>,
    /// First batch answered on the new world-line.
    first_ok: Option<Instant>,
    /// First time the committed prefix passed an op issued after recovery.
    recommit: Option<Instant>,
    serial_at_recover: u64,
}

struct SessionResult {
    segs: [Seg; 3],
    errors: Vec<String>,
    faults: Vec<FaultSeen>,
    /// `(serial, shard, index in the shard's pool)` of every upsert issued.
    writes: Vec<(u64, u32, u32)>,
    /// Serial ranges discarded by recoveries.
    rolled_back: Vec<(u64, u64)>,
    /// Per batch (serial / BATCH): when it was issued and when it was
    /// answered (`u64::MAX`: never), in trace-clock microseconds.
    batch_times: Vec<(u64, u64)>,
    lost_ops: u64,
    backlog_max: usize,
    spans: Vec<Span>,
}

struct Driver<'a> {
    tag: u64,
    session: SessionHandle,
    pools: &'a [Vec<u64>],
    gen: OpGen,
    tl: Timeline,
    next_serial: u64,
    batches: u64,
    inflight: HashMap<u64, Inflight>,
    commits: CommitTracker,
    tracer: Tracer,
    tracing: &'a AtomicBool,
    res: SessionResult,
}

impl Driver<'_> {
    fn fail(&mut self, text: String) {
        push_error(&mut self.res.errors, text);
    }

    /// Send the batch due at `due`, all of it to one shard so its serials
    /// are consecutive in op order. `Ok(false)`: the session must recover
    /// first and the batch is still to be sent.
    fn issue(&mut self, due: Instant) -> Result<bool, String> {
        let shard = (self.batches % CRASH_SHARDS as u64) as usize;
        let pool = &self.pools[shard];
        let mut gen = self.gen.clone();
        let mut writes = Vec::new();
        let ops: Vec<ClusterOp> = (0..BATCH as u64)
            .map(|i| {
                let (kind, idx) = gen.next_op();
                let key = Key::from_u64(pool[idx as usize]);
                match kind {
                    Kind::Read => ClusterOp::Read(key),
                    _ => {
                        let serial = self.next_serial + i;
                        writes.push((serial, shard as u32, idx as u32));
                        ClusterOp::Upsert(key, Value::from_u64(encode_value(self.tag, serial)))
                    }
                }
            })
            .collect();
        match self.session.issue(ops) {
            Ok(serials) => {
                if serials.first() != Some(&self.next_serial) {
                    return Err(format!(
                        "session {}: batch got serials from {:?}, expected {}",
                        self.tag,
                        serials.first(),
                        self.next_serial
                    ));
                }
                self.gen = gen;
                self.res.writes.extend(writes);
                let seg = self.tl.segment(due);
                self.res.segs[seg].scheduled += BATCH as u64;
                self.res.segs[seg]
                    .late
                    .push(Instant::now().saturating_duration_since(due));
                self.inflight.insert(
                    self.next_serial / BATCH as u64,
                    Inflight {
                        due,
                        seg,
                        remaining: BATCH,
                    },
                );
                self.res.backlog_max = self.res.backlog_max.max(self.inflight.len());
                self.res
                    .batch_times
                    .push((self.tracer.clock.now_us(), u64::MAX));
                self.next_serial += BATCH as u64;
                self.batches += 1;
                Ok(true)
            }
            Err(DprError::WorldLineMismatch { .. }) => Ok(false),
            Err(e) => Err(format!("issue: {e}")),
        }
    }

    /// Account for whatever replies have arrived.
    fn absorb(&mut self) {
        let now = Instant::now();
        for (serial, result) in self.session.take_results() {
            if let OpResult::Value(v) = &result {
                if !read_is_known(v.as_ref().and_then(Value::as_u64), CONNS as u64) {
                    self.fail(format!("read returned {v:?}"));
                }
            }
            let id = serial / BATCH as u64;
            let Some(b) = self.inflight.get_mut(&id) else {
                continue;
            };
            b.remaining -= 1;
            if b.remaining == 0 {
                let b = self.inflight.remove(&id).expect("present above");
                self.res.batch_times[id as usize].1 = self.tracer.clock.us(now);
                let seg = &mut self.res.segs[b.seg];
                seg.completed += BATCH as u64;
                seg.op_lat.push(now.duration_since(b.due));
                // The benchmark cannot see versions on this plane, so no
                // batch is sampled for the commit stages.
                self.commits.push(Answered {
                    end_serial: (id + 1) * BATCH as u64,
                    at: now,
                    seg: b.seg,
                    shard: 0,
                    version: 0,
                    span: 0,
                });
                if let Some(f) = self.res.faults.last_mut() {
                    f.first_ok.get_or_insert(now);
                }
            }
        }
    }

    /// Everything below `prefix` is resolved; what was not aborted is
    /// committed.
    fn advance(&mut self, prefix: u64) {
        let now = Instant::now();
        if let Err(e) = self
            .commits
            .advance(prefix, now, &mut self.res.segs, |_| {})
        {
            self.fail(e);
        }
        if let Some(f) = self.res.faults.last_mut() {
            if f.recommit.is_none() && prefix > f.serial_at_recover {
                f.recommit = Some(now);
            }
        }
    }

    fn refresh(&mut self) -> Result<(), String> {
        match self.session.refresh_commit_safe() {
            Ok(prefix) => {
                self.advance(prefix);
                Ok(())
            }
            Err(DprError::WorldLineMismatch { .. }) => self.recover(),
            Err(e) => Err(format!("refresh_commit_safe: {e}")),
        }
    }

    /// The cluster moved to a new world-line under this session.
    fn recover(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let survived = self
            .session
            .recover(RECOVER_TIMEOUT)
            .map_err(|e| format!("session {} recover: {e}", self.tag))?;
        let t1 = Instant::now();
        if self.tracing.load(Ordering::Relaxed) {
            self.tracer
                .span("client.recover", t0, t1, 0, self.session.world_line().0);
        }
        // Survivors are committed; the rest of what was issued is gone:
        // rolled back if it had executed, dropped if it was in flight.
        self.advance(survived);
        self.commits.roll_back(self.next_serial, &mut self.res.segs);
        self.inflight.clear();
        self.res.rolled_back.push((survived, self.next_serial));
        self.res.lost_ops += self.next_serial - survived;
        let world_line = self.session.world_line().0 as usize;
        if self.res.faults.len() < world_line {
            self.res.faults.resize(world_line, FaultSeen::default());
        }
        self.res.faults[world_line - 1] = FaultSeen {
            recover_ms: t1.duration_since(t0).as_secs_f64() * 1000.0,
            recovered_at: Some(t1),
            first_ok: None,
            recommit: None,
            serial_at_recover: self.next_serial,
        };
        Ok(())
    }

    fn run(&mut self) -> Result<(), String> {
        let step = Duration::from_secs_f64(BATCH as f64 * CONNS as f64 / CRASH_RATE_OPS_S);
        let mut next_due = self.tl.start + step.mul_f64((self.tag - 1) as f64 / CONNS as f64);
        let mut last_cut = Instant::now();
        loop {
            let mut now = Instant::now();
            if now >= self.tl.end {
                break;
            }
            while next_due <= now && next_due < self.tl.end {
                if self.issue(next_due)? {
                    next_due += step;
                } else {
                    self.recover()?;
                }
                now = Instant::now();
            }
            if now.duration_since(last_cut) >= CUT_EVERY {
                last_cut = now;
                self.refresh()?;
            }
            // Block until a reply arrives or the next send is due.
            let wait = next_due.saturating_duration_since(Instant::now());
            if self.session.inflight_ops() == 0 {
                std::thread::sleep(wait);
                continue;
            }
            let polled = self.session.poll(true, wait);
            self.absorb();
            match polled {
                Ok(_) => {}
                Err(DprError::WorldLineMismatch { .. }) => self.recover()?,
                Err(e) => self.fail(format!("poll: {e}")),
            }
        }
        // Drain: replies first, then commits.
        let deadline = Instant::now() + DRAIN;
        while (self.session.inflight_ops() > 0 || !self.commits.is_empty())
            && Instant::now() < deadline
        {
            let polled = self.session.poll(true, Duration::from_millis(2));
            self.absorb();
            if let Err(DprError::WorldLineMismatch { .. }) = polled {
                self.recover()?;
            }
            self.refresh()?;
            if self.session.inflight_ops() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for b in self.inflight.values() {
            self.res.segs[b.seg].failed += BATCH as u64;
        }
        let who = format!("session {}", self.tag);
        let s = self.session.stats();
        for check in [
            self.commits.leftover(&who, self.inflight.len()),
            session_check(&who, s.committed, s.completed, self.next_serial),
        ] {
            if let Err(e) = check {
                self.fail(e);
            }
        }
        Ok(())
    }
}

/// What the injector measured for one fault.
struct Fault {
    /// Injected while tracing was on; end-to-end numbers leave it out.
    traced: bool,
    injected: Instant,
    detect_ms: f64,
    recover_ms: f64,
    recovered: Instant,
}

fn inject(cluster: &Cluster, idx: usize, traced: bool) -> Result<Fault, String> {
    let injected = Instant::now();
    cluster
        .inject_failure_at(idx % CRASH_SHARDS)
        .map_err(|e| format!("inject_failure_at: {e}"))?;
    let detected = Instant::now();
    cluster
        .wait_recovered(RECOVER_TIMEOUT)
        .map_err(|e| format!("wait_recovered after fault {idx}: {e}"))?;
    let recovered = Instant::now();
    Ok(Fault {
        traced,
        injected,
        detect_ms: detected.duration_since(injected).as_secs_f64() * 1000.0,
        recover_ms: recovered.duration_since(injected).as_secs_f64() * 1000.0,
        recovered,
    })
}

pub fn run(opts: &RunOpts, out: &mut Outcome) {
    if let Err(e) = run_inner(opts, out) {
        out.error(e);
    }
}

#[allow(clippy::too_many_lines)]
fn run_inner(opts: &RunOpts, out: &mut Outcome) -> Result<(), String> {
    let keys = crash_keys(opts.scale);
    let offsets = crash_fault_offsets(opts.window);
    out.note(format!(
        "crash: in-process cluster over SimNetwork, {CRASH_SHARDS} shards, {CONNS} sessions, \
         open loop {CRASH_RATE_OPS_S} ops/s, {keys} keys, {} faults; injected: network \
         {CRASH_NET_LATENCY:?} one way, Null storage",
        offsets.len()
    ));
    let (cluster, pools, setup_s) = set_up(keys)?;
    let rss_after_setup = sys::peak_rss_mb(std::process::id());
    let setup_done = Instant::now();

    let clock = Clock::start();
    let mix = Mix {
        read_pct: 50,
        upsert_pct: 50,
    };
    let proto = OpGen::new(opts.seed, pools[0].len() as u64, Dist::Uniform, mix);
    let tl = Timeline::plan(opts);
    let tracing = AtomicBool::new(false);
    let me = std::process::id();
    let mut faults: Vec<Fault> = Vec::new();
    let mut main_tracer = Tracer::new(clock, 9);

    let mut sessions = Vec::new();
    for _ in 0..CONNS {
        sessions.push(
            cluster
                .open_session()
                .map_err(|e| format!("open session: {e}"))?,
        );
    }

    let (results, cpu, traced) = std::thread::scope(|scope| -> Result<_, String> {
        let handles: Vec<_> = sessions
            .drain(..)
            .enumerate()
            .map(|(i, session)| {
                let tag = i as u64 + 1;
                let mut d = Driver {
                    tag,
                    session,
                    pools: &pools,
                    gen: proto.reseeded(opts.seed.wrapping_mul(1_000_003).wrapping_add(tag)),
                    tl,
                    next_serial: 0,
                    batches: i as u64,
                    inflight: HashMap::new(),
                    commits: CommitTracker::new(BATCH),
                    tracer: Tracer::new(clock, tag),
                    tracing: &tracing,
                    res: SessionResult {
                        segs: Default::default(),
                        errors: Vec::new(),
                        faults: Vec::new(),
                        writes: Vec::new(),
                        rolled_back: Vec::new(),
                        batch_times: Vec::new(),
                        lost_ops: 0,
                        backlog_max: 0,
                        spans: Vec::new(),
                    },
                };
                scope.spawn(move || {
                    sleep_until(tl.start);
                    if let Err(e) = d.run() {
                        // Reported in `fail_ratio` with its text; the
                        // program is not patched from here.
                        d.fail(e);
                        for b in d.inflight.values() {
                            d.res.segs[b.seg].failed += BATCH as u64;
                        }
                    }
                    let tracer = std::mem::replace(&mut d.tracer, Tracer::new(clock, 0));
                    d.res.spans = tracer.into_spans();
                    (d.res, d.session)
                })
            })
            .collect();

        // This thread injects the faults and flips tracing on, one event
        // after another, so tracing never starts in the middle of a
        // recovery.
        let mut cpu = [(0.0, 0u64); 2];
        let mut events: Vec<(Instant, Option<usize>)> = offsets
            .iter()
            .enumerate()
            .map(|(i, &o)| (tl.a + o, Some(i)))
            .collect();
        events.push((tl.b, None));
        events.sort_by_key(|e| e.0);
        sleep_until(tl.a);
        cpu[0] = (sys::cpu_us(me), crate::alloc_count());
        let mut live = None;
        for (at, event) in events {
            sleep_until(at);
            match event {
                Some(idx) => {
                    let f = inject(&cluster, idx, tracing.load(Ordering::Relaxed))?;
                    if f.traced {
                        let root =
                            main_tracer.span("fault", f.injected, f.recovered, 0, idx as u64 + 1);
                        main_tracer.span(
                            "manager.inject",
                            f.injected,
                            f.injected + Duration::from_secs_f64(f.detect_ms / 1000.0),
                            root,
                            idx as u64 + 1,
                        );
                    }
                    faults.push(f);
                }
                None => {
                    cpu[1] = (sys::cpu_us(me), crate::alloc_count());
                    if opts.trace {
                        live = Some(LiveTrace::start(
                            clock,
                            cluster.metadata().clone(),
                            LAG_BOUND,
                        ));
                        tracing.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        sleep_until(tl.end);
        let results: Vec<_> = handles.into_iter().filter_map(|h| h.join().ok()).collect();
        Ok((results, cpu, live.map(LiveTrace::finish)))
    })?;
    if results.len() != CONNS {
        return Err("a generator thread panicked".into());
    }
    let rss = Rss {
        after_setup: rss_after_setup,
        at_end: sys::peak_rss_mb(me),
        closed_loop: false,
    };

    // Durability: everything is committed now, so one more restart must
    // lose nothing; then every key is read back.
    let (mut results, mut sessions): (Vec<SessionResult>, Vec<SessionHandle>) =
        results.into_iter().unzip();
    let all_committed = results.iter().all(|r| r.errors.is_empty());
    inject(&cluster, faults.len(), false)?;
    for (r, s) in results.iter_mut().zip(&mut sessions) {
        let issued = r
            .writes
            .last()
            .map_or(0, |w| w.0 / BATCH as u64 * BATCH as u64 + BATCH as u64);
        match s.recover(RECOVER_TIMEOUT) {
            Ok(survived) if all_committed && survived < issued => r.errors.push(format!(
                "final restart lost committed operations: survived {survived} of {issued}"
            )),
            Ok(_) => {}
            Err(e) => r.errors.push(format!("final recover: {e}")),
        }
    }
    // The read-back rule. Pipelined batches of one session are not ordered
    // among themselves (a worker has several executors), and operations
    // past a session's surviving prefix may or may not have reached the
    // cut, so the final value of a key need not be the last write by
    // serial. What must hold: it is a value somebody wrote, and no write
    // that survived every recovery was issued after the visible write had
    // already been answered - that would be a committed write lost.
    struct Write {
        value: u64,
        issued_us: u64,
        answered_us: u64,
        survived: bool,
    }
    let within = |ranges: &[(u64, u64)], serial: u64| {
        ranges.iter().any(|&(lo, hi)| lo <= serial && serial < hi)
    };
    let mut by_key: HashMap<(u32, u32), Vec<Write>> = HashMap::new();
    for (t, r) in results.iter().enumerate() {
        for &(serial, shard, idx) in &r.writes {
            let (issued_us, answered_us) = r.batch_times[(serial / BATCH as u64) as usize];
            by_key.entry((shard, idx)).or_default().push(Write {
                value: encode_value(t as u64 + 1, serial),
                issued_us,
                answered_us,
                survived: !within(&r.rolled_back, serial),
            });
        }
    }
    let mut reader = cluster
        .open_session()
        .map_err(|e| format!("open session: {e}"))?;
    let mut wrong = 0u64;
    let mut past_prefix = 0u64;
    for (shard, pool) in pools.iter().enumerate() {
        for (chunk_i, chunk) in pool.chunks(BULK_BATCH).enumerate() {
            let ops = chunk
                .iter()
                .map(|&id| ClusterOp::Read(Key::from_u64(id)))
                .collect();
            let got = reader.execute(ops).map_err(|e| format!("read-back: {e}"))?;
            for (i, r) in got.iter().enumerate() {
                let idx = chunk_i * BULK_BATCH + i;
                let none = Vec::new();
                let writes = by_key.get(&(shard as u32, idx as u32)).unwrap_or(&none);
                let seen = match r {
                    OpResult::Value(Some(v)) => v.as_u64(),
                    _ => None,
                };
                let visible = writes.iter().find(|w| Some(w.value) == seen);
                let answered_us = match visible {
                    Some(w) => w.answered_us,
                    // The preload is older than every write.
                    None if seen == Some(preload_value(shard, idx)) => 0,
                    None => {
                        wrong += 1;
                        if wrong <= 3 {
                            out.error(format!(
                                "read-back of key {}: {seen:x?} was never written",
                                pool[idx]
                            ));
                        }
                        continue;
                    }
                };
                past_prefix += u64::from(visible.is_some_and(|w| !w.survived));
                if let Some(lost) = writes
                    .iter()
                    .find(|w| w.survived && w.issued_us > answered_us)
                {
                    wrong += 1;
                    if wrong <= 3 {
                        out.error(format!(
                            "read-back of key {}: holds {seen:x?}, answered before the surviving \
                             write {:x} was even issued",
                            pool[idx], lost.value
                        ));
                    }
                }
            }
        }
    }
    if wrong > 3 {
        out.error(format!("read-back: {wrong} keys wrong in all"));
    }
    out.note(format!(
        "read-back after a final restart checked {} keys, {wrong} wrong; {past_prefix} hold a \
         write past its session's surviving prefix (README, known issues)",
        pools.iter().map(Vec::len).sum::<usize>()
    ));
    cluster.shutdown();

    let (seg_a, seg_b) =
        crate::segment::merge(results.iter_mut().map(|r| std::mem::take(&mut r.segs)));
    for e in results.iter_mut().flat_map(|r| r.errors.drain(..)) {
        out.error(e);
    }
    let lost: u64 = results.iter().map(|r| r.lost_ops).sum();
    let cpu_a = cpu[1].0 - cpu[0].0;
    crate::segment::report(out, &tl, seg_a, seg_b, cpu_a, rss);

    // Per fault: how long until every session was served again, and until
    // new work committed again. The end-to-end medians are over the faults
    // injected with tracing off; the layer medians over all of them.
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1000.0;
    let mut unavail = Vec::new();
    let mut recommit = Vec::new();
    let mut first_ok = Vec::new();
    let mut client_recover = Vec::new();
    let mut resumed = 0;
    for (i, f) in faults.iter().enumerate() {
        let seen: Vec<&FaultSeen> = results.iter().filter_map(|r| r.faults.get(i)).collect();
        let back = seen.iter().filter_map(|s| s.first_ok).max();
        let commits = seen.iter().filter_map(|s| s.recommit).min();
        resumed += usize::from(back.is_some() && commits.is_some());
        if let Some(t) = back {
            first_ok.push(ms(f.recovered, t));
        }
        if let (false, Some(back), Some(commits)) = (f.traced, back, commits) {
            unavail.push(ms(f.injected, back));
            recommit.push(ms(f.injected, commits));
        }
        client_recover.extend(
            seen.iter()
                .filter(|s| s.recovered_at.is_some())
                .map(|s| s.recover_ms),
        );
    }
    if resumed != faults.len() {
        out.error(format!(
            "{} faults injected, sessions resumed and recommitted after {resumed}",
            faults.len()
        ));
    }
    let detect: Vec<f64> = faults.iter().map(|f| f.detect_ms).collect();
    let recover: Vec<f64> = faults.iter().map(|f| f.recover_ms).collect();
    let lost_per_fault = lost as f64 / faults.len().max(1) as f64;
    out.note(format!(
        "{} faults, {} of them untraced: lost_ops_per_fault={lost_per_fault:.1}; per untraced \
         fault unavailable ms {unavail:.1?}, recommit ms {recommit:.1?}",
        faults.len(),
        unavail.len(),
    ));
    // A median nobody measured is left out, and the run is incorrect for
    // the missing metric; it is not reported as zero.
    for (name, values) in [
        ("e2e.unavail_p50_ms", &unavail),
        ("e2e.recommit_p50_ms", &recommit),
        ("manager.detect_ms_p50", &detect),
        ("manager.recover_ms_p50", &recover),
        ("manager.first_ok_ms_p50", &first_ok),
        ("client.recover_ms_p50", &client_recover),
    ] {
        if let Some(v) = median(values) {
            out.set(name, v);
        }
    }
    out.set("client.lost_ops_per_fault", lost_per_fault);
    out.set(
        "client.backlog_max_batches",
        results.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
    );
    out.setup(setup_s, tl.a.duration_since(setup_done).as_secs_f64());
    if !opts.trace {
        return Ok(());
    }

    let (audit, checker) = traced.ok_or("tracing never started")?;
    let dump = crate::serve::ServerDump::local(audit, &checker);
    dump.report(false, tl.secs_b(), out);
    let mut spans = main_tracer.into_spans();
    spans.extend(results.iter_mut().flat_map(|r| r.spans.drain(..)));
    crate::trace::save_spans("crash", spans, out);
    Ok(())
}
