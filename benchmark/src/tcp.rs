//! The three workloads on the real TCP plane: `net_sat` (closed loop),
//! `net_rate` and `commit_dep` (open loop). One generator thread per
//! connection drives a `PipelinedClient` against the server child.
//!
//! A run is one continuous stream per connection, cut into segments by
//! time: warm-up (discarded), A (measured, tracing off) and, on a traced
//! run, B (measured, tracing on). Every batch belongs to the segment it
//! was due in. Untraced runs report A; traced runs take CPU and
//! allocation figures from A, spans and audit events from B, and the
//! difference between the two as the tracing overhead.

use crate::gen::{encode_value, read_is_known, Kind, OpGen, PRELOAD_TAG};
use crate::outcome::{push_error, Outcome, RunOpts};
use crate::segment::{session_check, sleep_until, Answered, CommitTracker, Rss, Seg, Timeline};
use crate::serve::ServerProc;
use crate::spec::{Scale, TcpSpec, BATCH, BULK_BATCH, CONNS, CUT_EVERY, DRAIN, WINDOW};
use crate::trace::{BatchStamp, Clock, Span, Tracer};
use crate::{alloc_count, sys};
use dpr_cluster::{ClusterOp, OpResult, PipelinedClient};
use dpr_core::{DprError, Key, SessionId, ShardId, Value};
use libdpr::DprClientSession;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn key_of(shard: ShardId, idx: u64) -> Key {
    // Client-side partitioning: the shard id tags the key's high bits.
    Key::from_u64((u64::from(shard.0) << 32) | idx)
}

struct Pending {
    seq: u64,
    due: Instant,
    shard: ShardId,
    end_serial: u64,
    /// Id reserved for this batch's root span, when it is sampled.
    span: u64,
}

/// Everything one generator thread hands back.
struct ConnResult {
    segs: [Seg; 3],
    /// Serial + 1 of this connection's last upsert of each key; 0 = none.
    last_write: Vec<u64>,
    errors: Vec<String>,
    backlog_max: usize,
    issue_ns: u64,
    issue_calls: u64,
    poll_ns: u64,
    poll_completions: u64,
    stamps: Vec<BatchStamp>,
    spans: Vec<Span>,
}

struct Conn<'a> {
    client: PipelinedClient,
    tag: u64,
    spec: &'a TcpSpec,
    shards: Vec<ShardId>,
    gen: OpGen,
    ops: Vec<ClusterOp>,
    batches: u64,
    pending: VecDeque<Pending>,
    /// Batches answered by the poll in progress; their version is read
    /// from the session once the poll returns.
    fresh: Vec<Answered>,
    commits: CommitTracker,
    tl: Timeline,
    tracing: &'a AtomicBool,
    tracer: Tracer,
    keep_every: u64,
    res: ConnResult,
}

impl Conn<'_> {
    fn fail(&mut self, text: String) {
        push_error(&mut self.res.errors, text);
    }

    /// Build and send the next batch, stamped as due at `due`.
    fn issue(&mut self, due: Instant) -> Result<(), DprError> {
        let shard_i = (self.batches % self.shards.len() as u64) as usize;
        let shard = self.shards[shard_i];
        let first_serial = self.client.session_mut().issued();
        self.ops.clear();
        for i in 0..BATCH as u64 {
            let (kind, idx) = self.gen.next_op();
            let key = key_of(shard, idx);
            self.ops.push(match kind {
                Kind::Read => ClusterOp::Read(key),
                Kind::Upsert => {
                    let serial = first_serial + i;
                    self.res.last_write
                        [shard_i * self.spec.keys_per_shard as usize + idx as usize] = serial + 1;
                    ClusterOp::Upsert(key, Value::from_u64(encode_value(self.tag, serial)))
                }
                Kind::Incr => ClusterOp::Incr(key),
            });
        }
        let seg = self.tl.segment(due);
        let traced = seg == 2 && self.tracing.load(Ordering::Relaxed);
        let sent = Instant::now();
        let seq = self.client.issue(shard, &self.ops)?;
        let mut span = 0;
        if traced {
            let done = Instant::now();
            self.res.issue_ns += done.duration_since(sent).as_nanos() as u64;
            self.res.issue_calls += 1;
            if self.batches.is_multiple_of(self.keep_every) {
                span = self.tracer.reserve();
                self.tracer.span("tcp.issue", sent, done, span, seq);
            }
        }
        self.batches += 1;
        let s = &mut self.res.segs[seg];
        s.scheduled += BATCH as u64;
        if self.spec.rate_ops_s.is_some() {
            s.late.push(sent.saturating_duration_since(due));
        }
        self.pending.push_back(Pending {
            seq,
            due,
            shard,
            end_serial: first_serial + BATCH as u64,
            span,
        });
        self.res.backlog_max = self.res.backlog_max.max(self.pending.len());
        Ok(())
    }

    /// Wait up to `wait` for responses, account for them, then move the
    /// committed prefix.
    fn poll(&mut self, wait: Duration) -> Result<(), DprError> {
        let traced = self.tracing.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let (pending, fresh, res, tl, tracer) = (
            &mut self.pending,
            &mut self.fresh,
            &mut self.res,
            &self.tl,
            &mut self.tracer,
        );
        let delivered = self.client.poll_each(wait, |done| {
            let now = Instant::now();
            let at = if pending.front().is_some_and(|p| p.seq == done.seq) {
                Some(0)
            } else {
                pending.iter().position(|p| p.seq == done.seq)
            };
            let Some(p) = at.and_then(|i| pending.remove(i)) else {
                return;
            };
            let seg = &mut res.segs[tl.segment(p.due)];
            match done.result {
                Ok(results) => {
                    for r in results {
                        if let OpResult::Value(v) = r {
                            let seen = v.as_ref().and_then(Value::as_u64);
                            if !read_is_known(seen, CONNS as u64) {
                                push_error(&mut res.errors, format!("read returned {v:?}"));
                            }
                        }
                    }
                    seg.completed += BATCH as u64;
                    seg.op_lat.push(now.duration_since(p.due));
                    if p.span != 0 {
                        tracer.span_as(p.span, "batch", p.due, now, 0, p.seq);
                    }
                    fresh.push(Answered {
                        end_serial: p.end_serial,
                        at: now,
                        seg: tl.segment(p.due),
                        shard: p.shard.0,
                        version: 0,
                        span: p.span,
                    });
                }
                Err(e) => {
                    seg.failed += BATCH as u64;
                    push_error(&mut res.errors, format!("batch failed: {e}"));
                }
            }
        })?;
        let now = Instant::now();
        if traced && delivered > 0 {
            self.res.poll_ns += now.duration_since(t0).as_nanos() as u64;
            self.res.poll_completions += delivered as u64;
            // The session's dependency vector is the latest version it has
            // seen per shard: right after a response, that is the version
            // the response's batch executed in.
            let seen = self
                .client
                .session_mut()
                .rebatch_header(ShardId(u32::MAX), 0, 0)
                .deps;
            for u in &mut self.fresh {
                u.version = seen
                    .iter()
                    .find(|t| t.shard.0 == u.shard)
                    .map_or(0, |t| t.version.0);
            }
        }
        for u in self.fresh.drain(..) {
            self.commits.push(u);
        }
        let prefix = self.client.session_mut().committed_prefix();
        let (stamps, tracer) = (&mut self.res.stamps, &mut self.tracer);
        let moved = self.commits.advance(prefix, now, &mut self.res.segs, |u| {
            stamps.push(BatchStamp::new(tracer.clock, u, now));
            tracer.span("commit", u.at, now, u.span, 0);
        });
        if let Err(e) = moved {
            self.fail(e);
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), DprError> {
        let interval = self
            .spec
            .rate_ops_s
            .map(|r| Duration::from_secs_f64(BATCH as f64 * CONNS as f64 / r));
        // Stagger the connections' schedules by half an interval.
        let mut next_due = self.tl.start
            + interval.map_or(Duration::ZERO, |i| {
                i.mul_f64((self.tag - 1) as f64 / CONNS as f64)
            });
        let mut last_cut = Instant::now();
        loop {
            let mut now = Instant::now();
            if now >= self.tl.end {
                break;
            }
            match interval {
                None => {
                    while self.client.inflight() < WINDOW {
                        self.issue(Instant::now())?;
                    }
                }
                Some(step) => {
                    while next_due <= now && next_due < self.tl.end {
                        self.issue(next_due)?;
                        next_due += step;
                        now = Instant::now();
                    }
                }
            }
            if now.duration_since(last_cut) >= CUT_EVERY {
                self.client.request_cut()?;
                last_cut = now;
            }
            // Block until a response arrives or the next send is due;
            // never spin.
            let wait = match interval {
                None => Duration::from_millis(1),
                Some(_) => next_due.saturating_duration_since(Instant::now()),
            };
            if self.client.inflight() > 0 {
                self.poll(wait)?;
            } else {
                std::thread::sleep(wait);
            }
        }
        // Drain: every issued batch gets its response, then its commit.
        let deadline = Instant::now() + DRAIN;
        while (self.client.inflight() > 0 || !self.commits.is_empty()) && Instant::now() < deadline
        {
            if last_cut.elapsed() >= CUT_EVERY {
                self.client.request_cut()?;
                last_cut = Instant::now();
            }
            self.poll(Duration::from_millis(2))?;
        }
        Ok(())
    }
}

/// Upsert every key with its preload value over one connection.
fn preload(addr: SocketAddr, spec: &TcpSpec) -> Result<(), String> {
    bulk(addr, spec, SessionId(1000), |shard, idx, global| {
        ClusterOp::Upsert(
            key_of(shard, idx),
            Value::from_u64(encode_value(PRELOAD_TAG, global)),
        )
    })
    .map(|_| ())
}

/// Run one op per key through a fresh connection, windowed; returns the
/// results in key order (shard-major).
fn bulk(
    addr: SocketAddr,
    spec: &TcpSpec,
    session: SessionId,
    op: impl Fn(ShardId, u64, u64) -> ClusterOp,
) -> Result<Vec<Option<u64>>, String> {
    let mut client = PipelinedClient::connect(DprClientSession::new(session), addr)
        .map_err(|e| format!("connect: {e}"))?;
    let shards = client.shards().to_vec();
    if shards.len() != spec.shards {
        return Err(format!(
            "server hosts {} shards, wanted {}",
            shards.len(),
            spec.shards
        ));
    }
    let kps = spec.keys_per_shard;
    let mut out: Vec<Option<u64>> = vec![None; (kps * shards.len() as u64) as usize];
    let mut inflight: VecDeque<(u64, usize)> = VecDeque::new();
    let mut ops = Vec::with_capacity(BULK_BATCH);
    let mut failure = None;
    let mut next = 0u64; // next global key index to send
    let total = out.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while (next < total || !inflight.is_empty()) && failure.is_none() {
        while next < total && inflight.len() < WINDOW {
            let shard_i = (next / kps) as usize;
            let end = (next + BULK_BATCH as u64).min((shard_i as u64 + 1) * kps);
            ops.clear();
            ops.extend((next..end).map(|g| op(shards[shard_i], g % kps, g)));
            let seq = client
                .issue(shards[shard_i], &ops)
                .map_err(|e| format!("bulk issue: {e}"))?;
            inflight.push_back((seq, next as usize));
            next = end;
        }
        client
            .poll_each(Duration::from_millis(5), |done| {
                let Some(pos) = inflight.iter().position(|&(s, _)| s == done.seq) else {
                    return;
                };
                let (_, base) = inflight.remove(pos).expect("position found");
                match done.result {
                    Ok(results) => {
                        for (i, r) in results.iter().enumerate() {
                            if let OpResult::Value(Some(v)) = r {
                                out[base + i] = v.as_u64();
                            }
                        }
                    }
                    Err(e) => failure = Some(format!("bulk batch failed: {e}")),
                }
            })
            .map_err(|e| format!("bulk poll: {e}"))?;
        if Instant::now() > deadline {
            return Err("bulk pass timed out".into());
        }
    }
    failure.map_or(Ok(out), Err)
}

/// One set-up: start the server child and preload it.
fn set_up(workload: &str, scale: Scale, spec: &TcpSpec) -> Result<(ServerProc, f64), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(workload, scale)?;
    preload(server.addr, spec)?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// CPU, allocation and executed-op counters of both processes.
#[derive(Clone, Copy)]
struct Counters {
    gen_cpu_us: f64,
    srv_cpu_us: f64,
    gen_allocs: u64,
    srv_allocs: u64,
    srv_ops: u64,
}

fn counters(server: &mut ServerProc) -> Result<Counters, String> {
    let (srv_allocs, srv_ops) = server.mark()?;
    Ok(Counters {
        gen_cpu_us: sys::cpu_us(std::process::id()),
        srv_cpu_us: sys::cpu_us(server.pid),
        gen_allocs: alloc_count(),
        srv_allocs,
        srv_ops,
    })
}

/// What the traced half of a TCP run hands to the caller for the
/// per-layer metrics that need the layer probes too.
pub struct TcpTrace {
    pub server_cpu_ns_per_op: f64,
}

pub fn run(workload: &str, spec: &TcpSpec, opts: &RunOpts, out: &mut Outcome) -> Option<TcpTrace> {
    match run_inner(workload, spec, opts, out) {
        Ok(t) => t,
        Err(e) => {
            out.error(e);
            None
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_inner(
    workload: &str,
    spec: &TcpSpec,
    opts: &RunOpts,
    out: &mut Outcome,
) -> Result<Option<TcpTrace>, String> {
    out.note(format!(
        "{workload}: TCP over loopback, {} shards, {CONNS} connections, {} keys/shard, {}; \
         injected: storage {:?}, metadata {} us/statement, checkpoint every {} ms",
        spec.shards,
        spec.keys_per_shard,
        spec.rate_ops_s.map_or_else(
            || format!("closed loop window {WINDOW}x{BATCH}"),
            |r| format!("open loop {r} ops/s")
        ),
        spec.storage,
        spec.metadata_us,
        spec.checkpoint_ms,
    ));
    let (mut server, setup_s) = set_up(workload, opts.scale, spec)?;
    let rss_now =
        |server: &ServerProc| sys::peak_rss_mb(std::process::id()) + sys::peak_rss_mb(server.pid);
    let rss_after_setup = rss_now(&server);
    let setup_done = Instant::now();

    let clock = Clock::start();
    let proto = OpGen::new(opts.seed, spec.keys_per_shard, spec.dist, spec.mix);
    let tl = Timeline::plan(opts);
    let tracing = AtomicBool::new(false);
    let keep_every = if spec.rate_ops_s.is_none() { 64 } else { 8 };
    let addr = server.addr;

    let (results, marks) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let tag = c as u64 + 1;
                let gen = proto.reseeded(opts.seed.wrapping_mul(1_000_003).wrapping_add(tag));
                let tracing = &tracing;
                scope.spawn(move || -> Result<ConnResult, String> {
                    let client =
                        PipelinedClient::connect(DprClientSession::new(SessionId(tag)), addr)
                            .map_err(|e| format!("connect: {e}"))?;
                    let shards = client.shards().to_vec();
                    let mut conn = Conn {
                        client,
                        tag,
                        spec,
                        gen,
                        ops: Vec::with_capacity(BATCH),
                        batches: 0,
                        pending: VecDeque::new(),
                        fresh: Vec::new(),
                        commits: CommitTracker::new(BATCH),
                        tl,
                        tracing,
                        tracer: Tracer::new(clock, tag),
                        keep_every,
                        res: ConnResult {
                            segs: Default::default(),
                            last_write: vec![0; spec.keys_per_shard as usize * shards.len()],
                            errors: Vec::new(),
                            backlog_max: 0,
                            issue_ns: 0,
                            issue_calls: 0,
                            poll_ns: 0,
                            poll_completions: 0,
                            stamps: Vec::new(),
                            spans: Vec::new(),
                        },
                        shards,
                    };
                    sleep_until(tl.start);
                    if let Err(e) = conn.run() {
                        conn.fail(format!("connection {tag} stopped: {e}"));
                    }
                    // Whatever never completed or never committed failed.
                    for p in &conn.pending {
                        conn.res.segs[tl.segment(p.due)].failed += BATCH as u64;
                    }
                    let who = format!("connection {tag}");
                    let s = conn.client.session_mut();
                    let (issued, committed) = (s.issued(), s.committed_count());
                    let completed: u64 = conn.res.segs.iter().map(|s| s.completed).sum();
                    for check in [
                        conn.commits.leftover(&who, conn.pending.len()),
                        session_check(&who, committed, completed, issued),
                    ] {
                        if let Err(e) = check {
                            conn.fail(e);
                        }
                    }
                    conn.res.spans = conn.tracer.into_spans();
                    Ok(conn.res)
                })
            })
            .collect();
        // The main thread takes the counters at the segment boundaries.
        let marks = (|| -> Result<[Counters; 3], String> {
            sleep_until(tl.a);
            let at_a = counters(&mut server)?;
            sleep_until(tl.b);
            let at_b = counters(&mut server)?;
            if opts.trace {
                server.trace_on()?;
                dpr_telemetry::set_enabled(true);
                tracing.store(true, Ordering::Relaxed);
                sleep_until(tl.end);
            }
            Ok([at_a, at_b, counters(&mut server)?])
        })();
        let results: Vec<Result<ConnResult, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect();
        (results, marks)
    });
    dpr_telemetry::set_enabled(false);
    let marks = marks?;
    let mut conns = Vec::new();
    for r in results {
        conns.push(r?);
    }

    let (seg_a, seg_b) =
        crate::segment::merge(conns.iter_mut().map(|c| std::mem::take(&mut c.segs)));
    for e in conns.iter_mut().flat_map(|c| c.errors.drain(..)) {
        out.error(e);
    }

    // Read every key back and compare with the connections' last writes.
    let dump = if opts.trace {
        Some(server.dump()?)
    } else {
        None
    };
    let read_back = bulk(addr, spec, SessionId(2000), |shard, idx, _| {
        ClusterOp::Read(key_of(shard, idx))
    })?;
    let mut wrong = 0u64;
    for (g, seen) in read_back.iter().enumerate() {
        let writes: Vec<u64> = conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.last_write[g] > 0)
            .map(|(i, c)| encode_value(i as u64 + 1, c.last_write[g] - 1))
            .collect();
        let ok = match seen {
            Some(v) if writes.is_empty() => *v == encode_value(PRELOAD_TAG, g as u64),
            Some(v) => writes.contains(v),
            None => false,
        };
        if !ok {
            wrong += 1;
            if wrong <= 3 {
                out.error(format!(
                    "read-back of key {g}: saw {seen:x?}, last writes {writes:x?}"
                ));
            }
        }
    }
    if wrong > 3 {
        out.error(format!("read-back: {wrong} keys wrong in all"));
    }
    out.note(format!(
        "read-back checked {} keys, {wrong} wrong",
        read_back.len()
    ));
    let rss = Rss {
        after_setup: rss_after_setup,
        at_end: rss_now(&server),
        closed_loop: spec.rate_ops_s.is_none(),
    };
    server.stop();

    // End-to-end numbers come from segment A (tracing off).
    let ops_a = seg_a.completed.max(1) as f64;
    let cpu_a =
        (marks[1].gen_cpu_us - marks[0].gen_cpu_us) + (marks[1].srv_cpu_us - marks[0].srv_cpu_us);
    crate::segment::report(out, &tl, seg_a, seg_b, cpu_a, rss);
    out.setup(setup_s, tl.a.duration_since(setup_done).as_secs_f64());
    if !opts.trace {
        return Ok(None);
    }

    // Per-layer numbers of the traced run.
    let dump = dump.expect("traced run dumped");
    let secs_b = tl.secs_b();
    let srv_ops_a = (marks[1].srv_ops - marks[0].srv_ops).max(1) as f64;
    let server_cpu_ns_per_op = (marks[1].srv_cpu_us - marks[0].srv_cpu_us) * 1000.0 / srv_ops_a;
    out.set(
        "tcp.client_cpu_ns_per_op",
        (marks[1].gen_cpu_us - marks[0].gen_cpu_us) * 1000.0 / ops_a,
    );
    out.set(
        "tcp.client_allocs_per_op",
        (marks[1].gen_allocs - marks[0].gen_allocs) as f64 / ops_a,
    );
    out.set("net.server_cpu_ns_per_op", server_cpu_ns_per_op);
    out.set(
        "net.server_allocs_per_op",
        (marks[1].srv_allocs - marks[0].srv_allocs) as f64 / srv_ops_a,
    );
    let sum = |f: fn(&ConnResult) -> u64| conns.iter().map(f).sum::<u64>() as f64;
    out.set(
        "tcp.issue_ns_per_batch",
        sum(|c| c.issue_ns) / sum(|c| c.issue_calls).max(1.0),
    );
    out.set(
        "tcp.poll_ns_per_completion",
        sum(|c| c.poll_ns) / sum(|c| c.poll_completions).max(1.0),
    );
    out.set(
        "client.backlog_max_batches",
        conns.iter().map(|c| c.backlog_max).max().unwrap_or(0) as f64,
    );
    dump.report(true, secs_b, out);
    let stamps: Vec<BatchStamp> = conns
        .iter()
        .flat_map(|c| c.stamps.iter().copied())
        .collect();
    crate::trace::report_commit_stages(&stamps, &dump.audit, true, out);
    let spans: Vec<Span> = conns.iter_mut().flat_map(|c| c.spans.drain(..)).collect();
    crate::trace::save_spans(workload, spans, out);
    Ok(Some(TcpTrace {
        server_cpu_ns_per_op,
    }))
}
