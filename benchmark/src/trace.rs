//! The traced run's recorders. Everything here sits outside the program:
//! spans are taken by the benchmark around its own calls into the layers,
//! and the audit sink is the tap `libdpr::audit` already exports.
//!
//! Times are wall-clock microseconds (`sys::wall_us` at start plus a
//! monotonic offset), so events of the generator and of the server child
//! merge on one timeline.

use crate::outcome::Outcome;
use crate::stats::Samples;
use crate::sys;
use dpr_chaos::InvariantChecker;
use dpr_core::Token;
use dpr_metadata::{Cut, MetadataStore};
use libdpr::audit::AuditSink;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maps `Instant`s onto the shared wall-clock timeline.
#[derive(Clone, Copy)]
pub struct Clock {
    t0: Instant,
    wall0: u64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            t0: Instant::now(),
            wall0: sys::wall_us(),
        }
    }

    pub fn us(&self, t: Instant) -> u64 {
        self.wall0 + t.saturating_duration_since(self.t0).as_micros() as u64
    }

    pub fn now_us(&self) -> u64 {
        self.us(Instant::now())
    }
}

/// One span: a named interval, the span that caused it, and the request
/// (batch or fault) it belongs to. `parent` and `req` are 0 when absent.
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: u64,
    pub req: u64,
}

/// Per-thread span store. Spans stay in memory until the run ends.
///
/// On the saturating workloads a run has millions of batches, so the
/// caller records the spans of one batch in `keep_every` (sums and counts
/// are kept for all of them elsewhere).
pub struct Tracer {
    pub clock: Clock,
    spans: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    /// `lane` keeps span ids of different threads apart.
    pub fn new(clock: Clock, lane: u64) -> Tracer {
        Tracer {
            clock,
            spans: Vec::new(),
            next_id: (lane << 40) + 1,
        }
    }

    /// An id for a span that will be recorded later, so that its children
    /// can name it as their parent first.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        let id = self.reserve();
        self.span_as(id, name, start, end, parent, req);
        id
    }

    /// Record a span under an id from [`Tracer::reserve`].
    pub fn span_as(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        self.spans.push(Span {
            id,
            name,
            start_us: self.clock.us(start),
            end_us: self.clock.us(end),
            parent,
            req,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Write the run's spans out and say where.
pub fn save_spans(workload: &str, spans: Vec<Span>, out: &mut Outcome) {
    match write_spans(workload, spans) {
        Ok(path) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.error(format!("writing spans: {e}")),
    }
}

/// Write spans as JSON lines under the build directory (`CARGO_TARGET_DIR`
/// when set, else `target/`). Returns the path written.
fn write_spans(workload: &str, mut spans: Vec<Span>) -> std::io::Result<std::path::PathBuf> {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = std::path::Path::new(&root).join("benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    spans.sort_by_key(|s| s.start_us);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"req\":{}}}",
            s.id, s.name, s.start_us, s.end_us, s.parent, s.req
        )?;
    }
    out.flush()?;
    Ok(path)
}

/// What the finder tap saw, with times.
#[derive(Default)]
pub struct AuditEvents {
    /// `(time, shard, version, dependency count)` per commit report.
    pub reports: Vec<(u64, u32, u64, u32)>,
    /// `(time, cut)` for every published cut that differs from the one
    /// before it (the finder republishes an unchanged cut every tick).
    pub cuts: Vec<(u64, Vec<(u32, u64)>)>,
}

/// Timestamping [`AuditSink`]; optionally passes every event on to the
/// chaos invariant checker.
pub struct AuditLog {
    clock: Clock,
    events: Mutex<AuditEvents>,
    checker: Option<Arc<InvariantChecker>>,
}

impl AuditLog {
    pub fn new(clock: Clock, checker: Option<Arc<InvariantChecker>>) -> AuditLog {
        AuditLog {
            clock,
            events: Mutex::new(AuditEvents::default()),
            checker,
        }
    }

    pub fn take(&self) -> AuditEvents {
        std::mem::take(&mut *self.events.lock().expect("audit log poisoned"))
    }
}

impl AuditSink for AuditLog {
    fn commit_reported(&self, token: Token, deps: &[Token]) {
        let t = self.clock.now_us();
        self.events
            .lock()
            .expect("audit log poisoned")
            .reports
            .push((t, token.shard.0, token.version.0, deps.len() as u32));
        if let Some(c) = &self.checker {
            c.commit_reported(token, deps);
        }
    }

    fn cut_published(&self, cut: &Cut) {
        let t = self.clock.now_us();
        let flat: Vec<(u32, u64)> = cut.iter().map(|(s, v)| (s.0, v.0)).collect();
        {
            let mut ev = self.events.lock().expect("audit log poisoned");
            if ev.cuts.last().is_none_or(|(_, last)| *last != flat) {
                ev.cuts.push((t, flat));
            }
        }
        if let Some(c) = &self.checker {
            c.cut_published(cut);
        }
    }
}

/// Tracing switched on in one process: `dpr-telemetry` enabled, the audit
/// log installed, and the chaos invariant checker ticked from a thread of
/// its own. [`LiveTrace::finish`] switches all of it off again.
pub struct LiveTrace {
    log: Arc<AuditLog>,
    checker: Arc<InvariantChecker>,
    stop: Arc<AtomicBool>,
    ticker: std::thread::JoinHandle<()>,
}

impl LiveTrace {
    /// `lag_bound`: the cut lag, in versions, the invariant checker
    /// tolerates (`spec::lag_bound`).
    pub fn start(clock: Clock, meta: Arc<dyn MetadataStore>, lag_bound: u64) -> LiveTrace {
        dpr_telemetry::set_enabled(true);
        let checker = Arc::new(InvariantChecker::new(lag_bound));
        let log = Arc::new(AuditLog::new(clock, Some(checker.clone())));
        libdpr::audit::install(log.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let ticker = {
            let (checker, stop) = (checker.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    checker.tick(&meta);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                checker.tick(&meta);
            })
        };
        LiveTrace {
            log,
            checker,
            stop,
            ticker,
        }
    }

    /// Stop tracing; what the audit tap recorded and the checker's verdict.
    pub fn finish(self) -> (AuditEvents, Arc<InvariantChecker>) {
        self.stop.store(true, Ordering::Release);
        // A panicked ticker shows as missing checks, not as a crash here.
        let _ = self.ticker.join();
        libdpr::audit::uninstall();
        dpr_telemetry::set_enabled(false);
        (self.log.take(), self.checker)
    }
}

/// A completed batch as the client saw it, for splitting its commit
/// latency into stages.
#[derive(Clone, Copy)]
pub struct BatchStamp {
    pub resp_us: u64,
    pub commit_us: u64,
    pub shard: u32,
    pub version: u64,
}

impl BatchStamp {
    /// A sampled batch seen committed at `committed`.
    pub fn new(clock: Clock, batch: &crate::segment::Answered, committed: Instant) -> BatchStamp {
        BatchStamp {
            resp_us: clock.us(batch.at),
            commit_us: clock.us(committed),
            shard: batch.shard,
            version: batch.version,
        }
    }
}

/// Commit latency split in series: response → token reported (checkpoint
/// timer + flush + report), reported → covering cut published (finder),
/// published → seen by the session (delivery).
#[derive(Default)]
pub struct CommitStages {
    pub report_wait: Samples,
    pub report_to_cut: Samples,
    pub cut_deliver: Samples,
    /// The whole commit latency of the same batches.
    pub commit: Samples,
}

pub fn commit_stages(stamps: &[BatchStamp], audit: &AuditEvents) -> CommitStages {
    // Per shard, ascending by version: when each version was first
    // reported, and when a cut first covered it.
    let mut reported: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for &(t, shard, version, _) in &audit.reports {
        let v = reported.entry(shard).or_default();
        if v.last().is_none_or(|&(last, _)| version > last) {
            v.push((version, t));
        }
    }
    let mut covered: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for (t, cut) in &audit.cuts {
        for &(shard, version) in cut {
            let v = covered.entry(shard).or_default();
            if v.last().is_none_or(|&(last, _)| version > last) {
                v.push((version, *t));
            }
        }
    }
    let first_at_least = |table: &BTreeMap<u32, Vec<(u64, u64)>>, shard: u32, version: u64| {
        let v = table.get(&shard)?;
        v.get(v.partition_point(|&(ver, _)| ver < version))
            .map(|&(_, t)| t)
    };
    let mut out = CommitStages::default();
    for b in stamps {
        let (Some(rep), Some(cut)) = (
            first_at_least(&reported, b.shard, b.version),
            first_at_least(&covered, b.shard, b.version),
        ) else {
            continue;
        };
        out.report_wait.push_us(rep.saturating_sub(b.resp_us));
        out.report_to_cut.push_us(cut.saturating_sub(rep));
        out.cut_deliver.push_us(b.commit_us.saturating_sub(cut));
        out.commit.push_us(b.commit_us.saturating_sub(b.resp_us));
    }
    out
}

/// The three commit stages as metrics, and the checks that they add up.
///
/// Per batch the stages tile the commit latency exactly, unless events are
/// out of order (skewed clocks, a batch matched to the wrong token) and a
/// stage is clamped at zero; then the stage means overshoot the mean commit
/// latency and the trace is wrong, on any workload. The three p50 must
/// also sum to the commit p50 within 10 % where `p50_must_add_up`: on the
/// TCP workloads, whose stages are timer waits of even spread. Medians of
/// skewed stages need not add up (on `colo_store` the wait for the report
/// has a long tail of flushes), so there the sum is printed only.
pub fn report_commit_stages(
    stamps: &[BatchStamp],
    audit: &AuditEvents,
    p50_must_add_up: bool,
    out: &mut Outcome,
) {
    let stages = commit_stages(stamps, audit);
    let n = stages.commit.len();
    let mean_ms = |s: &Samples| s.mean_us() / 1000.0;
    let mean_sum = mean_ms(&stages.report_wait)
        + mean_ms(&stages.report_to_cut)
        + mean_ms(&stages.cut_deliver);
    let mean_commit = mean_ms(&stages.commit);
    let p50 = |s: Samples| s.sorted().median_us().map(|us| us / 1000.0);
    let (Some(wait), Some(find), Some(deliver), Some(commit)) = (
        p50(stages.report_wait),
        p50(stages.report_to_cut),
        p50(stages.cut_deliver),
        p50(stages.commit),
    ) else {
        out.error(format!(
            "commit stages: {n} of {} sampled batches matched a report and a cut, too few",
            stamps.len()
        ));
        return;
    };
    out.set("worker.report_wait_ms_p50", wait);
    out.set("finder.report_to_cut_ms_p50", find);
    out.set("client.cut_deliver_ms_p50", deliver);
    let total = wait + find + deliver;
    out.note(format!(
        "commit stages over {n} sampled batches: report_wait {wait:.3} + report_to_cut \
         {find:.3} + cut_deliver {deliver:.3} = {total:.3} ms against their commit p50 \
         {commit:.3} ms; means {mean_sum:.3} against {mean_commit:.3} ms",
    ));
    if p50_must_add_up && (total - commit).abs() > 0.10 * commit {
        out.error(format!(
            "trace is wrong: commit stage p50s sum to {total:.3} ms, commit p50 is {commit:.3} ms"
        ));
    }
    if (mean_sum - mean_commit).abs() > 0.10 * mean_commit {
        out.error(format!(
            "trace is wrong: commit stages average {mean_sum:.3} ms, commit latency \
             {mean_commit:.3} ms"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_split_the_commit_latency() {
        let audit = AuditEvents {
            reports: vec![(1_000, 0, 1, 0), (2_000, 0, 2, 1), (2_100, 0, 2, 1)],
            cuts: vec![(1_500, vec![(0, 1)]), (2_700, vec![(0, 2)])],
        };
        // Ten batches answered at 1.2 ms in version 2, seen committed at
        // 3 ms: 0.8 ms to the report, 0.7 ms to the cut, 0.3 ms to the client.
        let stamps = vec![
            BatchStamp {
                resp_us: 1_200,
                commit_us: 3_000,
                shard: 0,
                version: 2,
            };
            10
        ];
        let s = commit_stages(&stamps, &audit);
        let p50 = |s: Samples| s.sorted().median_us();
        assert_eq!(p50(s.report_wait), Some(800.0));
        assert_eq!(p50(s.report_to_cut), Some(700.0));
        assert_eq!(p50(s.cut_deliver), Some(300.0));
        // A version nobody reported is left out, not guessed.
        let orphan = BatchStamp {
            version: 9,
            ..stamps[0]
        };
        assert_eq!(commit_stages(&[orphan], &audit).report_wait.len(), 0);
    }
}
