//! A run is one continuous stream of work per generator thread, cut into
//! segments by time: warm-up (discarded), A (measured, tracing off) and,
//! on a traced run, B (measured, tracing on). A batch belongs to the
//! segment it was due in.
//!
//! Untraced runs report A. Traced runs split the window in two halves:
//! CPU and allocation figures come from A, spans and audit events from B,
//! and the difference between the halves is the tracing overhead.

use crate::outcome::{Outcome, RunOpts};
use crate::spec::WARMUP;
use crate::stats::Samples;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub struct Timeline {
    pub start: Instant,
    pub a: Instant,
    pub b: Instant,
    pub end: Instant,
}

impl Timeline {
    /// Starts shortly from now, so that all threads are in place.
    pub fn plan(opts: &RunOpts) -> Timeline {
        let start = Instant::now() + Duration::from_millis(20);
        let a = start + WARMUP;
        let len_a = if opts.trace {
            opts.window / 2
        } else {
            opts.window
        };
        Timeline {
            start,
            a,
            b: a + len_a,
            end: a + opts.window,
        }
    }

    pub fn segment(&self, due: Instant) -> usize {
        if due < self.a {
            0
        } else if due < self.b {
            1
        } else {
            2
        }
    }

    pub fn secs_a(&self) -> f64 {
        self.b.duration_since(self.a).as_secs_f64()
    }

    pub fn secs_b(&self) -> f64 {
        self.end.duration_since(self.b).as_secs_f64()
    }
}

/// What was measured in one segment.
#[derive(Default)]
pub struct Seg {
    /// Operations scheduled, completed, committed by the end of the
    /// drain, and failed.
    pub scheduled: u64,
    pub completed: u64,
    pub committed: u64,
    pub failed: u64,
    pub op_lat: Samples,
    pub commit_lat: Samples,
    /// How late the open loop sent, per batch.
    pub late: Samples,
}

impl Seg {
    pub fn merge(&mut self, from: Seg) {
        self.scheduled += from.scheduled;
        self.completed += from.completed;
        self.committed += from.committed;
        self.failed += from.failed;
        self.op_lat.merge(from.op_lat);
        self.commit_lat.merge(from.commit_lat);
        self.late.merge(from.late);
    }

    /// Failed outright, or completed but still uncommitted after the drain.
    pub fn failures(&self) -> u64 {
        self.failed + (self.completed - self.committed)
    }
}

/// A batch that was answered and waits for a cut to cover it.
pub struct Answered {
    pub end_serial: u64,
    pub at: Instant,
    pub seg: usize,
    /// Where and in which version the batch ran, and its root span: for the
    /// traced run's commit stages. `span` is 0 when the batch is not sampled.
    pub shard: u32,
    pub version: u64,
    pub span: u64,
}

/// One session's answered batches in serial order, and its committed
/// prefix: the part of the output check every workload shares, and where
/// commit latency is taken.
pub struct CommitTracker {
    batch_ops: u64,
    waiting: VecDeque<Answered>,
    prefix: u64,
}

impl CommitTracker {
    pub fn new(batch_ops: usize) -> CommitTracker {
        CommitTracker {
            batch_ops: batch_ops as u64,
            waiting: VecDeque::new(),
            prefix: 0,
        }
    }

    /// Batches to different shards may be answered out of order; the queue
    /// is kept in serial order.
    pub fn push(&mut self, a: Answered) {
        let at = self
            .waiting
            .iter()
            .rposition(|u| u.end_serial < a.end_serial)
            .map_or(0, |i| i + 1);
        self.waiting.insert(at, a);
    }

    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// The session's committed prefix is `prefix` at `now`: every batch
    /// below it is committed. `sampled` sees each of them that has a span.
    /// `Err` when the prefix moved back.
    pub fn advance(
        &mut self,
        prefix: u64,
        now: Instant,
        segs: &mut [Seg; 3],
        mut sampled: impl FnMut(&Answered),
    ) -> Result<(), String> {
        let before = self.prefix;
        self.prefix = prefix;
        while self.waiting.front().is_some_and(|u| u.end_serial <= prefix) {
            let u = self.waiting.pop_front().expect("front checked");
            let seg = &mut segs[u.seg];
            seg.committed += self.batch_ops;
            seg.commit_lat.push(now.duration_since(u.at));
            if u.span != 0 {
                sampled(&u);
            }
        }
        if prefix < before {
            return Err(format!("committed prefix moved back: {before} -> {prefix}"));
        }
        Ok(())
    }

    /// A recovery rolled back whatever still waits: answered, then undone,
    /// so not completed after all, and not a failure either (DPR allows
    /// that). The prefix restarts at `issued`.
    pub fn roll_back(&mut self, issued: u64, segs: &mut [Seg; 3]) {
        for u in self.waiting.drain(..) {
            segs[u.seg].completed -= self.batch_ops;
        }
        self.prefix = issued;
    }

    /// What the drain left behind, as an error text.
    pub fn leftover(&self, who: &str, unanswered: usize) -> Result<(), String> {
        if unanswered == 0 && self.waiting.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{who}: {unanswered} batches unanswered, {} uncommitted after the drain",
            self.waiting.len()
        ))
    }
}

/// `committed <= completed <= issued`, per session.
pub fn session_check(who: &str, committed: u64, completed: u64, issued: u64) -> Result<(), String> {
    if committed <= completed && completed <= issued {
        return Ok(());
    }
    Err(format!(
        "{who}: committed {committed} <= completed {completed} <= issued {issued} violated"
    ))
}

/// Merge the per-thread segments; returns the two measured ones, A and B.
pub fn merge(per_thread: impl Iterator<Item = [Seg; 3]>) -> (Seg, Seg) {
    let mut total: [Seg; 3] = Default::default();
    for segs in per_thread {
        for (into, from) in total.iter_mut().zip(segs) {
            into.merge(from);
        }
    }
    let [_, a, b] = total;
    (a, b)
}

pub fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// Peak resident memory (`VmHWM`, generator plus server child) in MiB.
///
/// The gated `peak_rss_mb` is memory at a fixed amount of work. An open
/// loop does the same work in every run, so it is read at the end. A
/// closed loop has grown its log by as much as it managed to write, so at
/// the end its memory rises when the program gets faster; it is read when
/// set-up is done, and the figure at the end is reported ungated.
#[derive(Clone, Copy)]
pub struct Rss {
    pub after_setup: f64,
    pub at_end: f64,
    pub closed_loop: bool,
}

/// What every workload reports alike, from the merged segments of its
/// generator threads. End-to-end numbers come from A, the half (or whole)
/// of the window with tracing off; on a traced run, B against A is the
/// tracing overhead.
pub fn report(out: &mut Outcome, tl: &Timeline, a: Seg, b: Seg, cpu_us_a: f64, rss_mb: Rss) {
    out.attempted = a.scheduled + b.scheduled;
    out.failed = a.failures() + b.failures();
    // `fail_ratio` is 0 at the baseline and the gate takes no metric that
    // is; its complement carries the same bound (0.001 of 1).
    out.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    let goodput_a = a.committed as f64 / tl.secs_a();
    out.set("e2e.goodput_ops_s", goodput_a);
    out.set("e2e.cpu_us_per_op", cpu_us_a / a.completed.max(1) as f64);
    out.set(
        "peak_rss_mb",
        if rss_mb.closed_loop {
            rss_mb.after_setup
        } else {
            rss_mb.at_end
        },
    );
    out.set("e2e.rss_end_mb", rss_mb.at_end);
    let p50_a = a.op_lat.clone().sorted().median_us();
    out.timing(a.op_lat, "e2e.op_p50_us", ("e2e.op_p99_us", 0.99), 1.0);
    out.timing(
        a.commit_lat,
        "e2e.commit_p50_ms",
        ("e2e.commit_p99_ms", 0.99),
        1000.0,
    );
    out.lateness(a.late);
    if tl.b == tl.end {
        return;
    }
    let goodput_b = b.committed as f64 / tl.secs_b();
    let p50_b = b.op_lat.sorted().median_us();
    out.set(
        "trace.goodput_overhead_pct",
        (goodput_a - goodput_b) / goodput_a.max(1.0) * 100.0,
    );
    out.set(
        "trace.op_p50_overhead_pct",
        match (p50_a, p50_b) {
            (Some(a), Some(b)) if a > 0.0 => (b - a) / a * 100.0,
            _ => 0.0,
        },
    );
    out.note(format!(
        "untraced half: goodput {goodput_a:.0} ops/s, op p50 {p50_a:?} us; traced half: \
         goodput {goodput_b:.0} ops/s, op p50 {p50_b:?} us"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answered(end_serial: u64, at: Instant, span: u64) -> Answered {
        Answered {
            end_serial,
            at,
            seg: 1,
            shard: 0,
            version: 0,
            span,
        }
    }

    #[test]
    fn tracker_commits_in_serial_order_and_rolls_back_the_rest() {
        let t0 = Instant::now();
        let mut segs: [Seg; 3] = Default::default();
        segs[1].completed = 32;
        let mut commits = CommitTracker::new(8);
        // Answered out of order; the third one is sampled.
        for (end, span) in [(16, 0), (8, 0), (24, 7), (32, 0)] {
            commits.push(answered(end, t0, span));
        }
        let mut sampled = Vec::new();
        let now = t0 + Duration::from_millis(5);
        commits
            .advance(24, now, &mut segs, |u| sampled.push(u.span))
            .expect("prefix moved forward");
        assert_eq!((segs[1].committed, segs[1].commit_lat.len()), (24, 3));
        assert_eq!(sampled, [7]);
        assert!(commits.advance(16, now, &mut segs, |_| {}).is_err());
        assert!(commits.leftover("s", 0).is_err());
        // A recovery undoes the batch that still waits.
        commits.roll_back(40, &mut segs);
        assert_eq!(segs[1].completed, 24);
        assert!(commits.is_empty() && commits.leftover("s", 0).is_ok());
        assert!(session_check("s", 24, 24, 40).is_ok());
        assert!(session_check("s", 25, 24, 40).is_err());
    }
}
