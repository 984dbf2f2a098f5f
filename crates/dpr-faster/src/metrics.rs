//! Metric accessors for the FASTER-style store.
//!
//! Every metric defined here is documented (name, unit, paper
//! cross-reference) in `docs/OBSERVABILITY.md`; keep the two in sync.

use crate::state::Phase;
use dpr_core::Version;
use dpr_telemetry::metric_fn;

metric_fn!(
    /// CPR checkpoints completed (§5.4).
    pub(crate) fn checkpoints() -> Counter =
        ("dpr_faster_checkpoints_total", Count,
         "CPR checkpoints completed (Rest -> ... -> Rest cycles)")
);

metric_fn!(
    /// Time spent in the Prepare phase (waiting for all sessions to observe).
    pub(crate) fn phase_prepare() -> Histogram =
        ("dpr_faster_checkpoint_prepare_us", Micros,
         "Time a checkpoint spent in Prepare (sessions acknowledging in the old version)")
);

metric_fn!(
    /// Time spent in the InProgress phase (sessions moving to the new version).
    pub(crate) fn phase_in_progress() -> Histogram =
        ("dpr_faster_checkpoint_in_progress_us", Micros,
         "Time a checkpoint spent in InProgress (sessions moving to the new version)")
);

metric_fn!(
    /// Time spent in WaitFlush (sealing and flushing the committed prefix).
    pub(crate) fn phase_wait_flush() -> Histogram =
        ("dpr_faster_checkpoint_wait_flush_us", Micros,
         "Time a checkpoint spent in WaitFlush (log flush + manifest write)")
);

metric_fn!(
    /// Whole-checkpoint duration, Rest to Rest.
    pub(crate) fn checkpoint_total() -> Histogram =
        ("dpr_faster_checkpoint_total_us", Micros,
         "Whole-checkpoint duration from the Prepare transition back to Rest")
);

metric_fn!(
    /// Rollback THROW transitions (§5.5 non-blocking rollback, first half).
    pub(crate) fn rollback_throw() -> Counter =
        ("dpr_faster_rollback_throw_total", Count,
         "Rollback Throw phases entered (lost version range published, PENDING ops dropped)")
);

metric_fn!(
    /// Rollback PURGE completions (§5.5 non-blocking rollback, second half).
    pub(crate) fn rollback_purge() -> Counter =
        ("dpr_faster_rollback_purge_total", Count,
         "Rollback Purge phases completed (lost log entries invalidated)")
);

metric_fn!(
    /// Operations currently PENDING on device I/O (relaxed CPR, §5.4).
    pub(crate) fn pending_ops() -> Gauge =
        ("dpr_faster_pending_ops", Ops,
         "Operations currently PENDING on device I/O across all sessions")
);

metric_fn!(
    /// Appends that stalled on the bounded unflushed region.
    pub(crate) fn backpressure_stalls() -> Counter =
        ("dpr_faster_log_backpressure_stalls_total", Count,
         "Appends that stalled because [flushed, tail) hit the unflushed byte limit")
);

metric_fn!(
    /// How long each backpressure stall lasted.
    pub(crate) fn backpressure_stall_us() -> Histogram =
        ("dpr_faster_log_backpressure_stall_us", Micros,
         "Duration an append spent stalled waiting for the flusher to catch up")
);

metric_fn!(
    /// One past the last log byte reserved, over every store in the process.
    pub(crate) fn log_tail_bytes() -> Gauge =
        ("dpr_faster_log_tail_bytes", Bytes,
         "Log bytes ever appended (the tail address), all stores; moved by FasterKv::tick")
);

metric_fn!(
    /// Log bytes held in arena frames (`tail - head`).
    pub(crate) fn log_resident_bytes() -> Gauge =
        ("dpr_faster_log_resident_bytes", Bytes,
         "Log bytes resident in arena frames (tail - head), all stores; moved by FasterKv::tick")
);

metric_fn!(
    /// Log bytes below the durable frontier.
    pub(crate) fn log_durable_bytes() -> Gauge =
        ("dpr_faster_log_durable_bytes", Bytes,
         "Log bytes flushed to the device (the flushed address), all stores; moved by FasterKv::tick")
);

metric_fn!(
    /// The address the log begins at.
    pub(crate) fn log_begin_bytes() -> Gauge =
        ("dpr_faster_log_begin_bytes", Bytes,
         "Log bytes freed below begin (the begin address), all stores; moved by FasterKv::tick")
);

metric_fn!(
    /// Bytes of superseded records above `begin`, as far as counted.
    pub(crate) fn log_dead_bytes() -> Gauge =
        ("dpr_faster_log_dead_bytes", Bytes,
         "Bytes of records seen superseded and not yet freed, all stores; a quarter of tail - begin starts a pass")
);

metric_fn!(
    /// Evictions that reclaimed pages, each paying one epoch `quiesce`.
    pub(crate) fn log_evictions() -> Counter =
        ("dpr_faster_log_evictions_total", Count,
         "Evictions that reclaimed arena pages below head, each paying one epoch quiesce")
);

metric_fn!(
    /// Bytes the evictions reclaimed.
    pub(crate) fn log_evicted_bytes() -> Counter =
        ("dpr_faster_log_evicted_bytes_total", Bytes,
         "Bytes of the arena pages evictions reclaimed")
);

metric_fn!(
    /// Copy-forward passes run.
    pub(crate) fn compaction_passes() -> Counter =
        ("dpr_faster_compaction_passes_total", Count,
         "Copy-forward passes over the flushed, read-only log prefix")
);

metric_fn!(
    /// Bytes the passes appended at the tail.
    pub(crate) fn compaction_copied_bytes() -> Counter =
        ("dpr_faster_compaction_copied_bytes_total", Bytes,
         "Bytes of live records that copy-forward passes appended again at the tail")
);

metric_fn!(
    /// Records the passes examined.
    pub(crate) fn compaction_visited_records() -> Counter =
        ("dpr_faster_compaction_visited_records_total", Count,
         "Records, live or dead, that copy-forward passes examined")
);

metric_fn!(
    /// Bytes freed below `begin`.
    pub(crate) fn compaction_freed_bytes() -> Counter =
        ("dpr_faster_compaction_freed_bytes_total", Bytes,
         "Log bytes freed, from memory and device, once the cut covered the pass that emptied them")
);

metric_fn!(
    /// How long one round of garbage collection kept its caller.
    pub(crate) fn compaction_round() -> Histogram =
        ("dpr_faster_compaction_round_us", Micros,
         "Duration of one collect_garbage call: a truncation, a copy-forward pass, or both")
);

metric_fn!(
    /// `collect_garbage` calls that returned an error.
    pub(crate) fn gc_errors() -> Counter =
        ("dpr_faster_gc_errors_total", Count,
         "collect_garbage calls that failed (a version above durable, a blob or device error)")
);

metric_fn!(
    /// Records whose value seqlock reached its terminal state.
    pub(crate) fn record_seals() -> Counter =
        ("dpr_faster_record_seals_total", Count,
         "Records sealed: 4,095 in-place writes, or an RMW result of another size class")
);

metric_fn!(
    /// Hash-chain hops per index lookup, sampled while telemetry is enabled.
    pub(crate) fn index_chain_len() -> Histogram =
        ("dpr_faster_index_chain_len", Count,
         "Records traversed per hash-chain walk (recorded while telemetry is enabled)")
);

metric_fn!(
    /// Chain identities that have an entry, over every index in the process.
    pub(crate) fn index_entries() -> Gauge =
        ("dpr_faster_index_entries", Count,
         "Hash-index entries (chains) in use, all stores; moves in steps of 256 per store")
);

metric_fn!(
    /// Table slots allocated, over every index in the process.
    pub(crate) fn index_slots() -> Gauge =
        ("dpr_faster_index_slots", Count,
         "Hash-index slots allocated (8 bytes each), all stores")
);

metric_fn!(
    /// Table doublings.
    pub(crate) fn index_grows() -> Counter =
        ("dpr_faster_index_grows_total", Count,
         "Hash-index doublings (each freezes and rehashes one table)")
);

/// Record a CPR state-machine transition into the span ring.
pub(crate) fn phase_span(from: Phase, to: Phase, version: Version) {
    dpr_telemetry::global().span("dpr-faster", "phase", || {
        format!("{from:?} -> {to:?} (v{})", version.0)
    });
}
