//! Metric accessors for the cluster layer.
//!
//! Every metric defined here is documented (name, unit, paper
//! cross-reference) in `docs/OBSERVABILITY.md`; keep the two in sync.

use dpr_telemetry::metric_fn;

metric_fn!(
    /// Batches executed by workers (local + remote).
    pub(crate) fn batches() -> Counter =
        ("dpr_cluster_batches_total", Count,
         "Batches executed by workers")
);

metric_fn!(
    /// Wake-ups of the workers' shard loops (maintenance, checkpoint, pump,
    /// GC, lease and recovery duties).
    pub(crate) fn shard_loop_wakeups() -> Counter =
        ("dpr_cluster_shard_loop_wakeups_total", Count,
         "Wake-ups of the workers' shard loops")
);

metric_fn!(
    /// Operations per executed batch (the Fig. 13 batching axis `b`).
    pub(crate) fn batch_ops() -> Histogram =
        ("dpr_cluster_batch_ops", Ops,
         "Operations per executed batch")
);

metric_fn!(
    /// Messages dropped by an injected lossy-link fault (chaos harness).
    pub(crate) fn net_dropped() -> Counter =
        ("dpr_cluster_net_dropped_total", Count,
         "Messages dropped by injected lossy-link faults")
);

metric_fn!(
    /// Messages currently parked behind a partitioned-link fault.
    pub(crate) fn net_parked() -> Gauge =
        ("dpr_cluster_net_parked", Count,
         "Messages held behind partitioned links (released on heal)")
);

metric_fn!(
    /// TCP connections currently held by network-plane I/O threads.
    pub(crate) fn net_conns_active() -> Gauge =
        ("dpr_net_conns_active", Count,
         "Open network-plane TCP connections (accepted minus closed)")
);

metric_fn!(
    /// Frames sent by the network plane (server side).
    pub(crate) fn net_frames_tx() -> Counter =
        ("dpr_net_frames_tx_total", Count,
         "Wire frames transmitted by the network plane")
);

metric_fn!(
    /// Frames received by the network plane (server side).
    pub(crate) fn net_frames_rx() -> Counter =
        ("dpr_net_frames_rx_total", Count,
         "Wire frames received by the network plane")
);

metric_fn!(
    /// Encoded size of every frame crossing the network plane, both
    /// directions (header + body).
    pub(crate) fn net_frame_bytes() -> Histogram =
        ("dpr_net_frame_bytes", Bytes,
         "Encoded wire-frame sizes (header + body, both directions)")
);

metric_fn!(
    /// Protocol-level rejections emitted as Error frames (bad magic or
    /// version, handshake violations, stale epochs, unknown shards,
    /// duplicate-in-flight).
    pub(crate) fn net_frame_rejects() -> Counter =
        ("dpr_net_frame_rejects_total", Count,
         "Error frames sent for protocol-level rejections")
);

metric_fn!(
    /// Frame bodies a `wire::FrameReader` copied into the allocation it
    /// already held (the name is the retired buffer pool's; the benchmark
    /// reads it).
    pub(crate) fn pool_hits() -> Counter =
        ("dpr_pool_hits_total", Count,
         "Frame bodies served from the reader's recycled allocation")
);

metric_fn!(
    /// Frame bodies a `wire::FrameReader` had to allocate for: its first,
    /// one larger than any before, or one asked for while a view of the
    /// previous body was still alive.
    pub(crate) fn pool_misses() -> Counter =
        ("dpr_pool_misses_total", Count,
         "Frame bodies served from a fresh allocation")
);

metric_fn!(
    /// Batches the workers' reply caches remember: admitted, and not yet
    /// acknowledged by their session. Each cache moves it when its own count
    /// crosses a multiple of 16, so a request in steady state touches no
    /// shared counter for it.
    pub(crate) fn dedupe_entries() -> Gauge =
        ("dpr_cluster_dedupe_entries", Count,
         "Unacknowledged batches held in worker reply caches (moves in steps of 16 per worker)")
);

metric_fn!(
    /// Duplicate deliveries answered from a reply cache instead of executed.
    pub(crate) fn dedupe_replays() -> Counter =
        ("dpr_cluster_dedupe_replays_total", Count,
         "Retransmitted batches answered from a worker reply cache")
);

metric_fn!(
    /// Sessions a reply cache forgot whole to stay within `dedupe_window`.
    pub(crate) fn dedupe_sessions_evicted() -> Counter =
        ("dpr_cluster_dedupe_sessions_evicted_total", Count,
         "Least recently heard sessions dropped from a full worker reply cache")
);

metric_fn!(
    /// Batches refused because their session alone filled the window.
    pub(crate) fn dedupe_refused() -> Counter =
        ("dpr_cluster_dedupe_refused_total", Count,
         "Batches refused (retryable) because their session alone fills dedupe_window")
);

metric_fn!(
    /// Cluster recoveries completed (§4.1).
    pub(crate) fn recoveries() -> Counter =
        ("dpr_cluster_recoveries_total", Count,
         "Cluster recoveries driven to completion")
);

metric_fn!(
    /// Whole-cluster recovery duration, failure trigger to all-workers-done.
    pub(crate) fn recovery_duration() -> Histogram =
        ("dpr_cluster_recovery_us", Micros,
         "Cluster recovery duration from trigger_failure to the last rollback report")
);

metric_fn!(
    /// Per-worker rollbacks performed during recoveries.
    pub(crate) fn worker_rollbacks() -> Counter =
        ("dpr_cluster_worker_rollbacks_total", Count,
         "Worker rollbacks to the guaranteed cut during recovery")
);
