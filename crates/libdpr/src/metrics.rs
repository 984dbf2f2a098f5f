//! Metric accessors for the protocol library.
//!
//! Every metric defined here is documented (name, unit, paper
//! cross-reference) in `docs/OBSERVABILITY.md`; keep the two in sync.

use dpr_telemetry::metric_fn;

metric_fn!(
    /// Batches admitted for execution by the before-batch hook (§6).
    pub(crate) fn validate_execute() -> Counter =
        ("dpr_server_validate_execute_total", Count,
         "Batches admitted for execution by DprServer::validate")
);

metric_fn!(
    /// Batches delayed by the §3.2 version lower bound (commit triggered).
    pub(crate) fn validate_delay() -> Counter =
        ("dpr_server_validate_delay_total", Count,
         "Batches delayed because the client version clock was ahead (a commit was requested)")
);

metric_fn!(
    /// Batches rejected for world-line mismatch or in-progress recovery (§4.2).
    pub(crate) fn validate_reject() -> Counter =
        ("dpr_server_validate_reject_total", Count,
         "Batches rejected for world-line mismatch or because the shard is recovering")
);

metric_fn!(
    /// The rejections of `validate_reject` whose client is ahead of the
    /// shard (§4.2): they resolve only once the shard takes the world-line.
    pub(crate) fn validate_recovering() -> Counter =
        ("dpr_server_validate_recovering_total", Count,
         "Batches rejected as Recovering: the client is on a later world-line than the shard")
);

metric_fn!(
    /// Batch execution to commit report — how far commit trails completion (§1, §6).
    /// Measured per version: first batch recorded in the version → the
    /// drain that reports it.
    pub(crate) fn commit_latency() -> Histogram =
        ("dpr_server_commit_latency_us", Micros,
         "Time from the first executed batch of a version to that version's commit report to the finder")
);

metric_fn!(
    /// Committed versions reported to the cut finder.
    pub(crate) fn commit_reports() -> Counter =
        ("dpr_server_commit_reports_total", Count,
         "Committed versions reported to the cut finder by pump_commits")
);

metric_fn!(
    /// Dependency tokens persisted into the precedence graph (§3.3 write volume).
    pub(crate) fn graph_dep_tokens() -> Counter =
        ("dpr_finder_graph_dep_tokens_total", Count,
         "Dependency tokens written to the precedence graph by report_commit")
);

metric_fn!(
    /// Duration of one finder refresh pass (§3.3-3.4, Fig. 4).
    pub(crate) fn finder_refresh() -> Histogram =
        ("dpr_finder_refresh_us", Micros,
         "Duration of one DprFinder::refresh (cut recompute + persist)")
);

metric_fn!(
    /// Cut lag observed at each refresh: `Vmax` minus the slowest shard's safe
    /// version (§3.4 fast-forward pressure). A histogram rather than a gauge so
    /// the peak lag survives in the report after the cut catches up.
    pub(crate) fn cut_lag() -> Histogram =
        ("dpr_finder_cut_lag_versions", Versions,
         "Vmax minus the minimum cut version, observed at each finder refresh")
);

metric_fn!(
    /// Tokens held by the delta-closure engine's pending graph, sampled at
    /// each compute/commit. Bounded by cut lag.
    pub(crate) fn delta_pending_tokens() -> Gauge =
        ("dpr_finder_delta_pending_tokens", Count,
         "Tokens in the cut engine's pending closure graph (delta working set)")
);
