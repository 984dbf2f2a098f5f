//! # dpr-bench
//!
//! The harness that regenerates the paper's evaluation (§7). One binary,
//! `figures`, holds every figure and ablation as a table of points and runs
//! them through [`harness`]; `chaos` runs the fault campaign and
//! `allocstacks` attributes allocations to the stacks that made them. What
//! a layer costs is timed by the benchmark's seeded layer probes
//! (`benchmark/`), not here.
//!
//! Absolute numbers are laptop-scale (the paper used 8×16-vCPU VMs); what
//! the harness preserves is the *shape* of each result — who wins, by what
//! factor, and where crossovers fall. See EXPERIMENTS.md for the
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod util;

/// Guard returned by [`metrics_dump`]; prints the telemetry report when the
/// benchmark exits (on drop).
pub struct MetricsDump {
    prometheus: bool,
}

impl Drop for MetricsDump {
    fn drop(&mut self) {
        let registry = dpr_telemetry::global();
        // To stderr: stdout carries only result rows, so it can be
        // redirected into `figures_output.txt` with the report on.
        eprintln!("\n== telemetry ==");
        if self.prometheus {
            eprint!("{}", registry.render_prometheus());
        } else {
            eprint!("{}", registry.render_table());
        }
    }
}

/// The `figures --metrics[=prometheus]` hook.
///
/// Turns telemetry on ([`dpr_telemetry::set_enabled`]) and returns a guard
/// that prints the full metric table — commit latency, checkpoint phase
/// timings, cut lag, and the protocol-event log — to stderr when dropped,
/// in the Prometheus exposition format when `prometheus` is set. See
/// `docs/OBSERVABILITY.md` for the metric catalog and a worked example.
#[must_use]
pub fn metrics_dump(prometheus: bool) -> MetricsDump {
    dpr_telemetry::set_enabled(true);
    MetricsDump { prometheus }
}
