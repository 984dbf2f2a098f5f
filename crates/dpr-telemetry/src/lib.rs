//! Cluster-wide telemetry for the DPR workspace: counters, gauges,
//! log-linear histograms, and a protocol-event span ring, all dependency-free.
//!
//! # Design
//!
//! The paper's central claim is that DPR adds recoverability *off* the
//! critical path (§1, §6): operations complete at memory speed and commit
//! later, when the DPR cut advances. Verifying that claim requires
//! observing the system without perturbing it, so this crate is built
//! around three rules:
//!
//! 1. **Hot-path updates are single relaxed atomic RMWs.** A
//!    [`Counter::inc`] or [`Histogram::record`] is a handful of
//!    `fetch_add(…, Relaxed)` instructions — no locks, no allocation, no
//!    fences that would serialize the shard pipelines being measured.
//! 2. **Anything that needs a clock or an allocation is gated.** Timers
//!    ([`Histogram::start_timer`]) and span recording
//!    ([`MetricsRegistry::span`]) check a process-global enabled flag
//!    first and cost one relaxed load when telemetry is off (the default).
//! 3. **Metric handles are `&'static`.** Registration leaks the metric
//!    into the registry once; call sites cache the reference in a
//!    `OnceLock`, so steady-state access never touches the registry lock.
//!
//! Unlike the rest of the workspace, which panics on a poisoned lock, this
//! crate takes the guard, so a metric or a span never turns a panic
//! elsewhere into a second one.
//!
//! # Usage
//!
//! ```
//! use dpr_telemetry as telemetry;
//! use std::sync::OnceLock;
//!
//! fn batches_total() -> &'static telemetry::Counter {
//!     static C: OnceLock<&'static telemetry::Counter> = OnceLock::new();
//!     C.get_or_init(|| {
//!         telemetry::global().counter(
//!             "example_batches_total",
//!             telemetry::Unit::Count,
//!             "Batches processed by the example",
//!         )
//!     })
//! }
//!
//! telemetry::set_enabled(true);
//! batches_total().inc();
//! let report = telemetry::global().render_table();
//! assert!(report.contains("example_batches_total"));
//! ```
//!
//! The full catalog of metrics the workspace registers, with units and
//! paper cross-references, lives in `docs/OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod metric;
mod registry;
mod span;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, Timer, HISTOGRAM_BUCKETS};
pub use registry::{MetricsRegistry, Unit};
pub use span::{SpanEvent, SPAN_RING_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn clock-based telemetry (timers and spans) on or off process-wide.
///
/// Counter/gauge/histogram *updates* are always live — they are cheap
/// enough to leave on. What this flag gates is everything that must call
/// `Instant::now()` or allocate: [`Histogram::start_timer`] returns an
/// inert guard and [`MetricsRegistry::span`] is a no-op while disabled.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
    if enabled {
        // Pin the epoch so span timestamps are meaningful.
        let _ = epoch();
    }
}

/// Whether clock-based telemetry is currently on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide metrics registry.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Process telemetry epoch; span timestamps count microseconds from here.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Define a lazily-registered `&'static` metric accessor.
///
/// Expands to a function returning a cached handle, so the registry lock
/// is taken once per call site:
///
/// ```
/// dpr_telemetry::metric_fn!(
///     /// Batches the demo processed.
///     fn demo_batches() -> Counter = ("demo_batches_total", Count, "Batches processed")
/// );
/// demo_batches().inc();
/// ```
#[macro_export]
macro_rules! metric_fn {
    ($(#[$meta:meta])* $vis:vis fn $fn_name:ident() -> Counter = ($name:expr, $unit:ident, $help:expr)) => {
        $crate::metric_fn!(@impl $(#[$meta])* $vis $fn_name, counter, $crate::Counter, $name, $unit, $help);
    };
    ($(#[$meta:meta])* $vis:vis fn $fn_name:ident() -> Gauge = ($name:expr, $unit:ident, $help:expr)) => {
        $crate::metric_fn!(@impl $(#[$meta])* $vis $fn_name, gauge, $crate::Gauge, $name, $unit, $help);
    };
    ($(#[$meta:meta])* $vis:vis fn $fn_name:ident() -> Histogram = ($name:expr, $unit:ident, $help:expr)) => {
        $crate::metric_fn!(@impl $(#[$meta])* $vis $fn_name, histogram, $crate::Histogram, $name, $unit, $help);
    };
    (@impl $(#[$meta:meta])* $vis:vis $fn_name:ident, $method:ident, $ty:ty, $name:expr, $unit:ident, $help:expr) => {
        $(#[$meta])*
        $vis fn $fn_name() -> &'static $ty {
            static HANDLE: ::std::sync::OnceLock<&'static $ty> = ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| {
                $crate::global().$method($name, $crate::Unit::$unit, $help)
            })
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn metric_fn_macro_registers_once() {
        metric_fn!(
            /// Test counter.
            fn test_counter() -> Counter = ("lib_test_counter_total", Count, "macro smoke")
        );
        let a = test_counter() as *const Counter;
        let b = test_counter() as *const Counter;
        assert_eq!(a, b, "macro must cache the handle");
        test_counter().inc();
        assert!(test_counter().get() >= 1);
    }
}
