//! The metric registry and its two render targets (human table,
//! Prometheus-style exposition text).

use crate::metric::{Counter, Gauge, Histogram};
use crate::span::{SpanEvent, SpanRing};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Unit of a metric's value, shown in reports and appended (by convention)
/// to metric names as `_us`, `_bytes`, etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless count of events or things.
    Count,
    /// Microseconds (the workspace's standard latency unit).
    Micros,
    /// Bytes.
    Bytes,
    /// DPR versions (e.g. cut lag `Vmax - Vsafe`).
    Versions,
    /// Operations.
    Ops,
}

impl Unit {
    fn label(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Micros => "us",
            Unit::Bytes => "bytes",
            Unit::Versions => "versions",
            Unit::Ops => "ops",
        }
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    name: &'static str,
    unit: Unit,
    help: &'static str,
    metric: Metric,
}

/// Holds every registered metric plus the span ring; renders reports.
///
/// Normally used through the process-global instance ([`crate::global`]).
/// Registration takes a lock; it happens once per metric per process
/// because call sites cache the returned `&'static` handle (see
/// [`crate::metric_fn!`]).
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
    spans: SpanRing,
}

impl MetricsRegistry {
    /// An empty registry (tests; production code uses [`crate::global`]).
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            entries: Mutex::new(Vec::new()),
            spans: SpanRing::new(),
        }
    }

    fn register<T>(
        &self,
        name: &'static str,
        unit: Unit,
        help: &'static str,
        make: impl FnOnce() -> &'static T,
        as_metric: impl FnOnce(&'static T) -> Metric,
        reuse: impl Fn(&Metric) -> Option<&'static T>,
    ) -> &'static T {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = entries.iter().find(|e| e.name == name) {
            return reuse(&existing.metric).unwrap_or_else(|| {
                panic!("metric `{name}` already registered with a different type")
            });
        }
        let handle = make();
        entries.push(Entry {
            name,
            unit,
            help,
            metric: as_metric(handle),
        });
        handle
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &'static str, unit: Unit, help: &'static str) -> &'static Counter {
        self.register(
            name,
            unit,
            help,
            || Box::leak(Box::new(Counter::new())),
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c),
                _ => None,
            },
        )
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &'static str, unit: Unit, help: &'static str) -> &'static Gauge {
        self.register(
            name,
            unit,
            help,
            || Box::leak(Box::new(Gauge::new())),
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g),
                _ => None,
            },
        )
    }

    /// Register (or look up) a histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        unit: Unit,
        help: &'static str,
    ) -> &'static Histogram {
        self.register(
            name,
            unit,
            help,
            || Box::leak(Box::new(Histogram::new())),
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h),
                _ => None,
            },
        )
    }

    /// Record a protocol event into the span ring (no-op while telemetry
    /// is disabled; see [`crate::set_enabled`]).
    pub fn span(&self, target: &'static str, name: &'static str, detail: impl FnOnce() -> String) {
        if crate::enabled() {
            self.spans.push(target, name, detail());
        }
    }

    /// Copy of the span ring, oldest first.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.spans.drain_copy()
    }

    /// Copy of the span events with `seq >= from_seq`, oldest first.
    ///
    /// This is the incremental-consumption API for online observers (e.g.
    /// the chaos invariant checker): keep `last.seq + 1` as a cursor and
    /// pass it back on the next poll. Unlike [`MetricsRegistry::spans`]
    /// this stays cheap when the ring is full but little is new. If the
    /// first returned event's `seq` is above the cursor, the ring evicted
    /// events before the consumer read them.
    #[must_use]
    pub fn spans_since(&self, from_seq: u64) -> Vec<SpanEvent> {
        self.spans.drain_since(from_seq)
    }

    /// Clear the span ring (tests isolate themselves with this).
    pub fn clear_spans(&self) {
        self.spans.clear();
    }

    /// Render a fixed-width human-readable table of every metric, followed
    /// by the recorded protocol events.
    #[must_use]
    pub fn render_table(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>10} {:>10} {:>10} {:>12}  unit",
            "metric", "p50/value", "p95", "p99", "max", "count"
        );
        let _ = writeln!(out, "{}", "-".repeat(110));
        for e in entries.iter() {
            let columns = match &e.metric {
                Metric::Counter(c) => vec![c.get().to_string()],
                Metric::Gauge(g) => vec![g.get().to_string()],
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let columns = [s.p50(), s.p95(), s.p99(), s.max(), s.count];
                    columns.map(|v| v.to_string()).to_vec()
                }
            };
            let column = |i: usize| columns.get(i).map_or("-", String::as_str);
            let _ = writeln!(
                out,
                "{:<44} {:>10} {:>10} {:>10} {:>10} {:>12}  {}",
                e.name,
                column(0),
                column(1),
                column(2),
                column(3),
                column(4),
                e.unit.label()
            );
        }
        let spans = self.spans.drain_copy();
        if !spans.is_empty() {
            let _ = writeln!(out, "\nprotocol events ({} recorded):", spans.len());
            for s in spans {
                let _ = writeln!(out, "{s}");
            }
        }
        out
    }

    /// Render Prometheus-style exposition text: `# HELP`/`# TYPE` headers,
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le="…"}` series (the occupied buckets only) plus `_sum` and
    /// `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for e in entries.iter() {
            let _ = writeln!(out, "# HELP {} {} ({})", e.name, e.help, e.unit.label());
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {} counter", e.name);
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    let _ = writeln!(out, "{} {}", e.name, g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", e.name);
                    let s = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, &n) in s.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            e.name,
                            crate::Histogram::bucket_upper_bound(i),
                            cumulative
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, s.count);
                    let _ = writeln!(out, "{}_sum {}", e.name, s.sum);
                    let _ = writeln!(out, "{}_count {}", e.name, s.count);
                }
            }
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedups_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", Unit::Count, "a");
        let b = r.counter("x_total", Unit::Count, "a");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn registration_rejects_type_change() {
        let r = MetricsRegistry::new();
        r.counter("y_total", Unit::Count, "a");
        r.gauge("y_total", Unit::Count, "a");
    }

    #[test]
    fn table_lists_all_kinds() {
        let r = MetricsRegistry::new();
        r.counter("ops_total", Unit::Count, "ops").add(3);
        r.gauge("depth", Unit::Count, "queue depth").set(7);
        r.histogram("lat_us", Unit::Micros, "latency").record(100);
        let table = r.render_table();
        assert!(table.contains("ops_total"));
        assert!(table.contains("depth"));
        assert!(table.contains("lat_us"));
        assert!(table.contains(" 3 "));
        assert!(table.contains(" 7 "));
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t_us", Unit::Micros, "t");
        h.record(1); // bucket 1, le=1
        h.record(3); // bucket 2, le=3
        h.record(3);
        let text = r.render_prometheus();
        assert!(text.contains("t_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("t_us_bucket{le=\"3\"} 3"));
        assert!(!text.contains("le=\"2\""), "an empty bucket is left out");
        assert!(text.contains("t_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("t_us_sum 7"));
        assert!(text.contains("t_us_count 3"));
        assert!(text.contains("# TYPE t_us histogram"));
    }
}
