//! A bounded ring of protocol events ("spans").
//!
//! DPR's interesting state transitions — CPR phase changes, rollback
//! THROW/PURGE, recovery start/finish, world-line bumps — happen at
//! per-checkpoint frequency (tens of hertz at most), not per-operation, so
//! a mutex-protected ring is plenty and keeps the implementation
//! dependency-free. Per-operation paths must use counters and histograms
//! instead; [`crate::MetricsRegistry::span`] is deliberately gated on the
//! global enabled flag.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Capacity of the span ring; the oldest events are dropped beyond this.
pub const SPAN_RING_CAPACITY: usize = 4096;

/// One recorded protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Microseconds since the telemetry epoch (first [`crate::set_enabled`]).
    pub at_micros: u64,
    /// Component that emitted the event (e.g. `"dpr-faster"`).
    pub target: &'static str,
    /// Event name (e.g. `"phase"`, `"recovery_begin"`).
    pub name: &'static str,
    /// Free-form detail, e.g. `"Prepare -> InProgress (v3)"`.
    pub detail: String,
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6}s] {:<12} {:<18} {}",
            self.at_micros as f64 / 1e6,
            self.target,
            self.name,
            self.detail
        )
    }
}

pub(crate) struct SpanRing {
    events: Mutex<VecDeque<SpanEvent>>,
}

impl SpanRing {
    pub(crate) fn new() -> SpanRing {
        SpanRing {
            events: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn push(&self, target: &'static str, name: &'static str, detail: String) {
        let at_micros = crate::epoch()
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() == SPAN_RING_CAPACITY {
            events.pop_front();
        }
        events.push_back(SpanEvent {
            at_micros,
            target,
            name,
            detail,
        });
    }

    /// Copy out all events, oldest first (does not clear).
    pub(crate) fn drain_copy(&self) -> Vec<SpanEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    pub(crate) fn clear(&self) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let ring = SpanRing::new();
        for i in 0..(SPAN_RING_CAPACITY + 10) {
            ring.push("test", "evt", format!("{i}"));
        }
        let events = ring.drain_copy();
        assert_eq!(events.len(), SPAN_RING_CAPACITY);
        assert_eq!(events[0].detail, "10", "oldest ten dropped");
        ring.clear();
        assert!(ring.drain_copy().is_empty());
    }

    #[test]
    fn display_is_readable() {
        let e = SpanEvent {
            at_micros: 1_500_000,
            target: "dpr-faster",
            name: "phase",
            detail: "Rest -> Prepare (v2)".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("dpr-faster") && s.contains("Rest -> Prepare (v2)"));
    }
}
