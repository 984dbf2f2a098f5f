//! The global system state shared by the checkpoint and rollback state
//! machines.
//!
//! FASTER threads "loosely coordinate to step through a series of global
//! transitions" (§5.5): the store keeps one packed [`SystemState`] word, and
//! every session keeps its last observed copy. Transitions fire only when
//! all sessions have observed the current state (or are idle and can be
//! advanced on their behalf), which is what makes checkpoints and rollbacks
//! non-blocking.

use dpr_core::Version;
use std::sync::atomic::{AtomicU64, Ordering};

/// Phases of the unified state machine.
///
/// `Rest → Prepare → InProgress → WaitFlush → Rest` is the CPR checkpoint
/// machine; `Rest → Throw → Purge → Rest` is the rollback machine of §5.5
/// (Fig. 8). At most one machine runs at a time, which is also what
/// "prevents concurrent checkpoints from occurring" during rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Normal operation.
    Rest = 0,
    /// Checkpoint requested; threads acknowledge while still in version `v`.
    Prepare = 1,
    /// Threads move to `v+1`; in-place updates of `v` records stop.
    InProgress = 2,
    /// The `v` prefix is sealed and being flushed.
    WaitFlush = 3,
    /// Rollback requested; threads move to `v+1` and readers start ignoring
    /// the lost version range.
    Throw = 4,
    /// Lost entries are being marked invalid in the log.
    Purge = 5,
}

impl Phase {
    /// Whether leaving this phase waits for every session to have observed
    /// it between two of its operations (`FasterKv::all_sessions_at`).
    pub(crate) fn waits_for_sessions(self) -> bool {
        matches!(self, Phase::Prepare | Phase::InProgress | Phase::Throw)
    }

    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Rest,
            1 => Phase::Prepare,
            2 => Phase::InProgress,
            3 => Phase::WaitFlush,
            4 => Phase::Throw,
            5 => Phase::Purge,
            _ => unreachable!("bad phase {v}"),
        }
    }
}

/// One observable state of the store: the phase plus the version operations
/// execute in while the store is in this state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemState {
    /// Current phase.
    pub phase: Phase,
    /// Version assigned to operations executed under this state.
    pub version: Version,
}

impl SystemState {
    /// Initial state: REST in version 1.
    #[must_use]
    pub fn initial() -> SystemState {
        SystemState {
            phase: Phase::Rest,
            version: Version::FIRST,
        }
    }

    /// Pack into a single word (phase in the top byte).
    #[must_use]
    pub fn pack(self) -> u64 {
        ((self.phase as u64) << 56) | (self.version.0 & ((1 << 56) - 1))
    }

    /// Unpack from a word.
    #[must_use]
    pub fn unpack(w: u64) -> SystemState {
        SystemState {
            phase: Phase::from_u8((w >> 56) as u8),
            version: Version(w & ((1 << 56) - 1)),
        }
    }
}

/// Atomic cell holding the global [`SystemState`].
#[derive(Debug)]
pub struct GlobalState(AtomicU64);

impl GlobalState {
    /// New cell at the initial state.
    #[must_use]
    pub fn new() -> Self {
        GlobalState(AtomicU64::new(SystemState::initial().pack()))
    }

    /// Load the current state.
    #[must_use]
    pub fn load(&self) -> SystemState {
        SystemState::unpack(self.0.load(Ordering::Acquire))
    }

    /// Store a new state.
    pub fn store(&self, s: SystemState) {
        self.0.store(s.pack(), Ordering::Release);
    }
}

impl Default for GlobalState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trip_all_phases() {
        for phase in [
            Phase::Rest,
            Phase::Prepare,
            Phase::InProgress,
            Phase::WaitFlush,
            Phase::Throw,
            Phase::Purge,
        ] {
            let s = SystemState {
                phase,
                version: Version(123_456_789),
            };
            assert_eq!(SystemState::unpack(s.pack()), s);
        }
    }

    #[test]
    fn initial_state_is_rest_v1() {
        let g = GlobalState::new();
        let s = g.load();
        assert_eq!(s.phase, Phase::Rest);
        assert_eq!(s.version, Version(1));
    }

    #[test]
    fn store_load_round_trip() {
        let g = GlobalState::new();
        let s = SystemState {
            phase: Phase::Throw,
            version: Version(9),
        };
        g.store(s);
        assert_eq!(g.load(), s);
    }
}
