//! Unified error type for the workspace.

use crate::version::{ShardId, Version, WorldLine};
use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, DprError>;

/// Errors surfaced by DPR components.
///
/// The interesting variants are the protocol-level ones: a
/// [`DprError::WorldLineMismatch`] is how a shard tells a client that a
/// failure happened and the client must compute its surviving prefix (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DprError {
    /// The request's world-line does not match the shard's.
    ///
    /// If the shard's world-line is *larger*, the client is behind a failure
    /// it has not yet observed and must recover its session. If smaller, the
    /// shard itself has not finished recovering and the request should be
    /// retried after recovery.
    WorldLineMismatch {
        /// World-line the request was issued on.
        requested: WorldLine,
        /// World-line the shard is currently on.
        current: WorldLine,
    },
    /// The shard addressed does not own the requested key.
    NotOwner {
        /// Shard that rejected the request.
        shard: ShardId,
    },
    /// A restore was requested for a version the shard has no checkpoint for.
    NoSuchCheckpoint {
        /// Shard addressed.
        shard: ShardId,
        /// Version requested.
        version: Version,
    },
    /// The shard is mid-recovery and cannot serve the request yet.
    Recovering,
    /// The component has been shut down.
    Closed,
    /// Underlying storage failure.
    Storage(String),
    /// Metadata-store failure.
    Metadata(String),
    /// Invalid argument or state transition.
    Invalid(String),
    /// Operation timed out waiting for a condition (e.g. commit wait).
    Timeout,
}

impl fmt::Display for DprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DprError::WorldLineMismatch { requested, current } => write!(
                f,
                "world-line mismatch: request on {requested}, shard on {current}"
            ),
            DprError::NotOwner { shard } => write!(f, "{shard} does not own the requested key"),
            DprError::NoSuchCheckpoint { shard, version } => {
                write!(f, "{shard} has no checkpoint for {version}")
            }
            DprError::Recovering => write!(f, "shard is recovering"),
            DprError::Closed => write!(f, "component closed"),
            DprError::Storage(m) => write!(f, "storage error: {m}"),
            DprError::Metadata(m) => write!(f, "metadata error: {m}"),
            DprError::Invalid(m) => write!(f, "invalid: {m}"),
            DprError::Timeout => write!(f, "timed out"),
        }
    }
}

impl std::error::Error for DprError {}

impl From<std::io::Error> for DprError {
    fn from(e: std::io::Error) -> Self {
        DprError::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DprError::WorldLineMismatch {
            requested: WorldLine(1),
            current: WorldLine(2),
        };
        let s = e.to_string();
        assert!(s.contains("wl1") && s.contains("wl2"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("disk gone");
        let e: DprError = io.into();
        assert!(matches!(e, DprError::Storage(_)));
    }
}
