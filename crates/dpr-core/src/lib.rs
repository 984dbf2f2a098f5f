//! # dpr-core
//!
//! Foundational types and utilities shared by every crate in the DPR
//! reproduction: version and world-line counters, checkpoint tokens,
//! epoch-based resource protection, error types, key/value types, a
//! simulation-friendly clock, and the seeded generator every random draw
//! comes from.
//!
//! The vocabulary follows the paper directly:
//!
//! * A [`Version`] is the unit of commit granularity — the aggregate state of
//!   one `Commit()` on a `StateObject` (§3.1).
//! * A [`Token`] names one committed version of one shard (`A-2` in Fig. 2).
//! * A [`WorldLine`] identifies one uninterrupted trajectory of system state
//!   evolution (§4.2); failures branch new world-lines.
//! * [`SessionId`] identifies a client session, the unit of dependency
//!   tracking.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backoff;
pub mod clock;
pub mod config;
pub mod epoch;
pub mod error;
pub mod kv;
pub mod rng;
pub mod version;

pub use backoff::Backoff;
pub use clock::{Clock, SimClock, SystemClock};
pub use config::{CheckpointMode, DprFinderMode, RecoverabilityLevel};
pub use epoch::LightEpoch;
pub use error::{DprError, Result};
pub use kv::{Key, Value};
pub use rng::Rng;
pub use version::{SessionId, ShardId, Token, Version, WorldLine};
