//! # dpr-redis
//!
//! A deliberately simple, single-threaded, Redis-like cache-store — the
//! *unmodified* system that libDPR wraps to build D-Redis (§6).
//!
//! Fidelity points that matter for the paper:
//!
//! * single-threaded command execution (the D-Redis server wrapper relies on
//!   this: one exclusive latch around `BGSAVE`, shared latches around
//!   batches);
//! * `BGSAVE` starts an asynchronous snapshot (Redis forks; we clone the map
//!   copy-on-write-style and serialize on a background thread) and
//!   `LASTSAVE` reports the last *completed* save — the wrapper polls it to
//!   learn when a `Commit()` finished (§6);
//! * optional append-only-file persistence with `always` / `everysec`
//!   fsync policies, used for the synchronous / eventual recoverability
//!   baselines of §7.6;
//! * `Restore()` is implemented by restarting the instance from a snapshot
//!   (§6: "Restore() is implemented by restarting the Redis instance").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod snapshot;
pub mod store;

pub use command::{Command, Reply};
pub use snapshot::Snapshot;
pub use store::{AofPolicy, RedisConfig, RedisStore, SaveId};
