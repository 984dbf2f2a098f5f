//! # libdpr
//!
//! The DPR protocol library (§3, §4, §6): everything needed to add
//! *distributed prefix recovery* to a sharded deployment of cache-stores,
//! independent of the store implementation.
//!
//! * [`StateObject`] — the paper's shard abstraction: `Op()` executes
//!   uncommitted, `Commit()` seals a version asynchronously, `Restore()`
//!   returns to a committed version (§3).
//! * [`DprClientSession`] — client-side session tracking: the Lamport-style
//!   version clock `Vs` that guarantees finder progress (§3.2), dependency
//!   headers for the exact finder, world-line tracking (§4.2), and committed
//!   prefix computation against the current DPR cut.
//! * [`DprServer`] — server-side batch gate: world-line validation, version
//!   lower-bound enforcement (triggering commits when a client is ahead),
//!   and dependency accumulation per version (§6).
//! * [`finder`] — the DPR-cut finding algorithms of §3.3–3.4 (Fig. 4):
//!   exact (durable precedence graph + maximal transitive closure),
//!   approximate (min persisted version with `Vmax` fast-forward), and the
//!   hybrid of both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod client;
pub mod finder;
pub mod header;
mod metrics;
pub mod server;
pub mod state_object;

pub use client::{DprClientSession, SessionStatus};
pub use dpr_metadata::Cut;
pub use finder::{ApproximateFinder, CutEngine, DprFinder, ExactFinder, HybridFinder};
pub use header::{BatchHeader, BatchReply};
pub use server::{BatchDisposition, DprServer, GateGuard};
pub use state_object::{CommitDescriptor, StateObject};
