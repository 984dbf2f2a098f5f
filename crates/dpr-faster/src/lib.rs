//! # dpr-faster
//!
//! A from-scratch, FASTER-style concurrent key-value cache-store — the
//! `StateObject` implementation D-FASTER builds on (§5).
//!
//! Architecture, following the paper and the FASTER/CPR lineage it cites:
//!
//! * a lock-free **hash index** that grows with the keyspace, mapping the
//!   upper bits of a key's hash to the head of a chain of records
//!   ([`index`]);
//! * a **HybridLog** of records identified by monotonically increasing
//!   logical addresses, spanning a mutable in-memory region (in-place
//!   updates), a read-only in-memory region (read-copy-update), and stable
//!   storage ([`log`]);
//! * **sessions** — sequential logical threads of execution with serial
//!   numbers and relaxed-CPR `PENDING` operations (§5.4) ([`session`]);
//! * a **CPR checkpoint state machine** (`REST → PREPARE → IN_PROGRESS →
//!   WAIT_FLUSH → REST`) providing non-blocking fold-over checkpoints, and
//!   the **rollback state machine** (`REST → THROW → PURGE → REST`) of §5.5
//!   providing non-blocking `Restore()` ([`state`], [`store`]);
//! * **crash recovery** from a checkpoint manifest + the durable log prefix
//!   ([`checkpoint`]).
//!
//! The store exposes exactly the paper's `StateObject` API surface: `Op()`
//! (read/upsert/RMW/delete returning *uncommitted* results), `Commit()`
//! (request a checkpoint; completed checkpoints carry a commit descriptor
//! per session), and `Restore()` (non-blocking rollback of live state, or
//! crash-restart recovery).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod index;
pub mod log;
mod metrics;
pub mod record;
pub mod session;
pub mod state;
pub mod store;

pub use checkpoint::{CheckpointManifest, CommitPoint};
pub use log::{EvictionTotals, GetOutcome, RecordLog, MAX_RECORD_LEN, PAGE_SIZE};
pub use record::{Record, RecordMeta, RecordView, NONE_ADDRESS};
pub use session::{Op, OpOutcome, PendingToken, Session};
pub use state::{Phase, SystemState};
pub use store::{CheckpointInfo, CompactionTotals, FasterConfig, FasterKv};
