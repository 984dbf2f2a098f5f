//! # dpr-storage
//!
//! Storage-device abstractions for the DPR reproduction.
//!
//! The paper's evaluation (§7.2) runs each cache-store shard against three
//! backends — a *null* device that completes instantly, a *local SSD*, and a
//! replicated *cloud SSD* whose checkpoints take 2–3× longer. This crate
//! provides:
//!
//! * [`LogDevice`] — an append-only logical address space with an explicit
//!   durable frontier, used by the HybridLog and the Cassandra-like commit
//!   log. In memory ([`MemLogDevice`]: tests, probes and a D-Redis shard's
//!   AOF) and in unlinked segment files ([`FileLogDevice`]: the log of a
//!   D-FASTER cluster shard).
//! * [`BlobStore`] — named atomic blobs, used for checkpoint manifests and
//!   Redis-style snapshots.
//! * [`LatencyModel`] — injects calibrated write/flush latency so the
//!   in-memory devices behave like their physical counterparts. This is the
//!   substitution documented in DESIGN.md for hardware we do not have.
//!
//! Crash simulation: in-memory devices expose [`MemLogDevice::crash`], which
//! discards everything beyond the durable frontier — exactly what power loss
//! does to a buffered device.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blob;
pub mod device;
pub mod file;
pub mod latency;
pub mod memory;

pub use blob::{BlobStore, MemBlobStore};
pub use device::{read_exact, LogDevice};
pub use file::FileLogDevice;
pub use latency::{LatencyModel, StorageProfile};
pub use memory::MemLogDevice;
