//! Cluster-level operations and their results. How a batch of them crosses
//! a link, bus or socket, is [`crate::wire`]'s business.

use dpr_core::{Key, Value};

/// One operation as submitted by an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterOp {
    /// Point read.
    Read(Key),
    /// Blind upsert.
    Upsert(Key, Value),
    /// Read-modify-write: increment a u64 counter.
    Incr(Key),
    /// Delete.
    Delete(Key),
}

impl ClusterOp {
    /// The key this op touches (DPR assumes single-key ops, §1).
    #[must_use]
    pub fn key(&self) -> &Key {
        match self {
            ClusterOp::Read(k)
            | ClusterOp::Upsert(k, _)
            | ClusterOp::Incr(k)
            | ClusterOp::Delete(k) => k,
        }
    }
}

/// Result of one completed op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Read result.
    Value(Option<Value>),
    /// Mutation acknowledged (uncommitted — commit is reported later via the
    /// DPR cut).
    Done,
}
