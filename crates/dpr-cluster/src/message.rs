//! Cluster-level operations and wire messages.

use dpr_core::{Key, Result, Value};
use libdpr::{BatchHeader, BatchReply};

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

/// A request batch in flight from a client to a worker.
#[derive(Debug)]
pub struct RequestMsg {
    /// Where to send the response.
    pub reply_to: crate::transport::EndpointId,
    /// DPR header (piggybacked protocol state).
    pub header: BatchHeader,
    /// Operation bodies.
    pub ops: Vec<ClusterOp>,
}

/// A response batch.
#[derive(Debug)]
pub struct ResponseMsg {
    /// Session the batch belonged to (echoed for proxy routing).
    pub session: Option<dpr_core::SessionId>,
    /// Serial of the first op this responds to (echoed even on error so the
    /// client can account for the batch).
    pub first_serial: u64,
    /// Number of ops covered.
    pub op_count: u32,
    /// The reply header and results, or the rejection error.
    pub outcome: Result<(BatchReply, Vec<OpResult>)>,
}

/// Any message on the bus.
#[derive(Debug)]
pub enum Message {
    /// Client → worker.
    Request(RequestMsg),
    /// Worker → client.
    Response(ResponseMsg),
}
