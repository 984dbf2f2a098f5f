//! Wire headers piggybacked on client batches (§3.2, §6).
//!
//! DPR adds no coordination traffic of its own: the version clock and
//! dependency information ride on the messages clients were already sending,
//! and the reply carries back what the client needs to track commit status.

use dpr_core::{SessionId, Token, Version, WorldLine};

/// Header attached to every request batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchHeader {
    /// Issuing session.
    pub session: SessionId,
    /// World-line the session believes it is on (§4.2).
    pub world_line: WorldLine,
    /// The session's version clock `Vs`: the largest version it has
    /// observed. The shard must execute this batch in a version `>= Vs`
    /// (§3.2's progress guarantee).
    pub version_lower_bound: Version,
    /// Latest version of every *other* shard this session has operated on —
    /// the dependency-by-precedence edges for the exact finder (§3.3).
    pub deps: Vec<Token>,
    /// Serial number of the first operation in the batch.
    pub first_serial: u64,
    /// The acknowledgement: the session's lowest unanswered serial. The
    /// client has an answer for every batch that ends at or below it and
    /// asks for none of them again, so a shard may forget their replies.
    /// Never above `first_serial`: the batch that carries it is unanswered.
    pub acked_below: u64,
    /// Number of operations in the batch.
    pub op_count: u32,
}

/// Header attached to every reply batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply {
    /// Replying shard.
    pub shard: dpr_core::ShardId,
    /// World-line the shard is on; a value greater than the client's tells
    /// the client a failure happened.
    pub world_line: WorldLine,
    /// Version every operation in the batch executed in. (Batches execute
    /// under one shared latch in D-Redis; D-FASTER reports the max op
    /// version — both are safe upper bounds for dependency tracking.)
    pub version: Version,
    /// Serial number of the first op covered by this reply.
    pub first_serial: u64,
    /// Number of ops covered.
    pub op_count: u32,
}
