//! # dpr-cluster
//!
//! In-process distributed deployments of DPR: **D-FASTER** (§5) and
//! **D-Redis** (§6), plus the cluster manager (§4.1) and the client stack.
//!
//! The cluster is a set of shard *workers*, each owning a slice of the
//! keyspace (virtual partitions, §5.3), executing client batches against its
//! local cache-store, and running the libDPR server hooks. Workers
//! coordinate only through the shared metadata store (DPR table, ownership,
//! membership, recovery state) and the client-piggybacked headers — no
//! worker-to-worker traffic, as in the paper.
//!
//! One protocol path runs over two links: the [`wire`] codec (specified
//! byte-by-byte in `docs/NETWORK.md`), the worker's request path and the
//! client's session core are shared, and only how frames move differs — the
//! in-process message bus with configurable one-way latency ([`transport`],
//! for simulation and chaos testing; [`SessionHandle`]) or real sockets
//! ([`net`] server, [`tcp`] client).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
mod dedupe;
pub mod dfaster;
pub mod dredis;
pub mod manager;
pub mod message;
mod metrics;
pub mod net;
pub mod proxy;
mod session;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use client::{SessionHandle, SessionStats};
pub use cluster::{Cluster, ClusterConfig, ClusterKind};
pub use dfaster::FasterShard;
pub use dredis::RedisShard;
pub use manager::ClusterManager;
pub use message::{ClusterOp, OpResult};
pub use net::{NetServer, NetServerConfig};
pub use session::{CompletedRef, PipelinedClient};
pub use transport::{BusFrame, BusInbox, EndpointId, LinkFault, SimNetwork};
pub use worker::{ShardStore, VersionSpan, Worker};
