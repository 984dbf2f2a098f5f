//! # dpr — Distributed Prefix Recovery
//!
//! A from-scratch Rust reproduction of *"Asynchronous Prefix Recoverability
//! for Fast Distributed Stores"* (Li, Chandramouli, Faleiro, Madden,
//! Kossmann — SIGMOD 2021).
//!
//! DPR lets a sharded deployment of *cache-stores* (fast volatile
//! front-ends with asynchronous checkpoints) serve operations at memory
//! speed while asynchronously reporting **prefix commits** to client
//! sessions, and — on failure — restores the whole cluster to a
//! prefix-consistent cut with a non-blocking rollback.
//!
//! ## Quick start
//!
//! ```
//! use dpr::cluster::{Cluster, ClusterConfig, ClusterOp};
//! use dpr::core::{Key, Value};
//! use std::time::Duration;
//!
//! // A 2-shard D-FASTER cluster with 25 ms checkpoints.
//! let config = ClusterConfig {
//!     shards: 2,
//!     checkpoint_interval: Some(Duration::from_millis(25)),
//!     ..ClusterConfig::default()
//! };
//! let cluster = Cluster::start(config).unwrap();
//! let mut session = cluster.open_session().unwrap();
//!
//! // Operations complete immediately (uncommitted)...
//! session
//!     .execute(vec![ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(42))])
//!     .unwrap();
//!
//! // ...and commit asynchronously as the DPR cut advances.
//! session
//!     .wait_all_committed(cluster.cut_source(), Duration::from_secs(10))
//!     .unwrap();
//! assert_eq!(session.stats().committed, 1);
//! cluster.shutdown();
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`core`] | versions, world-lines, tokens, epochs, errors |
//! | [`storage`] | storage devices (null / local-SSD / cloud-SSD profiles) |
//! | [`metadata`] | the fault-tolerant metadata store (DPR table, ownership, recovery) |
//! | [`faster`] | the FASTER-style cache-store with CPR checkpoints and THROW/PURGE rollback |
//! | [`redis`] | the unmodified Redis-like store libDPR wraps |
//! | [`cassandra`] | the commit-log baseline store |
//! | [`protocol`] | libDPR: StateObject, client/server hooks, cut finders |
//! | [`cluster`] | D-FASTER / D-Redis deployments, cluster manager, client sessions |
//! | [`ycsb`] | workload generation and measurement |
//! | [`telemetry`] | metrics/span layer (see `docs/OBSERVABILITY.md`) |

#![forbid(unsafe_code)]

pub use dpr_cassandra as cassandra;
pub use dpr_core as core;
pub use dpr_faster as faster;
pub use dpr_log as shared_log;
pub use dpr_metadata as metadata;
pub use dpr_redis as redis;
pub use dpr_storage as storage;
pub use dpr_telemetry as telemetry;
pub use dpr_ycsb as ycsb;
pub use libdpr as protocol;

/// Cluster deployments (re-export of `dpr-cluster` with the common types at
/// the top level).
pub mod cluster {
    pub use dpr_cluster::*;
}
