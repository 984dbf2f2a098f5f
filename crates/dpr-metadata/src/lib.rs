//! # dpr-metadata
//!
//! The fault-tolerant shared metadata store that DPR deployments coordinate
//! through (§3.3, §5.3). The paper uses an Azure SQL database; this crate
//! provides [`PartitionedSqlStore`], a linearizable in-process table store
//! with injected per-statement latency, exposing exactly the state the paper
//! keeps there:
//!
//! * the **DPR table** mapping each worker to its latest persisted version —
//!   including the two statements of Fig. 4 (`UPDATE dpr SET
//!   persistedVersion = v WHERE id = x` and `SELECT min(persistedVersion)
//!   FROM dpr`) — which doubles as the source of truth for cluster
//!   membership (§5.3);
//! * the **precedence-graph table** used by the exact cut-finding algorithm;
//! * the current guaranteed **DPR cut** (updated atomically, never partially
//!   read);
//! * **world-line / recovery state** driven by the cluster manager (§4);
//! * the **ownership table** mapping virtual partitions to workers, with
//!   leases (§5.3).
//!
//! The tables sit behind one lock (see [`partitioned`]), which is what makes
//! them the serializable ACID database the paper assumes; latency is charged
//! *outside* the lock so concurrent callers model independent round trips to
//! a remote database.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
pub mod ownership;
pub mod partitioned;
pub mod recovery;
pub mod store;

pub use ownership::{OwnershipEntry, OwnershipTable, Partitioner, VirtualPartition};
pub use partitioned::PartitionedSqlStore;
pub use recovery::RecoveryState;
pub use store::{Cut, MetadataStore};
