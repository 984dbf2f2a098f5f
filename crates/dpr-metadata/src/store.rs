//! The metadata-store interface: the [`MetadataStore`] trait and the [`Cut`]
//! type. [`PartitionedSqlStore`](crate::PartitionedSqlStore) implements it.

use crate::recovery::RecoveryState;
use dpr_core::{Result, ShardId, Token, Version, WorldLine};
use std::collections::BTreeMap;

/// A DPR cut: one committed version per shard (Definition 3.1).
///
/// The tokens of the cut are `(shard, version)` pairs; restoring every shard
/// to its entry yields a prefix-consistent state for every client session.
pub type Cut = BTreeMap<ShardId, Version>;

/// The metadata operations DPR needs from its fault-tolerant store.
///
/// Mirrors Fig. 4: the *DPR table* (worker → persisted version, which also
/// acts as cluster membership per §5.3), the durable *precedence graph* for
/// the exact algorithm, the atomically updated *cut*, and the recovery /
/// world-line state the cluster manager drives.
pub trait MetadataStore: Send + Sync {
    // ---- DPR table / membership -------------------------------------------------

    /// Add a worker row (version 0). Adding a worker is "adding a row in the
    /// DPR table" (§5.3).
    fn register_worker(&self, shard: ShardId) -> Result<()>;

    /// Drop a worker row (the worker must have migrated its keys away).
    fn remove_worker(&self, shard: ShardId) -> Result<()>;

    /// Current membership.
    fn members(&self) -> Result<Vec<ShardId>>;

    /// `UPDATE dpr SET persistedVersion = v WHERE id = shard`: a group of
    /// one row.
    fn update_persisted_version(&self, shard: ShardId, version: Version) -> Result<()> {
        self.update_persisted_versions(&[(shard, version)])
    }

    /// Raise the persisted version of every `(shard, version)` row in
    /// **one** statement (one simulated round trip) instead of one per row —
    /// the §6/§3.4 metadata-write bottleneck fix. Transactional: if any shard
    /// is unregistered, no row is applied.
    fn update_persisted_versions(&self, updates: &[(ShardId, Version)]) -> Result<()>;

    /// `SELECT min(persistedVersion) FROM dpr` — `None` when the table is
    /// empty.
    fn min_persisted_version(&self) -> Result<Option<Version>>;

    /// `SELECT max(persistedVersion) FROM dpr` — the `Vmax` used for
    /// fast-forwarding lagging shards (§3.4).
    fn max_persisted_version(&self) -> Result<Option<Version>>;

    /// Full DPR-table snapshot.
    fn persisted_versions(&self) -> Result<Cut>;

    // ---- precedence graph (exact algorithm) -------------------------------------

    /// Persist a committed version and its dependency edges: a group of one.
    fn add_graph_version(&self, token: Token, deps: Vec<Token>) -> Result<()> {
        self.add_graph_versions(vec![(token, deps)])
    }

    /// Persist committed versions and their dependency edges, every vertex
    /// in one statement.
    fn add_graph_versions(&self, entries: Vec<(Token, Vec<Token>)>) -> Result<()>;

    /// Snapshot of the persisted precedence graph.
    fn graph_snapshot(&self) -> Result<Vec<(Token, Vec<Token>)>>;

    /// Garbage-collect graph vertices at or below the given cut.
    fn prune_graph_below(&self, cut: &Cut) -> Result<()>;

    // ---- guaranteed cut ----------------------------------------------------------

    /// Atomically replace the guaranteed cut ("UpdateCutAtomically", Fig. 4).
    /// Rejected while recovery is in progress (§4.1 halts DPR progress).
    /// Returns the world-line it published on and the cut as it now stands,
    /// so a publisher knows what it wrote without reading it back.
    fn update_cut_atomically(&self, cut: Cut) -> Result<(WorldLine, Cut)>;

    /// Read the guaranteed cut (never partially updated).
    fn read_cut(&self) -> Result<Cut>;

    /// Telemetry-only read of the DPR frontier: `(Vmax, published cut)` in
    /// one call, **exempt from statement accounting and injected latency**.
    ///
    /// The `statements/version` metric is the headline protocol-cost number
    /// (§6); observability reads that merely *watch* the protocol must not
    /// inflate it.
    fn telemetry_frontier(&self) -> Result<(Option<Version>, Cut)>;

    // ---- world-line / recovery ----------------------------------------------------

    /// The cluster's current world-line.
    fn world_line(&self) -> Result<WorldLine>;

    /// Begin recovery: bump the world-line, freeze DPR progress, and record
    /// that every current member must roll back to the guaranteed cut.
    /// Nested failures re-enter recovery with a further-bumped world-line
    /// (§7.4 exercises exactly this).
    fn begin_recovery(&self) -> Result<RecoveryState>;

    /// A worker reports it has rolled back. Returns the updated state;
    /// recovery completes (and DPR progress resumes) when no workers remain.
    fn report_rollback_complete(&self, shard: ShardId) -> Result<RecoveryState>;

    /// The in-flight recovery, if any.
    fn recovery_in_progress(&self) -> Result<Option<RecoveryState>>;

    /// The cut frozen by the recovery that created `world_line` — the
    /// rollback target of the transition into it. `None` for world-line 0
    /// (no transition) or unknown world-lines.
    ///
    /// Version numbers are ambiguous across world-lines: after rollback,
    /// operations resume at `v_lost + 1`, so the *current* cut quickly
    /// covers version numbers the rollback purged. A client crossing
    /// world-lines must therefore constrain its surviving prefix by the
    /// frozen cut of every transition it crosses, not by the cut it reads
    /// after recovery completes (see `SessionHandle::recover`).
    fn recovery_cut(&self, world_line: WorldLine) -> Result<Option<Cut>>;
}
