//! Client-side session tracking.
//!
//! A [`DprClientSession`] is the client half of a SessionOrder: it stamps
//! outgoing batches with the session's version clock `Vs` and dependency
//! vector, records the version every completed operation executed in, and
//! turns the cluster's DPR cut into a *committed prefix* of the session —
//! the "prefix commits (async)" arrows of Fig. 1.

use crate::header::{BatchHeader, BatchReply};
use dpr_core::{DprError, Result, SessionId, ShardId, Token, Version, WorldLine};
use dpr_metadata::Cut;
use std::collections::BTreeMap;

/// Session status after a failure notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Operating normally.
    Active,
    /// A failure was observed; [`DprClientSession::handle_failure`] must run
    /// (with the post-recovery cut) before new operations are issued.
    NeedsRecovery {
        /// The world-line the cluster moved to.
        new_world_line: WorldLine,
    },
}

/// One completed batch's execution record: `op_count` consecutive serials
/// that all executed at `version` on `shard`.
#[derive(Debug, Clone, Copy)]
struct BatchSpan {
    op_count: u32,
    shard: ShardId,
    version: Version,
}

/// Client-side DPR state for one session.
///
/// Not `Sync`: a session is a single logical thread of execution. Clients
/// that want parallelism open multiple sessions, which also trims false
/// dependencies (§1).
///
/// ```
/// use libdpr::{BatchReply, DprClientSession};
/// use dpr_core::{SessionId, ShardId, Version, WorldLine};
///
/// let mut session = DprClientSession::new(SessionId(1));
/// // Issue a 4-op batch to shard 0 and feed back its reply.
/// let header = session.begin_batch(ShardId(0), 4).unwrap();
/// session.process_reply(&BatchReply {
///     shard: ShardId(0),
///     world_line: WorldLine::INITIAL,
///     version: Version(1),
///     first_serial: header.first_serial,
///     op_count: 4,
/// }).unwrap();
/// // Ops commit once the DPR cut covers their version.
/// let cut = [(ShardId(0), Version(1))].into_iter().collect();
/// assert_eq!(session.refresh_commit(&cut), 4);
/// ```
#[derive(Debug)]
pub struct DprClientSession {
    id: SessionId,
    world_line: WorldLine,
    /// `Vs`: the largest version observed anywhere (§3.2).
    version_clock: Version,
    /// Latest observed version per shard — the dependency vector attached
    /// to outgoing batches.
    shard_versions: BTreeMap<ShardId, Version>,
    /// Next serial number to assign.
    next_serial: u64,
    /// Completed-but-uncommitted batches, span-compressed: every op in a
    /// batch executes at one (shard, version), so tracking is per batch
    /// (first serial → span), not per op — one map insert per reply on
    /// the pipelined hot path instead of `op_count`.
    op_versions: BTreeMap<u64, BatchSpan>,
    /// All serials below this are *resolved*: committed, or aborted by a
    /// failure the application has been told about.
    committed_prefix: u64,
    /// Cumulative count of ops aborted by failures.
    aborted: u64,
    status: SessionStatus,
}

impl DprClientSession {
    /// New session on the initial world-line.
    #[must_use]
    pub fn new(id: SessionId) -> Self {
        Self::on_world_line(id, WorldLine::INITIAL)
    }

    /// New session joining a cluster already on `world_line`.
    #[must_use]
    pub fn on_world_line(id: SessionId, world_line: WorldLine) -> Self {
        DprClientSession {
            id,
            world_line,
            version_clock: Version::ZERO,
            shard_versions: BTreeMap::new(),
            next_serial: 0,
            op_versions: BTreeMap::new(),
            committed_prefix: 0,
            aborted: 0,
            status: SessionStatus::Active,
        }
    }

    /// Session id.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Current world-line.
    #[must_use]
    pub fn world_line(&self) -> WorldLine {
        self.world_line
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> SessionStatus {
        self.status
    }

    /// Serials below this are resolved — durably committed or aborted with
    /// notice (as of the last [`DprClientSession::refresh_commit`] /
    /// [`DprClientSession::handle_failure`]).
    #[must_use]
    pub fn committed_prefix(&self) -> u64 {
        self.committed_prefix
    }

    /// Total operations aborted by failures over this session's lifetime.
    #[must_use]
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Total operations durably committed (resolved minus aborted).
    #[must_use]
    pub fn committed_count(&self) -> u64 {
        self.committed_prefix - self.aborted
    }

    /// Number of operations issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.next_serial
    }

    /// Build the header for a batch of `op_count` operations bound for
    /// `shard`, reserving their serial numbers.
    ///
    /// # Errors
    /// Fails if the session needs recovery first.
    pub fn begin_batch(&mut self, shard: ShardId, op_count: u32) -> Result<BatchHeader> {
        let mut header = BatchHeader {
            session: self.id,
            world_line: self.world_line,
            version_lower_bound: self.version_clock,
            deps: Vec::new(),
            first_serial: 0,
            acked_below: 0,
            op_count,
        };
        self.begin_batch_into(shard, op_count, &mut header)?;
        Ok(header)
    }

    /// [`DprClientSession::begin_batch`] into a caller-owned header — the
    /// dependency vector is rebuilt in place, so a header reused across
    /// batches makes issuing allocation-free in steady state.
    ///
    /// # Errors
    /// Fails if the session needs recovery first.
    pub fn begin_batch_into(
        &mut self,
        shard: ShardId,
        op_count: u32,
        header: &mut BatchHeader,
    ) -> Result<()> {
        if let SessionStatus::NeedsRecovery { new_world_line } = self.status {
            return Err(DprError::WorldLineMismatch {
                requested: self.world_line,
                current: new_world_line,
            });
        }
        header.session = self.id;
        header.world_line = self.world_line;
        header.version_lower_bound = self.version_clock;
        header.deps.clear();
        header.deps.extend(
            self.shard_versions
                .iter()
                .filter(|(s, _)| **s != shard)
                .map(|(s, v)| Token::new(*s, *v)),
        );
        header.first_serial = self.next_serial;
        // What the session knows without its caller's in-flight table: a
        // resolved serial is answered, or aborted with notice. A pipelined
        // caller overwrites it with its lowest unanswered serial.
        header.acked_below = self.committed_prefix;
        header.op_count = op_count;
        self.next_serial += u64::from(op_count);
        Ok(())
    }

    /// Rebuild a header for already-allocated serials (used when a batch
    /// must be re-routed after an ownership change, §5.3). Does not advance
    /// the serial counter.
    pub fn rebatch_header(&self, shard: ShardId, first_serial: u64, op_count: u32) -> BatchHeader {
        let deps = self
            .shard_versions
            .iter()
            .filter(|(s, _)| **s != shard)
            .map(|(s, v)| Token::new(*s, *v))
            .collect();
        BatchHeader {
            session: self.id,
            world_line: self.world_line,
            version_lower_bound: self.version_clock,
            deps,
            first_serial,
            acked_below: self.committed_prefix.min(first_serial),
            op_count,
        }
    }

    /// Ingest a reply. On success the covered ops become
    /// completed-uncommitted. Returns `WorldLineMismatch` if the shard is on
    /// a later world-line (a failure happened — fetch the cut and call
    /// [`DprClientSession::handle_failure`]), or `Recovering` if the shard
    /// is still behind this session's world-line (retry later).
    pub fn process_reply(&mut self, reply: &BatchReply) -> Result<()> {
        if reply.world_line > self.world_line {
            self.status = SessionStatus::NeedsRecovery {
                new_world_line: reply.world_line,
            };
            return Err(DprError::WorldLineMismatch {
                requested: self.world_line,
                current: reply.world_line,
            });
        }
        if reply.world_line < self.world_line {
            return Err(DprError::Recovering);
        }
        if reply.first_serial >= self.committed_prefix {
            // One span per batch (serials in a batch are consecutive and
            // share the executed version). Replays of already-committed
            // batches are dropped so they cannot re-enter the map below
            // the prefix.
            self.op_versions.insert(
                reply.first_serial,
                BatchSpan {
                    op_count: reply.op_count,
                    shard: reply.shard,
                    version: reply.version,
                },
            );
        }
        self.version_clock = self.version_clock.max(reply.version);
        let e = self
            .shard_versions
            .entry(reply.shard)
            .or_insert(Version::ZERO);
        *e = (*e).max(reply.version);
        Ok(())
    }

    /// Advance the committed prefix given the cluster's current DPR cut.
    /// Returns the new prefix (serials strictly below it are committed).
    pub fn refresh_commit(&mut self, cut: &Cut) -> u64 {
        while let Some(&span) = self.op_versions.get(&self.committed_prefix) {
            let committed = cut.get(&span.shard).copied().unwrap_or(Version::ZERO);
            if span.version > committed {
                break;
            }
            self.op_versions.remove(&self.committed_prefix);
            self.committed_prefix += u64::from(span.op_count);
        }
        self.committed_prefix
    }

    /// React to a failure: compute the surviving prefix against the
    /// post-recovery cut, drop lost operations, and move to the new
    /// world-line. Returns the number of surviving (committed) operations;
    /// everything at or above it was rolled back and the application must
    /// handle it (e.g. re-issue).
    pub fn handle_failure(&mut self, new_world_line: WorldLine, cut: &Cut) -> u64 {
        let survived = self.refresh_commit(cut);
        // Ops beyond the surviving prefix are gone; serials are not reused,
        // and the lost serials count as resolved-by-abort so the prefix
        // does not stall on the hole.
        self.op_versions.clear();
        self.aborted += self.next_serial - self.committed_prefix;
        self.committed_prefix = self.next_serial;
        self.world_line = new_world_line;
        self.status = SessionStatus::Active;
        // The dependency vector must not reference rolled-back versions.
        for (shard, v) in self.shard_versions.iter_mut() {
            let committed = cut.get(shard).copied().unwrap_or(Version::ZERO);
            if *v > committed {
                *v = committed;
            }
        }
        self.version_clock = self
            .shard_versions
            .values()
            .copied()
            .max()
            .unwrap_or(Version::ZERO);
        survived
    }

    /// Ops issued but not yet known committed (completed or in flight).
    #[must_use]
    pub fn uncommitted(&self) -> u64 {
        self.next_serial - self.committed_prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(shard: u32, wl: u64, version: u64, first: u64, count: u32) -> BatchReply {
        BatchReply {
            shard: ShardId(shard),
            world_line: WorldLine(wl),
            version: Version(version),
            first_serial: first,
            op_count: count,
        }
    }

    #[test]
    fn batch_headers_carry_version_clock_and_deps() {
        let mut s = DprClientSession::new(SessionId(1));
        let h = s.begin_batch(ShardId(0), 4).unwrap();
        assert_eq!(h.first_serial, 0);
        assert_eq!(h.version_lower_bound, Version::ZERO);
        assert!(h.deps.is_empty());
        s.process_reply(&reply(0, 0, 3, 0, 4)).unwrap();
        // Next batch to shard 1 carries Vs = 3 and a dep on shard 0.
        let h = s.begin_batch(ShardId(1), 2).unwrap();
        assert_eq!(h.first_serial, 4);
        assert_eq!(h.version_lower_bound, Version(3));
        assert_eq!(h.deps, vec![Token::new(ShardId(0), Version(3))]);
    }

    #[test]
    fn committed_prefix_respects_cut() {
        let mut s = DprClientSession::new(SessionId(1));
        s.begin_batch(ShardId(0), 2).unwrap();
        s.process_reply(&reply(0, 0, 1, 0, 2)).unwrap();
        s.begin_batch(ShardId(1), 2).unwrap();
        s.process_reply(&reply(1, 0, 2, 2, 2)).unwrap();
        // Cut covers shard 0 v1 but not shard 1 v2.
        let cut: Cut = [(ShardId(0), Version(1)), (ShardId(1), Version(1))]
            .into_iter()
            .collect();
        assert_eq!(s.refresh_commit(&cut), 2);
        // Cut catches up.
        let cut: Cut = [(ShardId(0), Version(1)), (ShardId(1), Version(2))]
            .into_iter()
            .collect();
        assert_eq!(s.refresh_commit(&cut), 4);
        assert_eq!(s.uncommitted(), 0);
    }

    #[test]
    fn in_flight_gap_stops_prefix() {
        let mut s = DprClientSession::new(SessionId(1));
        s.begin_batch(ShardId(0), 1).unwrap(); // serial 0, reply delayed
        s.begin_batch(ShardId(1), 1).unwrap(); // serial 1
        s.process_reply(&reply(1, 0, 1, 1, 1)).unwrap();
        let cut: Cut = [(ShardId(0), Version(9)), (ShardId(1), Version(9))]
            .into_iter()
            .collect();
        assert_eq!(s.refresh_commit(&cut), 0, "serial 0 still in flight");
        s.process_reply(&reply(0, 0, 1, 0, 1)).unwrap();
        assert_eq!(s.refresh_commit(&cut), 2);
    }

    #[test]
    fn world_line_bump_forces_recovery() {
        let mut s = DprClientSession::new(SessionId(1));
        s.begin_batch(ShardId(0), 2).unwrap();
        s.process_reply(&reply(0, 0, 1, 0, 2)).unwrap();
        s.begin_batch(ShardId(0), 2).unwrap();
        // The shard replies on world-line 1: failure happened.
        let err = s.process_reply(&reply(0, 1, 2, 2, 2)).unwrap_err();
        assert!(matches!(err, DprError::WorldLineMismatch { .. }));
        assert!(matches!(s.status(), SessionStatus::NeedsRecovery { .. }));
        // New batches are refused until the failure is handled.
        assert!(s.begin_batch(ShardId(0), 1).is_err());
        // Recovery: cut says shard 0 committed v1 — first 2 ops survive.
        let cut: Cut = [(ShardId(0), Version(1))].into_iter().collect();
        let survived = s.handle_failure(WorldLine(1), &cut);
        assert_eq!(survived, 2);
        assert_eq!(s.world_line(), WorldLine(1));
        assert_eq!(s.status(), SessionStatus::Active);
        // Operations resume on the new world-line.
        let h = s.begin_batch(ShardId(0), 1).unwrap();
        assert_eq!(h.world_line, WorldLine(1));
        assert_eq!(
            h.version_lower_bound,
            Version(1),
            "clock rolled back to cut"
        );
    }

    #[test]
    fn reply_from_lagging_shard_is_retryable() {
        let mut s = DprClientSession::on_world_line(SessionId(1), WorldLine(2));
        s.begin_batch(ShardId(0), 1).unwrap();
        let err = s.process_reply(&reply(0, 1, 1, 0, 1)).unwrap_err();
        assert!(matches!(err, DprError::Recovering));
        assert_eq!(s.status(), SessionStatus::Active, "no recovery needed");
    }

    #[test]
    fn dependency_vector_tracks_max_per_shard() {
        let mut s = DprClientSession::new(SessionId(1));
        s.begin_batch(ShardId(0), 1).unwrap();
        s.process_reply(&reply(0, 0, 5, 0, 1)).unwrap();
        s.begin_batch(ShardId(0), 1).unwrap();
        s.process_reply(&reply(0, 0, 3, 1, 1)).unwrap(); // stale lower version
        let h = s.begin_batch(ShardId(1), 1).unwrap();
        assert_eq!(h.deps, vec![Token::new(ShardId(0), Version(5))]);
        assert_eq!(h.version_lower_bound, Version(5));
    }
}
