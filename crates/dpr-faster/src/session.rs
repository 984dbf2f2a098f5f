//! Client sessions: sequential logical threads of execution (§5.1).
//!
//! Every operation gets a *serial number* in its session. Under relaxed CPR
//! (§5.4) operations that touch evicted (on-device) state return
//! [`OpOutcome::Pending`]; the session buffers them and resolves them in
//! [`Session::complete_pending`], and later operations do not depend on them
//! until that explicit resolution — which is what keeps checkpoint commits
//! from blocking on in-flight I/O or dormant sessions.
//!
//! A batch of operations enters the store once ([`Session::execute`]): one
//! take of the session's lock and one epoch guard for all of it. Each
//! operation still picks up the global state, so a checkpoint that starts
//! mid-batch splits the batch over two versions. The per-operation methods
//! are batches of one.

use crate::state::SystemState;
use crate::store::FasterKv;
use dpr_core::{Key, SessionId, Value, Version};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A handle to a pending (unresolved) operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingToken {
    /// The serial number the operation occupies in its session.
    pub serial: u64,
}

/// Result of issuing one operation on a session.
#[derive(Debug)]
pub enum OpOutcome {
    /// A read that completed against resident state.
    Read {
        /// The value, or `None` if the key is absent/deleted.
        value: Option<Value>,
        /// Version the read executed in.
        version: Version,
        /// Serial number assigned.
        serial: u64,
    },
    /// An upsert/RMW/delete that completed against resident state.
    Mutated {
        /// Version the mutation executed in.
        version: Version,
        /// Serial number assigned.
        serial: u64,
    },
    /// The operation touched evicted state and went PENDING (§5.4).
    Pending(PendingToken),
}

impl OpOutcome {
    /// The serial number of this operation.
    #[must_use]
    pub fn serial(&self) -> u64 {
        match self {
            OpOutcome::Read { serial, .. } | OpOutcome::Mutated { serial, .. } => *serial,
            OpOutcome::Pending(t) => t.serial,
        }
    }

    /// The version the op executed in, if it has completed.
    #[must_use]
    pub fn version(&self) -> Option<Version> {
        match self {
            OpOutcome::Read { version, .. } | OpOutcome::Mutated { version, .. } => Some(*version),
            OpOutcome::Pending(_) => None,
        }
    }
}

/// A resolved PENDING operation.
#[derive(Debug)]
pub struct CompletedOp {
    /// Serial number of the original operation.
    pub serial: u64,
    /// Read result (`None` for mutations or absent keys).
    pub value: Option<Value>,
    /// Version the operation finally executed in.
    pub version: Version,
    /// True if the operation was lost to a rollback and never executed.
    pub lost: bool,
}

/// The user-defined modification applied by a pending RMW.
pub type RmwFn = Box<dyn Fn(Option<&Value>) -> Value + Send>;

/// One operation of a batch ([`Session::execute`]).
pub enum Op<'a> {
    /// Read the key.
    Read(&'a Key),
    /// Blind upsert of the key to the value.
    Upsert(&'a Key, &'a Value),
    /// Read-modify-write: the function maps the current value (or `None`)
    /// to the new one.
    Rmw(&'a Key, RmwFn),
    /// Delete the key (writes a tombstone).
    Delete(&'a Key),
}

pub(crate) enum PendingKind {
    Read,
    Rmw(RmwFn),
}

pub(crate) struct PendingOp {
    pub key: Key,
    pub kind: PendingKind,
    /// Chain address at which the walk left memory (diagnostics; the
    /// completion path re-walks from the index head).
    #[allow(dead_code)]
    pub addr: u64,
}

pub(crate) struct SessionCore {
    /// Last observed global state; ops execute in `observed.version`.
    pub observed: SystemState,
    /// Next serial number to assign.
    pub next_serial: u64,
    /// Unresolved PENDING ops by serial.
    pub outstanding: BTreeMap<u64, PendingOp>,
    /// PENDING ops lost to a rollback, surfaced at the next
    /// `complete_pending`.
    pub lost: Vec<u64>,
}

pub(crate) struct SessionShared {
    pub id: SessionId,
    pub core: Mutex<SessionCore>,
}

impl SessionShared {
    pub(crate) fn new(id: SessionId, observed: SystemState) -> Self {
        SessionShared {
            id,
            core: Mutex::new(SessionCore {
                observed,
                next_serial: 0,
                outstanding: BTreeMap::new(),
                lost: Vec::new(),
            }),
        }
    }
}

/// A client session on a [`FasterKv`] store.
///
/// Sessions are `Send` (they may migrate across threads) but not `Sync`;
/// each is a single sequential stream of operations, the granularity at
/// which prefix recoverability is defined.
pub struct Session {
    pub(crate) store: Arc<FasterKv>,
    pub(crate) shared: Arc<SessionShared>,
}

impl Session {
    /// This session's globally unique id.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.shared.id
    }

    /// Serial number the next operation will receive.
    #[must_use]
    pub fn next_serial(&self) -> u64 {
        self.shared.core.lock().next_serial
    }

    /// Run `ops` in order, handing each outcome to `each`, under one take of
    /// the session's lock and one epoch guard, which is refreshed every few
    /// dozen operations, while an append waits for the flusher and before
    /// each read of the device. The lock is given up between two operations
    /// only while a checkpoint or rollback waits for every session to be
    /// found between two. An error stops the batch: the operations before it
    /// have run.
    ///
    /// `each` runs under the session's lock and the batch's guard: it must
    /// not block, and it must not call this session (which would deadlock)
    /// or anything that waits for every guard. Past the store's memory
    /// budget, the session evicts before it returns, as all its calls do.
    pub fn execute<'a>(
        &self,
        ops: impl IntoIterator<Item = Op<'a>>,
        each: impl FnMut(OpOutcome),
    ) -> dpr_core::Result<()> {
        let ran = self.store.op_batch(&self.shared, ops, each);
        self.store.hold_budget();
        ran
    }

    fn execute_one(&self, op: Op<'_>) -> dpr_core::Result<OpOutcome> {
        let outcome = self.store.op_one(&self.shared, op);
        self.store.hold_budget();
        outcome
    }

    /// Read `key`. Completes immediately for resident keys; goes PENDING if
    /// the chain leads below the in-memory region.
    pub fn read(&self, key: &Key) -> dpr_core::Result<OpOutcome> {
        self.execute_one(Op::Read(key))
    }

    /// Blind upsert of `key = value`.
    pub fn upsert(&self, key: Key, value: Value) -> dpr_core::Result<OpOutcome> {
        self.execute_one(Op::Upsert(&key, &value))
    }

    /// Read-modify-write: applies `f` to the current value (or `None`).
    pub fn rmw(
        &self,
        key: Key,
        f: impl Fn(Option<&Value>) -> Value + Send + 'static,
    ) -> dpr_core::Result<OpOutcome> {
        self.execute_one(Op::Rmw(&key, Box::new(f)))
    }

    /// Delete `key` (writes a tombstone).
    pub fn delete(&self, key: Key) -> dpr_core::Result<OpOutcome> {
        self.execute_one(Op::Delete(&key))
    }

    /// Resolve all outstanding PENDING operations, returning their results
    /// in serial order. Also surfaces operations lost to rollbacks.
    pub fn complete_pending(&self) -> dpr_core::Result<Vec<CompletedOp>> {
        let completed = self.store.op_complete_pending(&self.shared);
        self.store.hold_budget();
        completed
    }

    /// Participate in the state machine without issuing an operation. Call
    /// periodically from otherwise-idle loops.
    pub fn refresh(&self) {
        self.store.session_refresh(&self.shared);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.store.drop_session(&self.shared);
    }
}
