//! Wire-level message types exchanged between the middleware, the geo-agents
//! and the data sources.

use std::time::Duration;

use geotp_storage::{Key, Row, StorageError, Xid};

/// A single operation within a subtransaction statement batch.
#[derive(Debug, Clone, PartialEq)]
pub enum DsOperation {
    /// Read a record under a shared lock.
    Read {
        /// Record to read.
        key: Key,
    },
    /// Read a record under an exclusive lock (`SELECT ... FOR UPDATE`).
    ReadForUpdate {
        /// Record to read.
        key: Key,
    },
    /// Insert or overwrite a record.
    Write {
        /// Record to write.
        key: Key,
        /// New row value.
        row: Row,
    },
    /// Insert a new record (errors if it exists).
    Insert {
        /// Record to insert.
        key: Key,
        /// Row value.
        row: Row,
    },
    /// Delete a record.
    Delete {
        /// Record to delete.
        key: Key,
    },
    /// Add `delta` to integer column `col` (balance-style update).
    AddInt {
        /// Record to update.
        key: Key,
        /// Column index.
        col: usize,
        /// Amount to add.
        delta: i64,
    },
}

impl DsOperation {
    /// The record this operation touches.
    pub fn key(&self) -> Key {
        match self {
            DsOperation::Read { key }
            | DsOperation::ReadForUpdate { key }
            | DsOperation::Write { key, .. }
            | DsOperation::Insert { key, .. }
            | DsOperation::Delete { key }
            | DsOperation::AddInt { key, .. } => *key,
        }
    }

    /// Whether the operation takes an exclusive lock.
    pub fn is_write(&self) -> bool {
        !matches!(self, DsOperation::Read { .. })
    }

    /// Whether a successful execution returns a row (the reads, and the
    /// new value of an `AddInt`).
    pub fn returns_row(&self) -> bool {
        matches!(
            self,
            DsOperation::Read { .. }
                | DsOperation::ReadForUpdate { .. }
                | DsOperation::AddInt { .. }
        )
    }
}

/// One statement batch dispatched by the middleware to one data source.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementRequest {
    /// The branch this batch belongs to.
    pub xid: Xid,
    /// Start the branch (`XA START`) before executing. The middleware piggybacks
    /// the start on the first batch to save a round trip, as real drivers do.
    pub begin: bool,
    /// Operations to execute in order.
    pub ops: Vec<DsOperation>,
    /// Annotation: this is the branch's last statement; with decentralized
    /// prepare enabled the geo-agent starts the prepare phase right after it.
    pub is_last: bool,
    /// Whether the geo-agent should run the decentralized prepare when
    /// `is_last` (GeoTP / Chiller); classic XA middlewares leave this off.
    pub decentralized_prepare: bool,
    /// Whether the geo-agent should proactively abort sibling branches on
    /// failure (GeoTP's early abort).
    pub early_abort: bool,
    /// Data-source indexes of the sibling branches of this distributed
    /// transaction (empty for centralized transactions).
    pub peers: Vec<u32>,
    /// Trace context riding the message: the dispatching coordinator's open
    /// span, under which the geo-agent parents its own spans so one trace
    /// crosses the client → coordinator → data-source boundary. `None` when
    /// telemetry is off (the common case) — propagation adds no RNG draws, no
    /// sleeps and no schedule changes either way.
    pub trace_parent: Option<geotp_telemetry::SpanId>,
}

impl StatementRequest {
    /// A minimal request executing `ops` for `xid` with every optional
    /// behaviour disabled. Useful in tests.
    pub fn simple(xid: Xid, ops: Vec<DsOperation>) -> Self {
        Self {
            xid,
            begin: false,
            ops,
            is_last: false,
            decentralized_prepare: false,
            early_abort: false,
            peers: Vec::new(),
            trace_parent: None,
        }
    }
}

/// Result of executing a statement batch.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementOutcome {
    /// All operations succeeded; the rows read (in operation order) follow.
    Ok {
        /// Rows produced by read operations.
        rows: Vec<Row>,
    },
    /// An operation failed; the branch has been rolled back locally.
    Failed {
        /// The error raised by the storage engine.
        error: StorageError,
    },
}

impl StatementOutcome {
    /// Whether the batch succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, StatementOutcome::Ok { .. })
    }
}

/// Response to a [`StatementRequest`], including local timing the middleware
/// feeds into the hotspot footprint (`MultiStatementsHandler.feedback()` in
/// the paper's implementation).
#[derive(Debug, Clone, PartialEq)]
pub struct StatementResponse {
    /// Outcome of the batch.
    pub outcome: StatementOutcome,
    /// Local execution latency of the batch on the data source: lock waits
    /// plus statement execution, excluding any network time.
    pub local_execution_latency: Duration,
}

/// The vote a geo-agent reports for a branch after the (decentralized or
/// explicit) prepare phase. Mirrors the message set of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareVote {
    /// The branch is prepared and can be committed.
    Prepared,
    /// Centralized transaction: no prepare needed, branch idles awaiting the
    /// one-phase commit.
    Idle,
    /// The prepare failed; the branch was rolled back.
    Failure,
    /// The branch could not even finish execution and was rolled back.
    RollbackOnly,
}

impl PrepareVote {
    /// Whether this vote allows the transaction to commit.
    pub fn is_yes(&self) -> bool {
        matches!(self, PrepareVote::Prepared | PrepareVote::Idle)
    }
}

/// Asynchronous notifications pushed from a geo-agent to the middleware.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentNotification {
    /// The outcome of the decentralized prepare phase for a branch.
    PrepareResult {
        /// The branch.
        xid: Xid,
        /// Its vote.
        vote: PrepareVote,
    },
    /// A branch has been rolled back (possibly triggered by a peer's early
    /// abort).
    Rollbacked {
        /// The branch.
        xid: Xid,
    },
}

impl AgentNotification {
    /// The branch the notification refers to.
    pub fn xid(&self) -> Xid {
        match self {
            AgentNotification::PrepareResult { xid, .. }
            | AgentNotification::Rollbacked { xid } => *xid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_storage::TableId;

    #[test]
    fn operation_key_and_write_flags() {
        let key = Key::new(TableId(1), 9);
        assert!(!DsOperation::Read { key }.is_write());
        assert!(DsOperation::AddInt {
            key,
            col: 0,
            delta: 1
        }
        .is_write());
        assert_eq!(DsOperation::Delete { key }.key(), key);
    }

    #[test]
    fn prepare_vote_semantics() {
        assert!(PrepareVote::Prepared.is_yes());
        assert!(PrepareVote::Idle.is_yes());
        assert!(!PrepareVote::Failure.is_yes());
        assert!(!PrepareVote::RollbackOnly.is_yes());
    }

    #[test]
    fn notification_xid_accessor() {
        let xid = Xid::new(1, 1);
        let n = AgentNotification::PrepareResult {
            xid,
            vote: PrepareVote::Prepared,
        };
        assert_eq!(n.xid(), xid);
    }
}
