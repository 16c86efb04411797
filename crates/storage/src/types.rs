//! Core identifiers and error types shared across the storage engine.

use std::fmt;

/// Identifier of a table within one data source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u16);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Primary key of a record: a table plus a 64-bit row key.
///
/// Composite keys (e.g. TPC-C `(w_id, d_id, c_id)`) are packed into the row
/// key by the workload layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// Table the record belongs to.
    pub table: TableId,
    /// Row key within the table.
    pub row: u64,
}

impl Key {
    /// Construct a key.
    pub const fn new(table: TableId, row: u64) -> Self {
        Self { table, row }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.table, self.row)
    }
}

/// Global XA transaction identifier: the coordinator-assigned global id plus
/// the branch qualifier identifying the participant (data source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Xid {
    /// Global transaction id assigned by the middleware.
    pub gtrid: u64,
    /// Branch qualifier: the data source index this branch executes on.
    pub bqual: u32,
}

impl Xid {
    /// Bit position of the coordinator index inside a gtrid: the middleware
    /// embeds its node index in the upper 16 bits, giving every coordinator
    /// a disjoint gtrid space. The single source of truth for the layout —
    /// gtrid allocation and owner extraction both use it.
    pub const OWNER_SHIFT: u32 = 48;

    /// Construct an XA branch identifier.
    pub const fn new(gtrid: u64, bqual: u32) -> Self {
        Self { gtrid, bqual }
    }

    /// Index of the coordinator that allocated this branch's gtrid, so
    /// recovery can be scoped to one coordinator's transactions.
    pub const fn owner(&self) -> u32 {
        (self.gtrid >> Self::OWNER_SHIFT) as u32
    }

    /// Sequence number of this branch's gtrid within its coordinator's space.
    pub const fn seq(&self) -> u64 {
        self.gtrid & ((1 << Self::OWNER_SHIFT) - 1)
    }
}

impl fmt::Display for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xid({},{})", self.gtrid, self.bqual)
    }
}

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The referenced transaction branch does not exist on this engine.
    UnknownTransaction(Xid),
    /// The transaction branch is in the wrong state for the requested action
    /// (e.g. executing a statement after `prepare`).
    InvalidState {
        /// The branch involved.
        xid: Xid,
        /// Human-readable description of the violated transition.
        reason: &'static str,
    },
    /// The record does not exist.
    KeyNotFound(Key),
    /// A record with this key already exists (duplicate insert).
    DuplicateKey(Key),
    /// Lock acquisition failed (timeout / cancelled); the branch must abort.
    LockFailed {
        /// The record that could not be locked.
        key: Key,
        /// Why the lock could not be granted.
        reason: crate::lock::LockError,
    },
    /// The engine is crashed / offline and cannot serve requests.
    Unavailable,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTransaction(xid) => write!(f, "unknown transaction {xid}"),
            StorageError::InvalidState { xid, reason } => {
                write!(f, "invalid state for {xid}: {reason}")
            }
            StorageError::KeyNotFound(key) => write!(f, "key not found: {key}"),
            StorageError::DuplicateKey(key) => write!(f, "duplicate key: {key}"),
            StorageError::LockFailed { key, reason } => {
                write!(f, "failed to lock {key}: {reason}")
            }
            StorageError::Unavailable => write!(f, "data source is unavailable"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_display_and_ordering() {
        let a = Key::new(TableId(1), 5);
        let b = Key::new(TableId(1), 9);
        let c = Key::new(TableId(2), 0);
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "t1#5");
    }

    #[test]
    fn xid_identity() {
        let x = Xid::new(42, 3);
        assert_eq!(x, Xid::new(42, 3));
        assert_ne!(x, Xid::new(42, 4));
        assert_eq!(x.to_string(), "xid(42,3)");
    }

    #[test]
    fn error_messages_render() {
        let err = StorageError::KeyNotFound(Key::new(TableId(0), 1));
        assert!(err.to_string().contains("key not found"));
    }
}
