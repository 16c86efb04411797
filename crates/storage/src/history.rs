//! Versioned access histories for serializability checking.
//!
//! When [`crate::EngineConfig::record_history`] is on, the engine records,
//! for every transaction branch, the reads (key, observed version, observed
//! value fingerprint) and writes (key, installed version, installed value
//! fingerprint) it performed. The version numbers are the version store's
//! commit stamps ([`crate::mvcc::VersionStore`]): a key never written since
//! load is at version 0, and each committing writer stamps the next one.
//! Strict 2PL makes the construction sound: an exclusive writer holds its
//! lock until its commit stamps the key's next version, so the committed
//! version a reader observes is exactly the version of the data it read —
//! unless isolation is broken, which is precisely what a checker built on
//! these histories detects.
//!
//! Version order per key is total and known (committed writers bump the
//! counter by one each), so a checker can derive the full Adya dependency
//! graph: `WW` (installer of version *v* precedes the installer of *v+1*),
//! `WR` (installer of *v* precedes every reader of *v*) and `RW`
//! anti-dependencies (a reader of *v* precedes the installer of *v+1*).
//! Fingerprints additionally pin each read to the committed *value* of the
//! version it claims, which catches dirty reads that version counters alone
//! cannot see. The checker itself lives in `geotp-chaos`
//! (`invariants::serializability`); this module is only the recording side.

use crate::row::{Row, Value};
use crate::types::{Key, Xid};

/// Fingerprint recorded for a deleted record (the committed "value" a delete
/// installs).
pub const TOMBSTONE_FINGERPRINT: u64 = 0x7061_7065_725f_6b76;

/// A committed version of a key together with the fingerprint of the value
/// that version holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedValue {
    /// Committed version number. Version 0 is the bulk-loaded initial value;
    /// each committing writer installs the next version.
    pub version: u64,
    /// FNV-1a fingerprint of the row at this version
    /// ([`row_fingerprint`]; [`TOMBSTONE_FINGERPRINT`] for deletes).
    pub fingerprint: u64,
}

/// One read performed by a branch: the version (and value fingerprint) it
/// observed. Reads of the branch's own uncommitted writes are *not* recorded
/// — they create no inter-transaction dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadAccess {
    /// The record read.
    pub key: Key,
    /// The committed version and value fingerprint observed.
    pub observed: VersionedValue,
}

/// One write installed by a committed branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAccess {
    /// The record written.
    pub key: Key,
    /// The version this commit installed and the fingerprint of the
    /// committed value.
    pub installed: VersionedValue,
}

/// The recorded access history of one *committed* branch. Aborted branches
/// leave no history: their writes never left their write sets and their
/// reads constrain nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchHistory {
    /// The branch identity (gtrid + branch qualifier).
    pub xid: Xid,
    /// Reads, in execution order, deduplicated per (key, version).
    pub reads: Vec<ReadAccess>,
    /// Writes, one per distinct key, in first-write order.
    pub writes: Vec<WriteAccess>,
}

/// Stable FNV-1a fingerprint of a row's full column contents. Identical rows
/// fingerprint identically across runs and processes (no pointer or hash-seed
/// dependence), which is what lets chaos traces embed them.
pub fn row_fingerprint(row: &Row) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for value in row.iter() {
        match value {
            Value::Int(v) => {
                eat(b"i");
                eat(&v.to_le_bytes());
            }
            Value::Float(v) => {
                eat(b"f");
                eat(&v.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                eat(b"s");
                eat(&(s.len() as u64).to_le_bytes());
                eat(s.as_bytes());
            }
            Value::Null => eat(b"n"),
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_values_and_shapes() {
        assert_eq!(row_fingerprint(&Row::int(5)), row_fingerprint(&Row::int(5)));
        assert_ne!(row_fingerprint(&Row::int(5)), row_fingerprint(&Row::int(6)));
        assert_ne!(
            row_fingerprint(&Row::from_values(vec![Value::Int(1), Value::Int(2)])),
            row_fingerprint(&Row::from_values(vec![Value::Int(2), Value::Int(1)])),
        );
        // A string "i" must not collide with the Int tag prefix.
        assert_ne!(
            row_fingerprint(&Row::from_values(vec![Value::Str("i".into())])),
            row_fingerprint(&Row::from_values(vec![Value::Int(0x69)])),
        );
        assert_ne!(row_fingerprint(&Row::new()), TOMBSTONE_FINGERPRINT);
    }
}
