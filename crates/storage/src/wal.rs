//! Write-ahead log for one data source.
//!
//! The log is the durability anchor of the XA participant: a branch is
//! *prepared* only after its `Prepare` record (and everything before it) has
//! been flushed. The log survives simulated crashes and is the input to
//! [`crate::engine::StorageEngine::restart`].

use std::cell::RefCell;

use crate::row::Row;
use crate::types::{Key, Xid};

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A transaction branch started.
    Begin(Xid),
    /// A record was updated: before/after images for undo/redo.
    Update {
        /// The branch performing the update.
        xid: Xid,
        /// The record updated.
        key: Key,
        /// Value before the update (`None` if the record was inserted).
        before: Option<Row>,
        /// Value after the update (`None` if the record was deleted).
        after: Option<Row>,
    },
    /// The branch finished execution and was prepared (vote: yes).
    Prepare(Xid),
    /// The branch was committed.
    Commit(Xid),
    /// The branch was rolled back.
    Abort(Xid),
}

impl LogRecord {
    /// The transaction branch this record belongs to.
    pub fn xid(&self) -> Xid {
        match self {
            LogRecord::Begin(x)
            | LogRecord::Prepare(x)
            | LogRecord::Commit(x)
            | LogRecord::Abort(x) => *x,
            LogRecord::Update { xid, .. } => *xid,
        }
    }
}

/// Compact the log once it reaches this many records (checkpointing below).
const COMPACT_THRESHOLD: usize = 8 * 1024;

/// An append-only write-ahead log with an explicit flush watermark.
///
/// Appends go to a volatile tail; [`WriteAheadLog::flush`] moves the durable
/// watermark to the end. A simulated crash discards the volatile tail.
///
/// Like a real WAL, the log is checkpointed: once every record is durable and
/// a transaction has a durable `Commit`/`Abort` decision, its records can
/// never influence recovery again and are dropped (amortized, triggered when
/// the log grows past an internal threshold). This keeps the log — and the
/// cost of appending to it — proportional to the set of *undecided*
/// transactions instead of the whole history of the run.
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    records: RefCell<Vec<LogRecord>>,
    durable_len: RefCell<usize>,
    flush_count: RefCell<u64>,
}

impl WriteAheadLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record to the volatile tail.
    pub fn append(&self, record: LogRecord) {
        self.records.borrow_mut().push(record);
    }

    /// Make every appended record durable (a solo flush: one committer, one
    /// fsync).
    pub fn flush(&self) {
        self.do_flush();
        geotp_telemetry::counter_add("storage.wal_flushes", "solo", 0, 1);
    }

    /// Make every appended record durable on behalf of `batch` concurrently
    /// committing branches (group commit: one fsync amortized across the
    /// whole commit window).
    pub fn flush_group(&self, batch: u64) {
        self.do_flush();
        geotp_telemetry::counter_add("storage.wal_flushes", "group", 0, 1);
        geotp_telemetry::observe(
            "storage.group_commit_batch",
            "",
            0,
            std::time::Duration::from_micros(batch),
        );
    }

    fn do_flush(&self) {
        let mut records = self.records.borrow_mut();
        if records.len() >= COMPACT_THRESHOLD {
            // Checkpoint: everything is durable after this flush, so records
            // of durably-decided transactions (including the decision record
            // itself) are dead for recovery purposes.
            let decided: geotp_simrt::hash::FxHashSet<Xid> = records
                .iter()
                .filter_map(|r| match r {
                    LogRecord::Commit(x) | LogRecord::Abort(x) => Some(*x),
                    _ => None,
                })
                .collect();
            if !decided.is_empty() {
                records.retain(|r| !decided.contains(&r.xid()));
            }
        }
        *self.durable_len.borrow_mut() = records.len();
        *self.flush_count.borrow_mut() += 1;
    }

    /// Number of flush (fsync) operations performed.
    pub fn flush_count(&self) -> u64 {
        *self.flush_count.borrow()
    }

    /// Number of records below the durable watermark (what a crash keeps).
    pub fn durable_len(&self) -> usize {
        *self.durable_len.borrow()
    }

    /// Total records appended (durable + volatile).
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// Whether the log holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the durable prefix (what survives a crash).
    fn durable_records(&self) -> Vec<LogRecord> {
        let durable = *self.durable_len.borrow();
        self.records.borrow()[..durable].to_vec()
    }

    /// Snapshot of every record including the volatile tail.
    pub fn all_records(&self) -> Vec<LogRecord> {
        self.records.borrow().clone()
    }

    /// Simulate a crash: the volatile tail is lost.
    pub fn truncate_to_durable(&self) {
        let durable = *self.durable_len.borrow();
        self.records.borrow_mut().truncate(durable);
    }

    /// Transactions whose `Prepare` record is durable but which have neither a
    /// durable `Commit` nor `Abort` record — exactly the set `XA RECOVER`
    /// reports after a restart.
    pub fn prepared_but_undecided(&self) -> Vec<Xid> {
        let durable = self.durable_records();
        let mut prepared = Vec::new();
        for rec in &durable {
            match rec {
                LogRecord::Prepare(x) if !prepared.contains(x) => {
                    prepared.push(*x);
                }
                LogRecord::Commit(x) | LogRecord::Abort(x) => {
                    prepared.retain(|p| p != x);
                }
                _ => {}
            }
        }
        prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TableId;

    fn xid(n: u64) -> Xid {
        Xid::new(n, 0)
    }

    #[test]
    fn append_and_flush_watermark() {
        let wal = WriteAheadLog::new();
        wal.append(LogRecord::Begin(xid(1)));
        assert_eq!(wal.durable_records().len(), 0);
        wal.flush();
        assert_eq!(wal.durable_records().len(), 1);
        wal.append(LogRecord::Prepare(xid(1)));
        assert_eq!(wal.durable_records().len(), 1);
        assert_eq!(wal.all_records().len(), 2);
        assert_eq!(wal.flush_count(), 1);
    }

    #[test]
    fn crash_discards_volatile_tail() {
        let wal = WriteAheadLog::new();
        wal.append(LogRecord::Begin(xid(1)));
        wal.flush();
        wal.append(LogRecord::Prepare(xid(1)));
        wal.truncate_to_durable();
        assert_eq!(wal.len(), 1);
        assert!(wal.prepared_but_undecided().is_empty());
    }

    #[test]
    fn prepared_but_undecided_tracks_outcomes() {
        let wal = WriteAheadLog::new();
        wal.append(LogRecord::Begin(xid(1)));
        wal.append(LogRecord::Prepare(xid(1)));
        wal.append(LogRecord::Begin(xid(2)));
        wal.append(LogRecord::Prepare(xid(2)));
        wal.append(LogRecord::Commit(xid(1)));
        wal.flush();
        assert_eq!(wal.prepared_but_undecided(), vec![xid(2)]);
    }

    #[test]
    fn checkpoint_compaction_keeps_undecided_transactions_only() {
        let wal = WriteAheadLog::new();
        // An undecided prepared branch that must survive compaction.
        wal.append(LogRecord::Begin(xid(1)));
        wal.append(LogRecord::Prepare(xid(1)));
        // Enough decided traffic to cross the compaction threshold.
        for n in 2..(2 + super::COMPACT_THRESHOLD as u64) {
            wal.append(LogRecord::Begin(xid(n)));
            wal.append(LogRecord::Commit(xid(n)));
        }
        wal.flush();
        assert_eq!(
            wal.prepared_but_undecided(),
            vec![xid(1)],
            "undecided branch survives the checkpoint"
        );
        assert!(
            wal.len() < super::COMPACT_THRESHOLD / 2,
            "decided history was compacted away (len {})",
            wal.len()
        );
        // A crash after the checkpoint still recovers the undecided branch.
        wal.truncate_to_durable();
        assert_eq!(wal.prepared_but_undecided(), vec![xid(1)]);
    }

    #[test]
    fn update_record_round_trip() {
        let key = Key::new(TableId(0), 7);
        let rec = LogRecord::Update {
            xid: xid(3),
            key,
            before: Some(Row::int(1)),
            after: Some(Row::int(2)),
        };
        assert_eq!(rec.xid(), xid(3));
        let wal = WriteAheadLog::new();
        wal.append(rec.clone());
        assert_eq!(wal.all_records(), vec![rec]);
    }
}
