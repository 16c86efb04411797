//! # geotp-storage — data-source storage substrate
//!
//! The paper's data sources are MySQL and PostgreSQL instances operating at
//! the serializable isolation level with two-phase locking and XA support.
//! This crate implements the equivalent substrate from scratch:
//!
//! * an in-memory, multi-table record store ([`engine::StorageEngine`]) laid
//!   out in 64-row pages: one hash lookup per `(table, row >> 6)` page, a
//!   presence bitmap, and the page's rows in slot order. The pages hold
//!   only committed data: a branch's writes stay in its write set until its
//!   commit applies them, and a rollback just drops them,
//! * a strict two-phase-locking [`lock::LockManager`] with shared/exclusive
//!   record locks, FIFO wait queues, lock upgrades and a lock-wait timeout
//!   (the paper configures MySQL/PostgreSQL with a 5 s timeout),
//! * a write-ahead log ([`wal::WriteAheadLog`]) whose flush latency is part of
//!   the simulated prepare cost, with optional group commit (one flush
//!   amortized across a commit window of concurrently-committing branches),
//! * a version store ([`mvcc::VersionStore`]) holding, for the keys written
//!   since load only, their commit stamps and the superseded versions open
//!   snapshots can still reach; an [`engine::IsolationLevel`] knob picks
//!   what a plain read locks and returns — `Serializable2pl` (the default,
//!   pure 2PL), `SnapshotRead` (lock-free consistent snapshots) and the
//!   deliberately weaker `ReadCommitted`,
//! * an XA participant state machine (`ACTIVE → ENDED → PREPARED →
//!   COMMITTED/ABORTED`) with crash/recovery semantics matching the two
//!   assumptions the paper relies on (§V-A ❶❷): unprepared subtransactions are
//!   aborted when the coordinator disconnects or when the data source
//!   restarts; prepared subtransactions survive restarts with their locks.
//!
//! Locks are held from first access until the commit/abort is applied, so the
//! *lock contention span* of Eq. (1) in the paper is directly observable.

pub mod engine;
pub mod history;
pub mod lock;
pub mod mvcc;
pub mod row;
pub mod small_vec;
mod table;
pub mod types;
pub mod wal;

pub use engine::{CostModel, EngineConfig, EngineStats, IsolationLevel, StorageEngine, XaState};
pub use history::{row_fingerprint, BranchHistory, ReadAccess, VersionedValue, WriteAccess};
pub use lock::{LockError, LockManager, LockMode, LockStats};
pub use mvcc::{ChainVersion, MvccStats, VersionStore, Visible};
pub use row::{Row, Value};
pub use small_vec::SmallVec;
pub use types::{Key, StorageError, TableId, Xid};
pub use wal::{LogRecord, WriteAheadLog};
