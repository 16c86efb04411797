//! The in-memory storage engine: record pages + 2PL + WAL + XA participant.
//!
//! One [`StorageEngine`] models one data source (a MySQL or PostgreSQL
//! instance). All statement execution goes through the XA branch state
//! machine; locks are acquired before access and released only when the
//! branch commits or rolls back (strict 2PL).
//!
//! A branch's writes stay in its own write set until it commits: its reads
//! of those keys are served from there, commit applies the set to the record
//! pages, and rollback drops it. The pages therefore hold exactly the
//! committed head of every key, and the [`VersionStore`] keeps only what
//! they cannot say: the stamps of the keys written since load and the
//! superseded versions an open snapshot can still reach. The three
//! [`IsolationLevel`]s share one read path and differ only in whether a
//! plain read takes a shared lock and which committed version it returns.

use std::cell::{Cell, RefCell, RefMut};
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use geotp_simrt::hash::FxHashMap;
use geotp_simrt::{now, sleep, SimInstant};

use crate::history::{
    row_fingerprint, BranchHistory, ReadAccess, VersionedValue, WriteAccess, TOMBSTONE_FINGERPRINT,
};
use crate::lock::{LockManager, LockMode, LockStats};
use crate::mvcc::{VersionStore, Visible};
use crate::row::Row;
use crate::table::RecordTable;
use crate::types::{Key, StorageError, TableId, Xid};
use crate::wal::{LogRecord, WriteAheadLog};

/// Virtual-time cost of local work inside the data source. These replace the
/// real CPU/IO costs of MySQL/PostgreSQL; the defaults are in the range the
/// paper's breakdown (Fig. 6c) reports (≈2 ms local prepare, sub-millisecond
/// statement execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// CPU cost of executing one statement (after its locks are granted).
    pub statement_execute: Duration,
    /// Cost of the local prepare: state persist + WAL flush.
    pub prepare: Duration,
    /// Cost of applying the final commit/abort decision.
    pub decision_apply: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            statement_execute: Duration::from_micros(200),
            prepare: Duration::from_millis(2),
            decision_apply: Duration::from_micros(500),
        }
    }
}

impl CostModel {
    /// A zero-cost model, useful for tests that reason purely about latency
    /// structure (matching the paper's "we ignore the local execution time"
    /// simplification in the motivating example).
    pub fn zero() -> Self {
        Self {
            statement_execute: Duration::ZERO,
            prepare: Duration::ZERO,
            decision_apply: Duration::ZERO,
        }
    }
}

/// Concurrency-control mode for plain reads.
///
/// Writes (and `SELECT ... FOR UPDATE`) always go through strict 2PL in every
/// mode; the isolation level only chooses whether a *plain read* takes a
/// shared lock and which committed version it returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IsolationLevel {
    /// Strict two-phase locking: plain reads take shared locks and return
    /// the committed head. Serializable; byte-identical to the legacy engine
    /// behavior.
    #[default]
    Serializable2pl,
    /// Multi-version snapshot reads: the first plain read pins a snapshot
    /// timestamp and every later plain read returns the version committed
    /// as of that instant — consistent, and entirely lock-free.
    SnapshotRead,
    /// Deliberately weaker: each plain read returns the committed head *at
    /// its own execution instant* without pinning a snapshot. Lock-free, but
    /// admits classic anomalies (non-repeatable reads, write skew) that the
    /// serializability checker is expected to convict.
    ReadCommitted,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Lock-wait timeout (the paper configures 5 s).
    pub lock_wait_timeout: Duration,
    /// Local work costs.
    pub cost: CostModel,
    /// Record per-branch versioned read/write histories
    /// ([`StorageEngine::committed_history`]) for serializability checking.
    /// Off by default: the recording costs a few hash lookups per statement,
    /// which performance workloads should not pay.
    pub record_history: bool,
    /// Concurrency-control mode for plain reads (writes are always 2PL).
    pub isolation: IsolationLevel,
    /// Group-commit window: a committing branch parks this long so one WAL
    /// flush amortizes across every branch that reaches its commit point in
    /// the window. `Duration::ZERO` (the default) disables group commit and
    /// keeps the legacy flush-per-commit behavior byte-identical.
    pub group_commit_window: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            lock_wait_timeout: Duration::from_secs(5),
            cost: CostModel::default(),
            record_history: false,
            isolation: IsolationLevel::Serializable2pl,
            group_commit_window: Duration::ZERO,
        }
    }
}

/// XA branch states (the participant side of the protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XaState {
    /// Statements may execute (`XA START` done).
    Active,
    /// Execution finished (`XA END` done), not yet prepared.
    Ended,
    /// Prepared: vote=yes is durable, locks still held. A branch that
    /// commits or rolls back leaves the engine.
    Prepared,
}

/// Aggregate counters for one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Records read.
    pub reads: u64,
    /// Records written.
    pub writes: u64,
    /// Branches prepared.
    pub prepares: u64,
    /// Branches committed.
    pub commits: u64,
    /// Branches rolled back.
    pub aborts: u64,
    /// Sum of lock contention spans of finished branches, in microseconds
    /// (Eq. 1: first lock acquisition to last lock release).
    pub total_contention_span_micros: u64,
    /// Number of finished branches that held at least one lock.
    pub contention_span_samples: u64,
    /// Plain reads served lock-free from the version store (MVCC modes).
    pub snapshot_reads: u64,
    /// Commit-window waits aborted because the engine crashed (or was
    /// restarted) before the group flush made their records durable.
    pub group_commit_aborted_waits: u64,
}

/// A branch's uncommitted writes (see [`TxnEntry`]).
type WriteSet = Vec<(Key, Option<Row>)>;

struct TxnEntry {
    state: XaState,
    /// The branch's uncommitted writes, one per key in first-write order:
    /// the value it last wrote (`None` = deleted). Commit applies them to
    /// the record pages; rollback drops them.
    writes: WriteSet,
    /// When the branch acquired its first lock. (Per-key release bookkeeping
    /// lives in the lock manager's own per-transaction index.)
    first_lock_at: Option<SimInstant>,
    /// Versioned reads recorded for serializability checking (only populated
    /// when [`EngineConfig::record_history`] is on).
    reads: Vec<ReadAccess>,
    /// Snapshot timestamp pinned by the branch's first plain read under
    /// [`IsolationLevel::SnapshotRead`]; registered with the version store so
    /// GC cannot reclaim the versions the snapshot can reach.
    snapshot_ts: Option<u64>,
}

impl TxnEntry {
    /// The branch's uncommitted value of `key`, if it wrote the key.
    fn written(&self, key: Key) -> Option<&Option<Row>> {
        self.writes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, row)| row)
    }
}

/// Shared state of the engine's group-commit protocol: at most one committer
/// is the *leader* (it sleeps out the commit window and performs the batched
/// flush); every other committer parks on `notify` as a follower. A crash
/// bumps `epoch` so parked committers — whose volatile records were just
/// lost — fail instead of acknowledging a commit that is not durable.
#[derive(Default)]
struct GroupCommitState {
    leader: Cell<bool>,
    /// Followers parked waiting for the in-flight group flush.
    pending: Cell<u64>,
    /// Incremented by [`StorageEngine::crash`]; waiters from an older epoch
    /// must abort (their WAL tail was truncated).
    epoch: Cell<u64>,
    notify: geotp_simrt::sync::Notify,
}

/// One simulated data source's storage engine.
pub struct StorageEngine {
    /// The committed head of every key. Like a real data file it survives
    /// the simulated crash/restart.
    records: RefCell<RecordTable>,
    locks: Rc<LockManager>,
    wal: WriteAheadLog,
    txns: RefCell<FxHashMap<Xid, TxnEntry>>,
    /// Emptied write sets of finished branches, handed to the next `begin`:
    /// a branch's first write does not allocate in the steady state.
    spare_write_sets: RefCell<Vec<WriteSet>>,
    config: EngineConfig,
    stats: RefCell<EngineStats>,
    crashed: Cell<bool>,
    /// Access histories of committed branches, in commit order. An observer
    /// artifact for the serializability checker (like a chaos trace), not
    /// engine state: crashes do not clear it.
    history: RefCell<Vec<BranchHistory>>,
    /// Checker-validation fail point: every `stride`-th read skips its shared
    /// lock (0 = disabled). See [`StorageEngine::fail_point_bypass_read_locks`].
    read_bypass_stride: Cell<u64>,
    read_counter: Cell<u64>,
    /// Stamps of the keys written since load (kept when recording history
    /// or under an MVCC isolation level) and, under the MVCC levels, the
    /// superseded versions open snapshots can reach.
    versions: VersionStore,
    /// Group-commit window state (leader election + follower parking).
    group: GroupCommitState,
}

impl StorageEngine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Rc<Self> {
        Rc::new(Self {
            records: RefCell::new(RecordTable::default()),
            locks: LockManager::new(config.lock_wait_timeout),
            wal: WriteAheadLog::new(),
            txns: RefCell::new(FxHashMap::default()),
            spare_write_sets: RefCell::new(Vec::new()),
            config,
            stats: RefCell::new(EngineStats::default()),
            crashed: Cell::new(false),
            history: RefCell::new(Vec::new()),
            read_bypass_stride: Cell::new(0),
            read_counter: Cell::new(0),
            versions: VersionStore::new(
                config.isolation != IsolationLevel::Serializable2pl,
                config.record_history,
            ),
            group: GroupCommitState::default(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> EngineStats {
        *self.stats.borrow()
    }

    /// Lock-manager statistics (waits, timeouts, cancellations).
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Direct access to the lock manager (used by the geo-agent for hotspot
    /// statistics such as the number of waiters on a record).
    pub fn lock_manager(&self) -> &Rc<LockManager> {
        &self.locks
    }

    /// Whether plain reads resolve lock-free against committed versions
    /// instead of taking shared locks.
    fn mvcc_enabled(&self) -> bool {
        self.config.isolation != IsolationLevel::Serializable2pl
    }

    /// The engine's version store (tests and GC audits). Empty under the
    /// default [`IsolationLevel::Serializable2pl`] without history recording.
    pub fn version_store(&self) -> &VersionStore {
        &self.versions
    }

    /// Bulk-load a record without locking or logging (initial population).
    /// It becomes the key's version 0: the pages take the row, and the
    /// version store forgets whatever it held for the key.
    pub fn load(&self, key: Key, row: Row) {
        self.versions.forget(key, 1);
        self.records.borrow_mut().insert(key, row);
    }

    /// Bulk-load `row` under the `count` keys of `first`'s table from
    /// `first` on, as `count` [`StorageEngine::load`]s in key order would,
    /// but whole pages at a time where it can (see the record store).
    pub fn load_run(&self, first: Key, count: u64, row: Row) {
        self.versions.forget(first, count);
        self.records.borrow_mut().insert_run(first, count, &row);
    }

    /// Read a record's committed value without any transaction (snapshot
    /// for verification only).
    pub fn peek(&self, key: Key) -> Option<Row> {
        self.records.borrow().get(&key)
    }

    /// Number of committed records stored.
    pub fn record_count(&self) -> usize {
        self.records.borrow().len()
    }

    /// Whether the engine is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed.get()
    }

    fn check_available(&self) -> Result<(), StorageError> {
        if self.crashed.get() {
            Err(StorageError::Unavailable)
        } else {
            Ok(())
        }
    }

    /// Current state of a branch, if it exists on this engine.
    pub fn state_of(&self, xid: Xid) -> Option<XaState> {
        self.txns.borrow().get(&xid).map(|t| t.state)
    }

    /// Start a transaction branch (`XA START` / `BEGIN`).
    pub fn begin(&self, xid: Xid) -> Result<(), StorageError> {
        self.check_available()?;
        let mut txns = self.txns.borrow_mut();
        if txns.contains_key(&xid) {
            return Err(StorageError::InvalidState {
                xid,
                reason: "branch already exists",
            });
        }
        let entry = TxnEntry {
            state: XaState::Active,
            writes: self.spare_write_sets.borrow_mut().pop().unwrap_or_default(),
            first_lock_at: None,
            reads: Vec::new(),
            snapshot_ts: None,
        };
        txns.insert(xid, entry);
        self.wal.append(LogRecord::Begin(xid));
        Ok(())
    }

    /// The branch's entry, if it may still execute statements.
    fn active(&self, xid: Xid) -> Result<RefMut<'_, TxnEntry>, StorageError> {
        let reason = "statement execution requires an ACTIVE branch";
        self.entry_if(xid, |state| state == XaState::Active, reason)
    }

    /// The branch's entry, if `allowed` accepts its state; otherwise the
    /// branch is unknown, or in the wrong state for `reason`.
    fn entry_if(
        &self,
        xid: Xid,
        allowed: impl FnOnce(XaState) -> bool,
        reason: &'static str,
    ) -> Result<RefMut<'_, TxnEntry>, StorageError> {
        match RefMut::filter_map(self.txns.borrow_mut(), |txns| txns.get_mut(&xid)) {
            Err(_) => Err(StorageError::UnknownTransaction(xid)),
            Ok(entry) if allowed(entry.state) => Ok(entry),
            Ok(_) => Err(StorageError::InvalidState { xid, reason }),
        }
    }

    #[expect(
        clippy::manual_async_fn,
        reason = "an `async fn` keeps each parameter twice in its future, which nests in every statement's"
    )]
    fn lock(
        &self,
        xid: Xid,
        key: Key,
        mode: LockMode,
    ) -> impl Future<Output = Result<(), StorageError>> + '_ {
        async move {
            match self.locks.acquire(xid, key, mode).await {
                Ok(()) => {
                    let mut txns = self.txns.borrow_mut();
                    if let Some(entry) = txns.get_mut(&xid) {
                        if entry.first_lock_at.is_none() {
                            entry.first_lock_at = Some(now());
                        }
                    }
                    Ok(())
                }
                Err(reason) => Err(StorageError::LockFailed { key, reason }),
            }
        }
    }

    /// Read a record. Under the default 2PL isolation a plain read takes a
    /// shared lock and returns the committed head; under the MVCC levels it
    /// takes no lock and returns the committed version its level sees (see
    /// [`IsolationLevel`]).
    pub fn read(&self, xid: Xid, key: Key) -> impl Future<Output = Result<Row, StorageError>> + '_ {
        self.read_as(xid, key, false)
    }

    /// Read a record under an exclusive lock (`SELECT ... FOR UPDATE`).
    pub fn read_for_update(
        &self,
        xid: Xid,
        key: Key,
    ) -> impl Future<Output = Result<Row, StorageError>> + '_ {
        self.read_as(xid, key, true)
    }

    /// The one read path. A branch always reads its own writes; otherwise a
    /// locked read returns the committed head, and a plain read under an
    /// MVCC level returns the version visible to its pinned snapshot
    /// (`SnapshotRead`) or the head as of now (`ReadCommitted`).
    #[expect(
        clippy::manual_async_fn,
        reason = "an `async fn` keeps each parameter twice in its future, which nests in every statement's"
    )]
    fn read_as(
        &self,
        xid: Xid,
        key: Key,
        for_update: bool,
    ) -> impl Future<Output = Result<Row, StorageError>> + '_ {
        async move {
            self.check_available()?;
            self.active(xid)?;
            let lock_free = !for_update && self.mvcc_enabled();
            let lock = if for_update {
                Some(LockMode::Exclusive)
            } else if lock_free || self.bypass_read_lock() {
                None
            } else {
                Some(LockMode::Shared)
            };
            if let Some(mode) = lock {
                self.lock(xid, key, mode).await?;
            }
            sleep(self.config.cost.statement_execute).await;
            // Re-check after the awaits: the branch may have been aborted (early
            // abort from a peer geo-agent) while this statement was in flight.
            let own = self.active(xid)?.written(key).cloned();
            self.stats.borrow_mut().reads += 1;
            // Read-your-writes creates no inter-transaction dependency and is
            // never recorded.
            if let Some(own) = own {
                return own.ok_or(StorageError::KeyNotFound(key));
            }
            let visible = if lock_free {
                self.stats.borrow_mut().snapshot_reads += 1;
                match self.config.isolation {
                    IsolationLevel::SnapshotRead => {
                        let ts = self.snapshot_ts_of(xid);
                        self.versions.read_at(key, ts)
                    }
                    _ => Some(Visible::Head),
                }
            } else {
                Some(Visible::Head)
            };
            let (row, version) = match visible {
                Some(Visible::Superseded(v)) => (v.row, Some(v.version)),
                // A 2PL plain read that skipped its lock (the fail point) sees
                // the uncommitted value of whichever branch holds the key.
                Some(Visible::Head) if lock.is_none() && !lock_free => {
                    let txns = self.txns.borrow();
                    let dirty = txns.values().find_map(|e| e.written(key)).cloned();
                    let head = || self.records.borrow().get(&key);
                    (dirty.unwrap_or_else(head), None)
                }
                Some(Visible::Head) => (self.records.borrow().get(&key), None),
                None => (None, None),
            };
            let row = row.ok_or(StorageError::KeyNotFound(key))?;
            if self.config.record_history {
                // Exact duplicates are dropped; two observations that *differ*
                // at one version are both kept, as evidence for the checker.
                let version =
                    version.unwrap_or_else(|| self.versions.head_version(key).unwrap_or(0));
                let observed = VersionedValue {
                    version,
                    fingerprint: row_fingerprint(&row),
                };
                let read = ReadAccess { key, observed };
                let mut txns = self.txns.borrow_mut();
                let reads = txns.get_mut(&xid).map(|e| &mut e.reads);
                if let Some(reads) = reads.filter(|reads| !reads.contains(&read)) {
                    reads.push(read);
                }
            }
            Ok(row)
        }
    }

    /// The branch's pinned snapshot timestamp, pinning one (and registering
    /// it with the version store's GC horizon) on the first call.
    fn snapshot_ts_of(&self, xid: Xid) -> u64 {
        let mut txns = self.txns.borrow_mut();
        let Some(entry) = txns.get_mut(&xid) else {
            return now().as_micros();
        };
        *entry.snapshot_ts.get_or_insert_with(|| {
            let ts = now().as_micros();
            self.versions.open_snapshot(ts);
            ts
        })
    }

    /// Checker-validation fail point: make every `stride`-th read on this
    /// engine skip its shared lock (0 disables). This *deliberately breaks
    /// isolation* — a reader can observe a concurrent writer's uncommitted
    /// data — and exists solely so the chaos harness can prove its
    /// serializability checker actually catches bugs (and so its schedule
    /// shrinker has a real failure to minimize). Never set outside tests and
    /// failure drills.
    #[doc(hidden)]
    pub fn fail_point_bypass_read_locks(&self, stride: u64) {
        self.read_bypass_stride.set(stride);
    }

    fn bypass_read_lock(&self) -> bool {
        let stride = self.read_bypass_stride.get();
        if stride == 0 {
            return false;
        }
        let n = self.read_counter.get() + 1;
        self.read_counter.set(n);
        n.is_multiple_of(stride)
    }

    /// The one write path: take the exclusive lock, pay the statement cost,
    /// then let `op` turn the row the branch sees under `key` — its own
    /// uncommitted write, else the committed head — into the key's new value
    /// (`None` = deleted), or refuse: a refusal is a duplicate key if there
    /// was a row, else a missing one. The WAL gets both images; the write set
    /// keeps the new value until commit.
    #[expect(
        clippy::manual_async_fn,
        reason = "an `async fn` keeps each parameter twice in its future, which nests in every statement's"
    )]
    fn write_as<'a, R: 'a>(
        &'a self,
        xid: Xid,
        key: Key,
        op: impl FnOnce(Option<&Row>) -> Option<(Option<Row>, R)> + 'a,
    ) -> impl Future<Output = Result<R, StorageError>> + 'a {
        async move {
            self.check_available()?;
            self.active(xid)?;
            self.lock(xid, key, LockMode::Exclusive).await?;
            sleep(self.config.cost.statement_execute).await;
            let mut entry = self.active(xid)?;
            let slot = entry.writes.iter().position(|(k, _)| *k == key);
            let before = match slot {
                Some(i) => entry.writes[i].1.clone(),
                None => self.records.borrow().get(&key),
            };
            let Some((after, out)) = op(before.as_ref()) else {
                return Err(match before {
                    Some(_) => StorageError::DuplicateKey(key),
                    None => StorageError::KeyNotFound(key),
                });
            };
            match slot {
                Some(i) => entry.writes[i].1 = after.clone(),
                None => entry.writes.push((key, after.clone())),
            }
            self.wal.append(LogRecord::Update {
                xid,
                key,
                before,
                after,
            });
            self.stats.borrow_mut().writes += 1;
            Ok(out)
        }
    }

    /// Insert or overwrite a record under an exclusive lock.
    pub fn write(
        &self,
        xid: Xid,
        key: Key,
        row: Row,
    ) -> impl Future<Output = Result<(), StorageError>> + '_ {
        self.write_as(xid, key, move |_| Some((Some(row), ())))
    }

    /// Insert a record that must not already exist.
    pub fn insert(
        &self,
        xid: Xid,
        key: Key,
        row: Row,
    ) -> impl Future<Output = Result<(), StorageError>> + '_ {
        self.write_as(xid, key, move |before| {
            before.is_none().then_some((Some(row), ()))
        })
    }

    /// Delete a record under an exclusive lock.
    pub fn delete(
        &self,
        xid: Xid,
        key: Key,
    ) -> impl Future<Output = Result<(), StorageError>> + '_ {
        self.write_as(xid, key, |before| before.map(|_| (None, ())))
    }

    /// Add `delta` to integer column `col` of the record (read-modify-write
    /// under an exclusive lock). Returns the new value.
    pub fn add_int(
        &self,
        xid: Xid,
        key: Key,
        col: usize,
        delta: i64,
    ) -> impl Future<Output = Result<i64, StorageError>> + '_ {
        // Three row clones (the before-image, the new value, the write set's
        // copy of it), none of which allocates for the benchmark shapes: a
        // one-column row and a two-integer row are inline. A wider row's
        // clones share its columns — the write copies them once, because
        // the before-image still holds them, and the write set shares the
        // new copy.
        self.write_as(xid, key, move |before| {
            let mut after = before?.clone();
            after.add_int(col, delta);
            let new_value = after.int_at(col).unwrap_or(0);
            Some((Some(after), new_value))
        })
    }

    /// End the execution phase of a branch (`XA END`).
    pub fn end(&self, xid: Xid) -> Result<(), StorageError> {
        self.check_available()?;
        let reason = "XA END requires an ACTIVE branch";
        self.entry_if(xid, |state| state == XaState::Active, reason)?
            .state = XaState::Ended;
        Ok(())
    }

    /// Prepare a branch (`XA PREPARE` / `PREPARE TRANSACTION`): persist the
    /// yes-vote. Allowed from `Ended` (the normal XA path) or directly from
    /// `Active` (PostgreSQL's `PREPARE TRANSACTION` has no separate END).
    pub async fn prepare(&self, xid: Xid) -> Result<(), StorageError> {
        self.check_available()?;
        let reason = "prepare requires an ACTIVE or ENDED branch";
        self.entry_if(xid, |state| state != XaState::Prepared, reason)?
            .state = XaState::Prepared;
        self.wal.append(LogRecord::Prepare(xid));
        sleep(self.config.cost.prepare).await;
        self.flush_wal().await?;
        self.stats.borrow_mut().prepares += 1;
        Ok(())
    }

    /// Make the WAL durable up to this branch's records. With group commit
    /// disabled (the default) this is an immediate solo flush; otherwise the
    /// caller joins the group-commit window and only returns once its
    /// watermark is durable — or with an error if a crash intervened, in
    /// which case the commit must NOT be acknowledged (§V-A: a decision
    /// record lost from the volatile tail aborts on recovery).
    async fn flush_wal(&self) -> Result<(), StorageError> {
        if self.config.group_commit_window.is_zero() {
            self.wal.flush();
            return Ok(());
        }
        self.group_flush().await
    }

    /// Group commit: the first committer to arrive becomes the leader, sleeps
    /// out the commit window, and flushes once on behalf of everyone who
    /// arrived meanwhile (the followers park on the notify). Everyone checks
    /// their own durable watermark — acknowledgement strictly follows
    /// durability.
    async fn group_flush(&self) -> Result<(), StorageError> {
        let target = self.wal.len();
        let epoch0 = self.group.epoch.get();
        loop {
            if self.wal.durable_len() >= target {
                return Ok(());
            }
            if self.crashed.get() || self.group.epoch.get() != epoch0 {
                self.stats.borrow_mut().group_commit_aborted_waits += 1;
                return Err(StorageError::Unavailable);
            }
            if !self.group.leader.get() {
                self.group.leader.set(true);
                sleep(self.config.group_commit_window).await;
                if self.crashed.get() || self.group.epoch.get() != epoch0 {
                    // The crash reset the group state (and truncated the
                    // volatile tail this flush would have covered); the new
                    // epoch's leader flag is not ours to clear.
                    self.stats.borrow_mut().group_commit_aborted_waits += 1;
                    return Err(StorageError::Unavailable);
                }
                self.group.leader.set(false);
                let batch = self.group.pending.replace(0) + 1;
                self.wal.flush_group(batch);
                self.group.notify.notify_waiters();
                return Ok(());
            }
            self.group.pending.set(self.group.pending.get() + 1);
            self.group.notify.notified().await;
        }
    }

    fn finish(&self, xid: Xid, committed: bool) {
        let entry = self.txns.borrow_mut().remove(&xid);
        let Some(mut entry) = entry else { return };
        if let Some(ts) = entry.snapshot_ts {
            self.versions.close_snapshot(ts);
        }
        if committed {
            self.apply(xid, &mut entry);
        }
        self.locks.release_all_with(xid, |_, _| {});
        let mut stats = self.stats.borrow_mut();
        if let Some(first) = entry.first_lock_at {
            let span = now().duration_since(first);
            stats.total_contention_span_micros += span.as_micros() as u64;
            stats.contention_span_samples += 1;
        }
        if committed {
            stats.commits += 1;
        } else {
            stats.aborts += 1;
        }
        entry.writes.clear();
        self.spare_write_sets.borrow_mut().push(entry.writes);
    }

    /// Commit-time apply: every key the branch wrote moves its value from
    /// the write set to the record pages and, where versions are stamped,
    /// installs the key's next committed version — every key at the *same*
    /// commit instant, so the whole commit is atomic in snapshot space. With
    /// history recording on, the branch's access history becomes part of
    /// [`StorageEngine::committed_history`]. Runs atomically with the lock
    /// release in [`StorageEngine::finish`] — under strict 2PL no other
    /// branch can touch these keys until the locks drop, so version order
    /// per key equals commit order.
    fn apply(&self, xid: Xid, entry: &mut TxnEntry) {
        // The history recorder numbers versions and the MVCC levels keep
        // superseded ones; plain 2PL needs neither.
        let stamps = self.config.record_history || self.mvcc_enabled();
        let commit_ts = now().as_micros();
        // Collected only for the history recorder: a plain commit applies
        // its writes without allocating.
        let mut writes: Vec<WriteAccess> = Vec::new();
        for (key, after) in entry.writes.drain(..) {
            let live = after.is_some();
            let fingerprint = (self.config.record_history).then(|| {
                after
                    .as_ref()
                    .map_or(TOMBSTONE_FINGERPRINT, row_fingerprint)
            });
            let before = match after {
                Some(row) => self.records.borrow_mut().insert(key, row),
                None => self.records.borrow_mut().remove(&key),
            };
            if stamps {
                let version = self.versions.install(key, commit_ts, before, live);
                if let Some(fingerprint) = fingerprint {
                    let installed = VersionedValue {
                        version,
                        fingerprint,
                    };
                    writes.push(WriteAccess { key, installed });
                }
            }
        }
        if self.config.record_history {
            self.history.borrow_mut().push(BranchHistory {
                xid,
                reads: std::mem::take(&mut entry.reads),
                writes,
            });
        }
    }

    /// The versioned access histories of every branch committed on this
    /// engine, in commit order. Empty unless
    /// [`EngineConfig::record_history`] is set.
    pub fn committed_history(&self) -> Vec<BranchHistory> {
        self.history.borrow().clone()
    }

    /// Fingerprints of the bulk-loaded (version 0) values, for validating
    /// reads that observed version 0. Empty unless
    /// [`EngineConfig::record_history`] is set.
    pub fn base_fingerprints(&self) -> FxHashMap<Key, u64> {
        if !self.config.record_history {
            return FxHashMap::default();
        }
        let mut bases: FxHashMap<Key, u64> = self
            .records
            .borrow()
            .iter()
            .map(|(key, row)| (key, row_fingerprint(&row)))
            .collect();
        for (key, base) in self.versions.bases() {
            match base {
                Some(fingerprint) => bases.insert(key, fingerprint),
                None => bases.remove(&key),
            };
        }
        bases
    }

    /// Snapshot every committed record of `table`, sorted by key — for
    /// workload-level consistency checkers (e.g. TPC-C's warehouse/district
    /// conditions) that need to aggregate over final state.
    pub fn snapshot_table(&self, table: TableId) -> Vec<(Key, Row)> {
        let mut rows: Vec<(Key, Row)> = self
            .records
            .borrow()
            .iter()
            .filter(|(k, _)| k.table == table)
            .collect();
        rows.sort_by_key(|(k, _)| *k);
        rows
    }

    /// Commit a branch. One-phase commit (`one_phase = true`) is allowed from
    /// `Active`/`Ended` and is what centralized transactions and the
    /// SSP(local) baseline use; two-phase commit requires `Prepared`.
    pub async fn commit(&self, xid: Xid, one_phase: bool) -> Result<(), StorageError> {
        self.check_available()?;
        let reason = "commit requires PREPARED (or ACTIVE/ENDED with one-phase)";
        self.entry_if(xid, |state| one_phase || state == XaState::Prepared, reason)?;
        self.wal.append(LogRecord::Commit(xid));
        sleep(self.config.cost.decision_apply).await;
        self.flush_wal().await?;
        self.finish(xid, true);
        Ok(())
    }

    /// Commit a branch that performed no writes. Valid from `Active`/`Ended`;
    /// pays no WAL append, no flush and no decision-apply cost — a read-only
    /// branch needs no durable decision (there is nothing to redo or undo).
    /// Its recorded reads still enter the committed history, so the
    /// serializability checker sees the snapshot it observed.
    pub fn commit_read_only(&self, xid: Xid) -> Result<(), StorageError> {
        self.check_available()?;
        let reason = "read-only commit requires an ACTIVE or ENDED branch";
        if !self
            .entry_if(xid, |state| state != XaState::Prepared, reason)?
            .writes
            .is_empty()
        {
            return Err(StorageError::InvalidState {
                xid,
                reason: "read-only commit on a branch that wrote",
            });
        }
        // The decision record keeps WAL compaction effective (the branch's
        // Begin would otherwise pin log space forever); it needs no flush.
        self.wal.append(LogRecord::Commit(xid));
        self.finish(xid, true);
        Ok(())
    }

    /// Roll back a branch in any state. Its writes never reached the record
    /// pages, so dropping its write set undoes them.
    pub async fn rollback(&self, xid: Xid) -> Result<(), StorageError> {
        self.check_available()?;
        self.txns
            .borrow_mut()
            .get_mut(&xid)
            .ok_or(StorageError::UnknownTransaction(xid))?
            .writes
            .clear();
        self.wal.append(LogRecord::Abort(xid));
        sleep(self.config.cost.decision_apply).await;
        self.flush_wal().await?;
        self.finish(xid, false);
        geotp_telemetry::counter_add("storage.branch_rollbacks", "", xid.bqual, 1);
        Ok(())
    }

    /// Branches still in a pre-prepare state (`ACTIVE`/`ENDED`): work that
    /// is neither decided nor recoverable via `XA RECOVER`. After a harness
    /// heals and drains, any such branch is abandoned — it holds locks and
    /// uncommitted writes forever — so liveness checkers flag them.
    pub fn unfinished_xids(&self) -> Vec<Xid> {
        self.xids_where(|_, state| state != XaState::Prepared)
    }

    /// Branches currently in the `Prepared` state (`XA RECOVER`).
    pub fn prepared_xids(&self) -> Vec<Xid> {
        self.xids_where(|_, state| state == XaState::Prepared)
    }

    /// The branches `keep` selects, in xid order.
    fn xids_where(&self, keep: impl Fn(Xid, XaState) -> bool) -> Vec<Xid> {
        let mut xids: Vec<Xid> = self
            .txns
            .borrow()
            .iter()
            .filter(|(xid, entry)| keep(**xid, entry.state))
            .map(|(xid, _)| *xid)
            .collect();
        xids.sort();
        xids
    }

    /// Simulate a crash: volatile WAL tail is lost and the engine stops
    /// serving requests until [`StorageEngine::restart`]. Sessions blocked in
    /// a lock wait are kicked out immediately (their connections died with
    /// the server), so no task is left parked on a queue nobody will ever
    /// promote again.
    pub fn crash(&self) {
        self.crashed.set(true);
        self.wal.truncate_to_durable();
        self.locks.cancel_all_waiters();
        // Reset the group-commit window: the epoch bump makes every parked
        // committer (leader mid-window or follower on the notify) fail
        // instead of acknowledging a commit whose record was just truncated
        // from the volatile tail.
        self.group.epoch.set(self.group.epoch.get() + 1);
        self.group.pending.set(0);
        self.group.leader.set(false);
        self.group.notify.notify_waiters();
    }

    /// Restart after a crash: branches whose prepare record is durable come
    /// back in the `Prepared` state (locks re-acquired implicitly by keeping
    /// their entries); every other branch is rolled back (setting ❷).
    pub async fn restart(&self) -> Vec<Xid> {
        self.crashed.set(false);
        let durable_prepared = self.wal.prepared_but_undecided();
        // Roll back branches that never reached a durable prepare.
        for xid in self.xids_where(|xid, _| !durable_prepared.contains(&xid)) {
            let _ = self.rollback(xid).await;
        }
        // Branches with a durable prepare survive in Prepared state.
        let mut txns = self.txns.borrow_mut();
        for xid in &durable_prepared {
            if let Some(entry) = txns.get_mut(xid) {
                entry.state = XaState::Prepared;
            }
        }
        durable_prepared
    }

    /// Reference to the write-ahead log (tests and recovery audits).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TableId;
    use geotp_simrt::{spawn, Runtime};

    impl StorageEngine {
        /// The committed version currently installed for `key`: its stamped
        /// version (0 if never written since load) and the fingerprint of its
        /// row in the pages (the tombstone's if deleted). `None` for a key
        /// never loaded or written, and unless `record_history` is set.
        fn committed_version(&self, key: Key) -> Option<VersionedValue> {
            let version = self.versions.head_version(key);
            let fingerprint = self.records.borrow().get(&key).map(|r| row_fingerprint(&r));
            let known = self.config.record_history && (version.is_some() || fingerprint.is_some());
            known.then(|| VersionedValue {
                version: version.unwrap_or(0),
                fingerprint: fingerprint.unwrap_or(TOMBSTONE_FINGERPRINT),
            })
        }
    }

    fn key(row: u64) -> Key {
        Key::new(TableId(0), row)
    }
    fn xid(n: u64) -> Xid {
        Xid::new(n, 0)
    }

    fn engine() -> Rc<StorageEngine> {
        let eng = StorageEngine::new(EngineConfig {
            lock_wait_timeout: Duration::from_secs(5),
            cost: CostModel::zero(),
            record_history: false,
            ..EngineConfig::default()
        });
        eng.load(key(1), Row::int(100));
        eng.load(key(2), Row::int(200));
        eng
    }

    #[test]
    fn read_write_commit_cycle() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.begin(xid(1)).unwrap();
            assert_eq!(
                eng.read(xid(1), key(1)).await.unwrap().int_value(),
                Some(100)
            );
            eng.add_int(xid(1), key(1), 0, -30).await.unwrap();
            eng.end(xid(1)).unwrap();
            eng.prepare(xid(1)).await.unwrap();
            eng.commit(xid(1), false).await.unwrap();
            assert_eq!(eng.peek(key(1)).unwrap().int_value(), Some(70));
            let s = eng.stats();
            assert_eq!((s.reads, s.writes, s.prepares, s.commits), (1, 1, 1, 1));
        });
    }

    #[test]
    fn rollback_undoes_all_writes_in_reverse_order() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 11).await.unwrap();
            eng.add_int(xid(1), key(1), 0, 22).await.unwrap();
            eng.write(xid(1), key(2), Row::int(999)).await.unwrap();
            eng.insert(xid(1), key(3), Row::int(5)).await.unwrap();
            eng.rollback(xid(1)).await.unwrap();
            assert_eq!(eng.peek(key(1)).unwrap().int_value(), Some(100));
            assert_eq!(eng.peek(key(2)).unwrap().int_value(), Some(200));
            assert!(eng.peek(key(3)).is_none());
            assert_eq!(eng.stats().aborts, 1);
        });
    }

    #[test]
    fn locks_block_concurrent_writer_until_commit() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 1).await.unwrap();

            let eng2 = Rc::clone(&eng);
            let other = spawn(async move {
                eng2.begin(xid(2)).unwrap();
                let started = now();
                eng2.add_int(xid(2), key(1), 0, 5).await.unwrap();
                eng2.commit(xid(2), true).await.unwrap();
                now().duration_since(started)
            });

            geotp_simrt::sleep(Duration::from_millis(80)).await;
            eng.end(xid(1)).unwrap();
            eng.prepare(xid(1)).await.unwrap();
            eng.commit(xid(1), false).await.unwrap();

            let blocked_for = other.await;
            assert!(blocked_for >= Duration::from_millis(80));
            assert_eq!(eng.peek(key(1)).unwrap().int_value(), Some(106));
        });
    }

    #[test]
    fn statement_after_prepare_is_rejected() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.begin(xid(1)).unwrap();
            eng.prepare(xid(1)).await.unwrap();
            let err = eng.read(xid(1), key(1)).await.unwrap_err();
            assert!(matches!(err, StorageError::InvalidState { .. }));
        });
    }

    #[test]
    fn two_phase_commit_requires_prepare() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.begin(xid(1)).unwrap();
            eng.end(xid(1)).unwrap();
            let err = eng.commit(xid(1), false).await.unwrap_err();
            assert!(matches!(err, StorageError::InvalidState { .. }));
            // One-phase commit from ENDED is fine (centralized transactions).
            eng.commit(xid(1), true).await.unwrap();
        });
    }

    #[test]
    fn duplicate_begin_and_unknown_xid_errors() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.begin(xid(1)).unwrap();
            assert!(matches!(
                eng.begin(xid(1)).unwrap_err(),
                StorageError::InvalidState { .. }
            ));
            assert!(matches!(
                eng.read(xid(9), key(1)).await.unwrap_err(),
                StorageError::UnknownTransaction(_)
            ));
            assert!(matches!(
                eng.commit(xid(9), true).await.unwrap_err(),
                StorageError::UnknownTransaction(_)
            ));
        });
    }

    #[test]
    fn insert_duplicate_and_delete_missing() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.begin(xid(1)).unwrap();
            assert!(matches!(
                eng.insert(xid(1), key(1), Row::int(1)).await.unwrap_err(),
                StorageError::DuplicateKey(_)
            ));
            assert!(matches!(
                eng.delete(xid(1), key(77)).await.unwrap_err(),
                StorageError::KeyNotFound(_)
            ));
            eng.delete(xid(1), key(2)).await.unwrap();
            eng.rollback(xid(1)).await.unwrap();
            assert!(
                eng.peek(key(2)).is_some(),
                "delete must be undone by rollback"
            );
        });
    }

    #[test]
    fn lock_timeout_surfaces_as_lock_failed() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = StorageEngine::new(EngineConfig {
                lock_wait_timeout: Duration::from_millis(50),
                cost: CostModel::zero(),
                record_history: false,
                ..EngineConfig::default()
            });
            eng.load(key(1), Row::int(0));
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 1).await.unwrap();
            eng.begin(xid(2)).unwrap();
            let err = eng.add_int(xid(2), key(1), 0, 1).await.unwrap_err();
            assert!(matches!(
                err,
                StorageError::LockFailed {
                    reason: crate::lock::LockError::Timeout,
                    ..
                }
            ));
        });
    }

    #[test]
    fn prepared_and_unfinished_xids_partition_the_undecided_branches() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.load(key(3), Row::int(300));
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 1).await.unwrap();
            eng.prepare(xid(1)).await.unwrap();

            // Begun out of order: both lists come back sorted.
            eng.begin(xid(3)).unwrap();
            eng.add_int(xid(3), key(3), 0, 1).await.unwrap();
            eng.begin(xid(2)).unwrap();
            eng.add_int(xid(2), key(2), 0, 1).await.unwrap();
            eng.end(xid(2)).unwrap();

            // ACTIVE and ENDED are unfinished; PREPARED is recoverable only.
            assert_eq!(eng.prepared_xids(), vec![xid(1)]);
            assert_eq!(eng.unfinished_xids(), vec![xid(2), xid(3)]);

            for victim in eng.unfinished_xids() {
                eng.rollback(victim).await.unwrap();
            }
            assert!(eng.unfinished_xids().is_empty());
            assert_eq!(eng.peek(key(2)).unwrap().int_value(), Some(200));
            assert_eq!(eng.peek(key(3)).unwrap().int_value(), Some(300));
            // The prepared branch is untouched.
            assert_eq!(eng.prepared_xids(), vec![xid(1)]);

            // A decided branch leaves both lists.
            eng.commit(xid(1), false).await.unwrap();
            assert!(eng.prepared_xids().is_empty());
            assert!(eng.unfinished_xids().is_empty());
        });
    }

    #[test]
    fn crash_loses_unprepared_work_and_keeps_prepared() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            // Branch 1: prepared (durable vote).
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 50).await.unwrap();
            eng.prepare(xid(1)).await.unwrap();
            // Branch 2: still active.
            eng.begin(xid(2)).unwrap();
            eng.add_int(xid(2), key(2), 0, 50).await.unwrap();

            eng.crash();
            assert!(eng.is_crashed());
            assert!(matches!(
                eng.begin(xid(3)).unwrap_err(),
                StorageError::Unavailable
            ));

            let recovered = eng.restart().await;
            assert_eq!(recovered, vec![xid(1)]);
            assert_eq!(eng.state_of(xid(1)), Some(XaState::Prepared));
            // Branch 2 was rolled back, its write undone.
            assert_eq!(eng.peek(key(2)).unwrap().int_value(), Some(200));
            // The prepared branch can still be committed after recovery.
            eng.commit(xid(1), false).await.unwrap();
            assert_eq!(eng.peek(key(1)).unwrap().int_value(), Some(150));
        });
    }

    #[test]
    fn crash_kicks_out_blocked_lock_waiters() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = StorageEngine::new(EngineConfig {
                lock_wait_timeout: Duration::from_secs(60),
                cost: CostModel::zero(),
                record_history: false,
                ..EngineConfig::default()
            });
            eng.load(key(1), Row::int(0));
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 1).await.unwrap();

            let eng2 = Rc::clone(&eng);
            let blocked = spawn(async move {
                eng2.begin(xid(2)).unwrap();
                eng2.add_int(xid(2), key(1), 0, 1).await
            });
            geotp_simrt::sleep(Duration::from_millis(5)).await;
            eng.crash();
            // The waiter fails immediately with a cancellation — it must not
            // sit parked until the 60s lock timeout (its connection is dead).
            let err = blocked.await.unwrap_err();
            assert!(matches!(
                err,
                StorageError::LockFailed {
                    reason: crate::lock::LockError::Cancelled,
                    ..
                }
            ));
            assert_eq!(now().as_micros(), 5_000, "failure was immediate");
        });
    }

    #[test]
    fn contention_span_matches_hold_duration() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 1).await.unwrap();
            geotp_simrt::sleep(Duration::from_millis(120)).await;
            eng.commit(xid(1), true).await.unwrap();
            let s = eng.stats();
            assert_eq!(s.contention_span_samples, 1);
            assert_eq!(s.total_contention_span_micros, 120_000);
        });
    }

    fn history_engine() -> Rc<StorageEngine> {
        let eng = StorageEngine::new(EngineConfig {
            lock_wait_timeout: Duration::from_secs(5),
            cost: CostModel::zero(),
            record_history: true,
            ..EngineConfig::default()
        });
        eng.load(key(1), Row::int(100));
        eng.load(key(2), Row::int(200));
        eng
    }

    #[test]
    fn history_records_versions_in_commit_order() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = history_engine();
            // T1 reads key1@v0 and writes key2 (installs v1).
            eng.begin(xid(1)).unwrap();
            eng.read(xid(1), key(1)).await.unwrap();
            eng.add_int(xid(1), key(2), 0, 5).await.unwrap();
            eng.commit(xid(1), true).await.unwrap();
            // T2 reads key2@v1 and writes it again (installs v2).
            eng.begin(xid(2)).unwrap();
            eng.read(xid(2), key(2)).await.unwrap();
            eng.add_int(xid(2), key(2), 0, 1).await.unwrap();
            eng.commit(xid(2), true).await.unwrap();

            let history = eng.committed_history();
            assert_eq!(history.len(), 2);
            let t1 = &history[0];
            assert_eq!(t1.xid, xid(1));
            assert_eq!(t1.reads.len(), 1);
            assert_eq!(t1.reads[0].key, key(1));
            assert_eq!(t1.reads[0].observed.version, 0);
            assert_eq!(t1.writes.len(), 1);
            assert_eq!(t1.writes[0].installed.version, 1);
            let t2 = &history[1];
            // T2's read observed T1's installed version, fingerprint and all.
            assert_eq!(t2.reads[0].observed, t1.writes[0].installed);
            assert_eq!(t2.writes[0].installed.version, 2);
            assert_eq!(
                eng.committed_version(key(2)).unwrap(),
                t2.writes[0].installed
            );
        });
    }

    #[test]
    fn history_skips_own_writes_and_aborted_branches() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = history_engine();
            // Write-then-read of the same key: the read observes the branch's
            // own uncommitted data and must not be recorded.
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 9).await.unwrap();
            eng.read(xid(1), key(1)).await.unwrap();
            eng.commit(xid(1), true).await.unwrap();
            // An aborted branch leaves no history at all.
            eng.begin(xid(2)).unwrap();
            eng.read(xid(2), key(2)).await.unwrap();
            eng.add_int(xid(2), key(2), 0, 1).await.unwrap();
            eng.rollback(xid(2)).await.unwrap();

            let history = eng.committed_history();
            assert_eq!(history.len(), 1);
            assert!(history[0].reads.is_empty(), "own-write read was recorded");
            assert_eq!(history[0].writes.len(), 1);
            // The rollback did not bump key2's version.
            assert_eq!(eng.committed_version(key(2)).unwrap().version, 0);
        });
    }

    #[test]
    fn history_delete_installs_tombstone_fingerprint() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = history_engine();
            eng.begin(xid(1)).unwrap();
            eng.delete(xid(1), key(1)).await.unwrap();
            eng.commit(xid(1), true).await.unwrap();
            let v = eng.committed_version(key(1)).unwrap();
            assert_eq!(v.version, 1);
            assert_eq!(v.fingerprint, crate::history::TOMBSTONE_FINGERPRINT);
        });
    }

    #[test]
    fn read_lock_bypass_fail_point_permits_dirty_reads() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = history_engine();
            eng.fail_point_bypass_read_locks(1); // every read skips its lock
                                                 // Writer holds the exclusive lock with uncommitted data...
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 77).await.unwrap();
            // ...and a lock-bypassing reader sees it anyway (dirty read).
            eng.begin(xid(2)).unwrap();
            let dirty = eng.read(xid(2), key(1)).await.unwrap();
            assert_eq!(dirty.int_value(), Some(177));
            eng.commit(xid(2), true).await.unwrap();
            eng.rollback(xid(1)).await.unwrap();
            // The reader's recorded fingerprint does not match any committed
            // version of the key — exactly what the checker detects.
            let history = eng.committed_history();
            let observed = history[0].reads[0].observed;
            assert_eq!(observed.version, 0, "claimed the committed version");
            assert_ne!(
                observed.fingerprint,
                eng.committed_version(key(1)).unwrap().fingerprint,
                "but saw uncommitted data"
            );
        });
    }

    #[test]
    fn snapshot_table_is_sorted_and_filtered() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = history_engine();
            eng.load(Key::new(TableId(7), 3), Row::int(1));
            eng.load(Key::new(TableId(7), 1), Row::int(2));
            let snap = eng.snapshot_table(TableId(7));
            assert_eq!(snap.len(), 2);
            assert_eq!(snap[0].0.row, 1);
            assert_eq!(snap[1].0.row, 3);
            assert_eq!(eng.snapshot_table(TableId(0)).len(), 2);
        });
    }

    #[test]
    fn record_count_is_exact_through_rollbacks() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = engine();
            assert_eq!(eng.record_count(), 2);
            // Inserts into the loaded rows' page and into a new one; a
            // refused duplicate changes nothing. Uncommitted rows are not
            // counted, and a rollback leaves nothing behind.
            for (n, commit) in [(1, false), (2, true)] {
                eng.begin(xid(n)).unwrap();
                eng.insert(xid(n), key(3), Row::int(3)).await.unwrap();
                eng.insert(xid(n), key(640), Row::int(640)).await.unwrap();
                assert!(eng.insert(xid(n), key(3), Row::int(0)).await.is_err());
                assert_eq!(eng.record_count(), 2);
                if commit {
                    eng.commit(xid(n), true).await.unwrap();
                } else {
                    eng.rollback(xid(n)).await.unwrap();
                    assert!(eng.peek(key(640)).is_none());
                }
            }
            assert_eq!(eng.record_count(), 4);
            // Deleting every row of a page empties it at commit; a rolled-back
            // delete keeps it whole.
            for (n, commit) in [(3, false), (4, true)] {
                eng.begin(xid(n)).unwrap();
                for row in [1, 2, 3] {
                    eng.delete(xid(n), key(row)).await.unwrap();
                }
                assert_eq!(eng.record_count(), 4);
                if commit {
                    eng.commit(xid(n), true).await.unwrap();
                } else {
                    eng.rollback(xid(n)).await.unwrap();
                    assert_eq!(eng.peek(key(1)).unwrap().int_value(), Some(100));
                }
            }
            assert_eq!(eng.record_count(), 1);
            assert_eq!(eng.peek(key(640)).unwrap().int_value(), Some(640));
        });
    }

    fn mvcc_engine(isolation: IsolationLevel) -> Rc<StorageEngine> {
        let eng = StorageEngine::new(EngineConfig {
            lock_wait_timeout: Duration::from_secs(5),
            cost: CostModel::zero(),
            record_history: true,
            isolation,
            ..EngineConfig::default()
        });
        eng.load(key(1), Row::int(100));
        eng.load(key(2), Row::int(200));
        eng
    }

    #[test]
    fn snapshot_reads_do_not_block_on_writers() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = mvcc_engine(IsolationLevel::SnapshotRead);
            // Writer holds the exclusive lock with uncommitted data...
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 77).await.unwrap();
            // ...and a snapshot reader neither blocks nor sees it.
            eng.begin(xid(2)).unwrap();
            let started = now();
            let row = eng.read(xid(2), key(1)).await.unwrap();
            assert_eq!(now(), started, "the read must not wait on any lock");
            assert_eq!(row.int_value(), Some(100));
            assert_eq!(eng.stats().snapshot_reads, 1);
            eng.commit_read_only(xid(2)).unwrap();
            eng.commit(xid(1), true).await.unwrap();
        });
    }

    #[test]
    fn snapshot_read_pins_a_repeatable_snapshot() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = mvcc_engine(IsolationLevel::SnapshotRead);
            eng.begin(xid(2)).unwrap();
            assert_eq!(
                eng.read(xid(2), key(1)).await.unwrap().int_value(),
                Some(100)
            );
            // A concurrent writer commits a new version...
            geotp_simrt::sleep(Duration::from_millis(1)).await;
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 50).await.unwrap();
            eng.commit(xid(1), true).await.unwrap();
            assert_eq!(eng.peek(key(1)).unwrap().int_value(), Some(150));
            // ...which the pinned snapshot must not observe.
            assert_eq!(
                eng.read(xid(2), key(1)).await.unwrap().int_value(),
                Some(100)
            );
            eng.commit_read_only(xid(2)).unwrap();
            // A fresh branch snapshots after the commit and sees it.
            eng.begin(xid(3)).unwrap();
            assert_eq!(
                eng.read(xid(3), key(1)).await.unwrap().int_value(),
                Some(150)
            );
            eng.commit_read_only(xid(3)).unwrap();
        });
    }

    #[test]
    fn read_committed_observes_each_new_commit() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = mvcc_engine(IsolationLevel::ReadCommitted);
            eng.begin(xid(2)).unwrap();
            assert_eq!(
                eng.read(xid(2), key(1)).await.unwrap().int_value(),
                Some(100)
            );
            geotp_simrt::sleep(Duration::from_millis(1)).await;
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 50).await.unwrap();
            eng.commit(xid(1), true).await.unwrap();
            // Non-repeatable read: the same branch sees the new version.
            assert_eq!(
                eng.read(xid(2), key(1)).await.unwrap().int_value(),
                Some(150)
            );
            eng.commit_read_only(xid(2)).unwrap();
        });
    }

    #[test]
    fn mvcc_reads_observe_own_uncommitted_writes() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = mvcc_engine(IsolationLevel::SnapshotRead);
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 5).await.unwrap();
            // Read-your-writes inside the branch, lock-free for other keys.
            assert_eq!(
                eng.read(xid(1), key(1)).await.unwrap().int_value(),
                Some(105)
            );
            eng.commit(xid(1), true).await.unwrap();
            // The own-write read is not part of the committed history.
            let history = eng.committed_history();
            assert_eq!(history.len(), 1);
            assert!(history[0].reads.is_empty());
        });
    }

    #[test]
    fn versioned_reads_record_the_real_chain_version() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = mvcc_engine(IsolationLevel::SnapshotRead);
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 1).await.unwrap();
            eng.commit(xid(1), true).await.unwrap();
            geotp_simrt::sleep(Duration::from_millis(1)).await;
            eng.begin(xid(2)).unwrap();
            eng.read(xid(2), key(1)).await.unwrap();
            eng.add_int(xid(2), key(2), 0, 1).await.unwrap();
            eng.commit(xid(2), true).await.unwrap();
            let history = eng.committed_history();
            // T2's read observed T1's installed version (v1), the head whose
            // stamp the version store keeps.
            assert_eq!(history[1].reads[0].observed, history[0].writes[0].installed);
            let installed = history[0].writes[0].installed;
            assert_eq!(
                eng.version_store().head_version(key(1)),
                Some(installed.version)
            );
            assert_eq!(eng.committed_version(key(1)), Some(installed));
        });
    }

    #[test]
    fn snapshot_gc_reclaims_versions_behind_the_horizon() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = mvcc_engine(IsolationLevel::SnapshotRead);
            for n in 0..10 {
                geotp_simrt::sleep(Duration::from_millis(1)).await;
                eng.begin(xid(10 + n)).unwrap();
                eng.add_int(xid(10 + n), key(1), 0, 1).await.unwrap();
                eng.commit(xid(10 + n), true).await.unwrap();
            }
            // No snapshot is open: an explicit GC collapses the chain.
            eng.version_store().gc();
            assert_eq!(eng.version_store().chain_len(key(1)), 1);
            assert!(eng.version_store().stats().versions_gced >= 9);
        });
    }

    fn group_commit_engine(window: Duration) -> Rc<StorageEngine> {
        let eng = StorageEngine::new(EngineConfig {
            lock_wait_timeout: Duration::from_secs(5),
            cost: CostModel::zero(),
            record_history: false,
            group_commit_window: window,
            ..EngineConfig::default()
        });
        for n in 1..=8 {
            eng.load(key(n), Row::int(0));
        }
        eng
    }

    #[test]
    fn group_commit_amortizes_one_flush_across_committers() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = group_commit_engine(Duration::from_millis(1));
            let mut handles = Vec::new();
            for n in 1..=8 {
                let eng = Rc::clone(&eng);
                handles.push(spawn(async move {
                    eng.begin(xid(n)).unwrap();
                    eng.add_int(xid(n), key(n), 0, 1).await.unwrap();
                    eng.commit(xid(n), true).await.unwrap();
                }));
            }
            for h in handles {
                h.await;
            }
            assert_eq!(eng.stats().commits, 8);
            assert_eq!(
                eng.wal().flush_count(),
                1,
                "eight concurrent commits share one group flush"
            );
            // Acknowledgement strictly followed durability.
            assert_eq!(eng.wal().durable_len(), eng.wal().len());
        });
    }

    #[test]
    fn crash_inside_the_commit_window_aborts_unacknowledged_commits() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = group_commit_engine(Duration::from_millis(10));
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 1).await.unwrap();
            let eng2 = Rc::clone(&eng);
            let committer = spawn(async move { eng2.commit(xid(1), true).await });
            // The Commit record sits in the volatile tail, parked on the
            // commit window, when the crash hits.
            geotp_simrt::sleep(Duration::from_millis(2)).await;
            eng.crash();
            let err = committer.await.unwrap_err();
            assert!(matches!(err, StorageError::Unavailable));
            assert!(eng.stats().group_commit_aborted_waits >= 1);
            // §V-A: the unacknowledged commit rolls back on recovery.
            eng.restart().await;
            assert_eq!(eng.peek(key(1)).unwrap().int_value(), Some(0));
            assert_eq!(eng.stats().commits, 0);
        });
    }

    #[test]
    fn commit_read_only_needs_no_flush_but_keeps_history() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = mvcc_engine(IsolationLevel::SnapshotRead);
            eng.begin(xid(1)).unwrap();
            eng.read(xid(1), key(1)).await.unwrap();
            eng.commit_read_only(xid(1)).unwrap();
            assert_eq!(eng.wal().flush_count(), 0, "nothing to make durable");
            assert_eq!(eng.stats().commits, 1);
            // The reads still enter the committed history for the checker.
            let history = eng.committed_history();
            assert_eq!(history.len(), 1);
            assert_eq!(history[0].reads.len(), 1);
            assert!(history[0].writes.is_empty());
            // A branch that wrote must be refused.
            eng.begin(xid(2)).unwrap();
            eng.add_int(xid(2), key(2), 0, 1).await.unwrap();
            assert!(matches!(
                eng.commit_read_only(xid(2)).unwrap_err(),
                StorageError::InvalidState { .. }
            ));
            eng.rollback(xid(2)).await.unwrap();
        });
    }

    #[test]
    fn costs_are_charged_in_virtual_time() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let eng = StorageEngine::new(EngineConfig {
                lock_wait_timeout: Duration::from_secs(5),
                cost: CostModel {
                    statement_execute: Duration::from_millis(1),
                    prepare: Duration::from_millis(2),
                    decision_apply: Duration::from_millis(3),
                },
                record_history: false,
                ..EngineConfig::default()
            });
            eng.load(key(1), Row::int(0));
            let start = now();
            eng.begin(xid(1)).unwrap();
            eng.add_int(xid(1), key(1), 0, 1).await.unwrap();
            eng.end(xid(1)).unwrap();
            eng.prepare(xid(1)).await.unwrap();
            eng.commit(xid(1), false).await.unwrap();
            assert_eq!(now().duration_since(start), Duration::from_millis(6));
        });
    }
}
