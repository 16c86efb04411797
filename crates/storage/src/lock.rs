//! Strict two-phase-locking record lock manager.
//!
//! Matches the behaviour the paper assumes from MySQL/PostgreSQL under
//! serializable isolation:
//!
//! * shared locks for reads (`SELECT ... FOR SHARE` after the middleware's
//!   rewrite), exclusive locks for writes;
//! * FIFO wait queues per record, with lock upgrades (S→X) allowed only for a
//!   sole holder;
//! * a lock-wait timeout (default 5 s, the paper's configuration) after which
//!   the waiter fails and its transaction must abort — this is also the only
//!   deadlock-resolution mechanism, exactly like InnoDB's default;
//! * all locks are released only when the transaction commits or aborts
//!   (strict 2PL), so the lock contention span of Eq. (1) emerges naturally.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use geotp_simrt::hash::FxHashMap;
use geotp_simrt::sync::oneshot;
use geotp_simrt::{now, timeout, SimInstant};

use crate::small_vec::SmallVec;
use crate::types::{Key, Xid};

/// Lock mode requested on a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock: compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock: incompatible with everything.
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Why a lock acquisition failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// The lock-wait timeout elapsed (the data source would return
    /// `ER_LOCK_WAIT_TIMEOUT`); the transaction must abort.
    Timeout,
    /// The waiting transaction was aborted while queued (early abort).
    Cancelled,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Timeout => write!(f, "lock wait timeout exceeded"),
            LockError::Cancelled => write!(f, "lock wait cancelled (transaction aborted)"),
        }
    }
}

impl std::error::Error for LockError {}

struct Waiter {
    xid: Xid,
    mode: LockMode,
    waiter_id: u64,
    grant: oneshot::Sender<Result<(), LockError>>,
}

#[derive(Default)]
struct LockEntry {
    /// Current holders. Either any number of `Shared` holders or exactly one
    /// `Exclusive` holder. The single-holder common case stays inline, so an
    /// uncontended acquire allocates nothing.
    holders: SmallVec<(Xid, LockMode), 2>,
    waiters: VecDeque<Waiter>,
    /// Virtual instant at which the *current holder group* first acquired the
    /// record, used to measure lock contention spans.
    acquired_at: Option<SimInstant>,
}

impl LockEntry {
    fn holds(&self, xid: Xid) -> Option<LockMode> {
        self.holders.iter().find(|(h, _)| *h == xid).map(|(_, m)| m)
    }

    fn can_grant(&self, xid: Xid, mode: LockMode) -> bool {
        if self.holders.is_empty() {
            return true;
        }
        match mode {
            LockMode::Shared => {
                // Grantable if every holder is shared-compatible; waiting
                // writers do not block new readers here only when the queue is
                // empty (FIFO fairness — avoid writer starvation).
                self.holders
                    .iter()
                    .all(|(h, m)| h == xid || m.compatible(LockMode::Shared))
                    && self.waiters.is_empty()
            }
            LockMode::Exclusive => {
                // Grantable only if we are the sole holder (upgrade) or there
                // are no holders at all.
                self.holders.iter().all(|(h, _)| h == xid)
            }
        }
    }

    /// Record `xid` as a holder. Returns `true` when `xid` is a *new* holder
    /// on this record (as opposed to an in-place S→X upgrade), so callers can
    /// keep the per-transaction held-key index exact.
    fn grant(&mut self, xid: Xid, mode: LockMode, at: SimInstant) -> bool {
        let pos = self.holders.iter().position(|(h, _)| h == xid);
        let newly = match pos {
            Some(idx) => {
                // Upgrade in place (S→X) or keep the stronger mode.
                if mode == LockMode::Exclusive {
                    self.holders.set(idx, (xid, LockMode::Exclusive));
                }
                false
            }
            None => {
                self.holders.push((xid, mode));
                true
            }
        };
        if self.acquired_at.is_none() {
            self.acquired_at = Some(at);
        }
        newly
    }

    fn release_holder(&mut self, xid: Xid) -> bool {
        let pos = self.holders.iter().position(|(h, _)| h == xid);
        match pos {
            Some(idx) => {
                self.holders.remove(idx);
                if self.holders.is_empty() {
                    self.acquired_at = None;
                }
                true
            }
            None => false,
        }
    }
}

/// Per-transaction index into the lock table: which keys a transaction holds
/// and which keys it has a queued waiter on. This is what makes
/// [`LockManager::release_all`] and [`LockManager::cancel_waiters`] O(keys
/// the transaction touches) instead of O(keys in the whole table).
#[derive(Default)]
struct TxnLockIndex {
    /// Keys currently held, in acquisition order (release order follows it,
    /// which also makes the release sequence deterministic).
    held: SmallVec<Key, 8>,
    /// Keys with a queued waiter belonging to this transaction. Almost always
    /// zero or one entry (statements execute sequentially per branch).
    waiting: SmallVec<Key, 2>,
}

impl TxnLockIndex {
    fn is_empty(&self) -> bool {
        self.held.is_empty() && self.waiting.is_empty()
    }
}

/// Aggregate lock-manager statistics (inputs to abort-rate and contention
/// reporting in the experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Lock requests granted immediately.
    pub immediate_grants: u64,
    /// Lock requests that had to wait before being granted.
    pub waited_grants: u64,
    /// Lock requests that failed with a timeout.
    pub timeouts: u64,
    /// Lock requests cancelled while waiting (early aborts).
    pub cancelled: u64,
    /// Total virtual time spent waiting for locks, in microseconds.
    pub total_wait_micros: u64,
}

/// Aggregate counters kept in `Cell`s so the hot path never pays a `RefCell`
/// borrow check per lock request.
#[derive(Default)]
struct StatsCells {
    immediate_grants: Cell<u64>,
    waited_grants: Cell<u64>,
    timeouts: Cell<u64>,
    cancelled: Cell<u64>,
    total_wait_micros: Cell<u64>,
}

/// The per-data-source lock manager.
pub struct LockManager {
    entries: RefCell<FxHashMap<Key, LockEntry>>,
    /// Per-transaction held/waiting key index; see [`TxnLockIndex`].
    txn_index: RefCell<FxHashMap<Xid, TxnLockIndex>>,
    wait_timeout: Duration,
    next_waiter_id: Cell<u64>,
    /// Recycled grant-channel nodes: a contended acquire pops a node instead
    /// of allocating a fresh `Rc` per wait.
    grant_pool: oneshot::Pool<Result<(), LockError>>,
    stats: StatsCells,
}

impl LockManager {
    /// Create a lock manager with the given lock-wait timeout.
    pub fn new(wait_timeout: Duration) -> Rc<Self> {
        Rc::new(Self {
            entries: RefCell::new(FxHashMap::default()),
            txn_index: RefCell::new(FxHashMap::default()),
            wait_timeout,
            next_waiter_id: Cell::new(0),
            grant_pool: oneshot::Pool::new(),
            stats: StatsCells::default(),
        })
    }

    /// The configured lock-wait timeout.
    pub fn wait_timeout(&self) -> Duration {
        self.wait_timeout
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> LockStats {
        LockStats {
            immediate_grants: self.stats.immediate_grants.get(),
            waited_grants: self.stats.waited_grants.get(),
            timeouts: self.stats.timeouts.get(),
            cancelled: self.stats.cancelled.get(),
            total_wait_micros: self.stats.total_wait_micros.get(),
        }
    }

    /// Record `key` as held by `xid` in the per-transaction index.
    fn index_held(&self, xid: Xid, key: Key) {
        self.txn_index
            .borrow_mut()
            .entry(xid)
            .or_default()
            .held
            .push(key);
    }

    /// Record that `xid` has a queued waiter on `key`.
    fn index_waiting(&self, xid: Xid, key: Key) {
        self.txn_index
            .borrow_mut()
            .entry(xid)
            .or_default()
            .waiting
            .push(key);
    }

    /// Drop one waiting-entry for `(xid, key)`; removes the whole index entry
    /// when it becomes empty.
    fn unindex_waiting(&self, xid: Xid, key: Key) {
        let mut index = self.txn_index.borrow_mut();
        if let Some(entry) = index.get_mut(&xid) {
            entry.waiting.remove_first(key);
            if entry.is_empty() {
                index.remove(&xid);
            }
        }
    }

    /// Number of transactions currently waiting for `key` (the `a_cnt − 1`
    /// input to the late-transaction-scheduling heuristic).
    pub fn waiters_on(&self, key: Key) -> usize {
        self.entries
            .borrow()
            .get(&key)
            .map(|e| e.waiters.len())
            .unwrap_or(0)
    }

    /// Whether `xid` currently holds a lock on `key` (of any mode).
    pub fn holds(&self, xid: Xid, key: Key) -> Option<LockMode> {
        self.entries.borrow().get(&key).and_then(|e| e.holds(xid))
    }

    /// Acquire a lock on `key` for `xid`, waiting up to the configured
    /// lock-wait timeout.
    #[expect(
        clippy::manual_async_fn,
        reason = "an `async fn` keeps each parameter twice in its future, which nests in every statement's"
    )]
    pub fn acquire(
        self: &Rc<Self>,
        xid: Xid,
        key: Key,
        mode: LockMode,
    ) -> impl Future<Output = Result<(), LockError>> + '_ {
        async move {
            let request_at = now();
            // Fast path: grant immediately when compatible. Allocation-free for
            // the uncontended case (inline holder storage, `Cell` counters).
            {
                let mut entries = self.entries.borrow_mut();
                let entry = entries.entry(key).or_default();
                if let Some(held) = entry.holds(xid) {
                    if held == LockMode::Exclusive || mode == LockMode::Shared {
                        // Re-entrant acquisition of an equal-or-weaker mode.
                        self.stats
                            .immediate_grants
                            .set(self.stats.immediate_grants.get() + 1);
                        return Ok(());
                    }
                }
                if entry.can_grant(xid, mode) {
                    let newly = entry.grant(xid, mode, request_at);
                    drop(entries);
                    if newly {
                        self.index_held(xid, key);
                    }
                    self.stats
                        .immediate_grants
                        .set(self.stats.immediate_grants.get() + 1);
                    return Ok(());
                }
            }

            // Slow path: enqueue and wait for a grant, a cancellation or a timeout.
            let (tx, rx) = self.grant_pool.channel();
            let waiter_id = self.next_waiter_id.get() + 1;
            self.next_waiter_id.set(waiter_id);
            self.entries
                .borrow_mut()
                .entry(key)
                .or_default()
                .waiters
                .push_back(Waiter {
                    xid,
                    mode,
                    waiter_id,
                    grant: tx,
                });
            self.index_waiting(xid, key);

            // Contended wait: visible to telemetry as a LockWait leaf span on the
            // data source (nested under whatever agent span is open) plus a
            // wait-latency histogram sample, labelled by how the wait ended.
            let wait_span = geotp_telemetry::span_leaf(
                xid.gtrid,
                geotp_telemetry::TraceNode::data_source(xid.bqual),
                geotp_telemetry::SpanKind::LockWait,
                key.row,
            );

            // `timeout` keeps its state inline: together with the pooled grant
            // channel, a contended acquire performs no allocations in the steady
            // state.
            let outcome = timeout(self.wait_timeout, rx).await;
            let waited = now().duration_since(request_at);
            self.stats
                .total_wait_micros
                .set(self.stats.total_wait_micros.get() + waited.as_micros() as u64);
            if geotp_telemetry::enabled() {
                geotp_telemetry::span_end(wait_span);
                let fate = match &outcome {
                    Ok(Ok(Ok(()))) => "granted",
                    Ok(Ok(Err(LockError::Cancelled))) | Ok(Err(_)) => "cancelled",
                    Ok(Ok(Err(LockError::Timeout))) | Err(_) => "timeout",
                };
                geotp_telemetry::observe("storage.lock_wait", fate, xid.bqual, waited);
            }
            match outcome {
                Ok(Ok(Ok(()))) => {
                    // The granting side (promote_waiters) has already moved this
                    // key from the waiting index to the held index.
                    self.stats
                        .waited_grants
                        .set(self.stats.waited_grants.get() + 1);
                    Ok(())
                }
                Ok(Ok(Err(err))) => {
                    // cancel_waiters has already dropped the waiting-index entry.
                    if err == LockError::Cancelled {
                        self.stats.cancelled.set(self.stats.cancelled.get() + 1);
                    } else {
                        self.stats.timeouts.set(self.stats.timeouts.get() + 1);
                    }
                    Err(err)
                }
                Ok(Err(_dropped)) => {
                    // Sender dropped without a verdict (the waiter was discarded
                    // wholesale); make sure the waiting index does not leak.
                    self.unindex_waiting(xid, key);
                    self.stats.cancelled.set(self.stats.cancelled.get() + 1);
                    Err(LockError::Cancelled)
                }
                Err(_elapsed) => {
                    // Remove ourselves from the queue; the grant may not have
                    // happened (if it had, the oneshot would have resolved first).
                    self.remove_waiter(xid, key, waiter_id);
                    self.stats.timeouts.set(self.stats.timeouts.get() + 1);
                    Err(LockError::Timeout)
                }
            }
        }
    }

    fn remove_waiter(&self, xid: Xid, key: Key, waiter_id: u64) {
        let mut entries = self.entries.borrow_mut();
        if let Some(entry) = entries.get_mut(&key) {
            entry.waiters.retain(|w| w.waiter_id != waiter_id);
        }
        drop(entries);
        self.unindex_waiting(xid, key);
        // Removing a waiter can unblock the head of the queue (e.g. a timed-out
        // writer was blocking compatible readers behind it).
        self.promote_waiters(key);
    }

    /// Cancel every queued wait belonging to `xid` (used by the early-abort
    /// path so a doomed transaction stops queueing for locks).
    ///
    /// O(keys the transaction is waiting on): the per-transaction index names
    /// the exact records with a queued waiter, so unrelated entries are never
    /// visited (and unrelated waiters on the same records are left intact).
    pub fn cancel_waiters(&self, xid: Xid) {
        let waiting: Vec<Key> = {
            let mut index = self.txn_index.borrow_mut();
            let Some(entry) = index.get_mut(&xid) else {
                return;
            };
            let keys = entry.waiting.iter().collect();
            entry.waiting.clear();
            if entry.is_empty() {
                index.remove(&xid);
            }
            keys
        };
        for key in waiting {
            let cancelled: Vec<Waiter> = {
                let mut entries = self.entries.borrow_mut();
                let Some(entry) = entries.get_mut(&key) else {
                    continue;
                };
                let mut kept = VecDeque::with_capacity(entry.waiters.len());
                let mut cancelled = Vec::new();
                while let Some(w) = entry.waiters.pop_front() {
                    if w.xid == xid {
                        cancelled.push(w);
                    } else {
                        kept.push_back(w);
                    }
                }
                entry.waiters = kept;
                cancelled
            };
            for w in cancelled {
                let _ = w.grant.send(Err(LockError::Cancelled));
            }
            self.promote_waiters(key);
        }
    }

    /// Cancel *every* queued waiter on every record — what a data-source
    /// crash does to sessions blocked in a lock wait (their connections die
    /// with the server). Holders are left untouched: held locks belong to
    /// branch state, which crash recovery rolls back (or preserves, for
    /// prepared branches) explicitly.
    ///
    /// Unlike [`LockManager::cancel_waiters`] this does not promote anyone:
    /// the whole queue is gone, so there is nothing newly grantable, and the
    /// engine is about to stop serving requests anyway.
    pub fn cancel_all_waiters(&self) {
        let cancelled: Vec<Waiter> = {
            let mut entries = self.entries.borrow_mut();
            let mut cancelled = Vec::new();
            for entry in entries.values_mut() {
                cancelled.extend(entry.waiters.drain(..));
            }
            // Entries that only existed for their queue are dead now.
            entries.retain(|_, e| !e.holders.is_empty());
            cancelled
        };
        {
            let mut index = self.txn_index.borrow_mut();
            index.retain(|_, e| {
                e.waiting.clear();
                !e.held.is_empty()
            });
        }
        for w in cancelled {
            // The waiting side of `acquire` records the cancellation stat.
            let _ = w.grant.send(Err(LockError::Cancelled));
        }
    }

    /// Release every lock held by `xid` and grant newly-compatible waiters.
    /// Returns the keys that were released, in acquisition order, with the
    /// duration each was held.
    pub fn release_all(&self, xid: Xid) -> Vec<(Key, Duration)> {
        let mut released = Vec::new();
        self.release_all_with(xid, |key, held| released.push((key, held)));
        released
    }

    /// [`LockManager::release_all`] reporting each released key and how long
    /// it was held to `on_release` instead of collecting them: the engine's
    /// commit and rollback path, which allocates nothing here.
    ///
    /// O(keys held): releases walk the per-transaction held-key index (in
    /// acquisition order) instead of scanning the whole lock table.
    pub fn release_all_with(&self, xid: Xid, mut on_release: impl FnMut(Key, Duration)) {
        let held = {
            let mut index = self.txn_index.borrow_mut();
            let Some(entry) = index.get_mut(&xid) else {
                return;
            };
            let held = std::mem::take(&mut entry.held);
            // A queued waiter may still reference this transaction (e.g. an
            // upgrade attempt raced with the abort path); keep the waiting
            // side of the index alive in that case.
            if entry.is_empty() {
                index.remove(&xid);
            }
            held
        };
        for key in held.iter() {
            let did_release = {
                let mut entries = self.entries.borrow_mut();
                let Some(entry) = entries.get_mut(&key) else {
                    continue;
                };
                let held_since = entry.acquired_at;
                let did = entry.release_holder(xid);
                if did {
                    let held_for = held_since.map_or(Duration::ZERO, |at| now().duration_since(at));
                    on_release(key, held_for);
                }
                did
            };
            if did_release {
                self.promote_waiters(key);
            }
        }
    }

    /// Grant as many queued waiters on `key` as compatibility allows (FIFO).
    fn promote_waiters(&self, key: Key) {
        loop {
            let granted = {
                let mut entries = self.entries.borrow_mut();
                let Some(entry) = entries.get_mut(&key) else {
                    return;
                };
                let Some(head) = entry.waiters.front() else {
                    // Clean up empty entries to bound memory.
                    if entry.holders.is_empty() {
                        entries.remove(&key);
                    }
                    return;
                };
                let can = match head.mode {
                    LockMode::Shared => entry
                        .holders
                        .iter()
                        .all(|(h, m)| h == head.xid || m.compatible(LockMode::Shared)),
                    LockMode::Exclusive => {
                        entry.holders.is_empty() || entry.holders.iter().all(|(h, _)| h == head.xid)
                    }
                };
                if !can {
                    return;
                }
                let head = entry.waiters.pop_front().unwrap();
                let newly = entry.grant(head.xid, head.mode, now());
                Some((head, newly))
            };
            match granted {
                Some((waiter, newly)) => {
                    // Keep the per-transaction index exact: the waiter is no
                    // longer waiting, and (unless this was an upgrade) now
                    // holds the record.
                    self.unindex_waiting(waiter.xid, key);
                    if newly {
                        self.index_held(waiter.xid, key);
                    }
                    let _ = waiter.grant.send(Ok(()));
                }
                None => return,
            }
        }
    }

    /// Number of records that currently have at least one holder or waiter.
    pub fn active_entries(&self) -> usize {
        self.entries.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TableId;
    use geotp_simrt::{sleep, spawn, Runtime};
    use std::cell::Cell;

    impl LockManager {
        /// Number of transactions currently holding a lock on `key`.
        fn holders_on(&self, key: Key) -> usize {
            self.entries
                .borrow()
                .get(&key)
                .map(|e| e.holders.len())
                .unwrap_or(0)
        }

        /// Number of transactions tracked by the per-transaction lock index
        /// (must drop back to zero once all transactions finish).
        fn indexed_txns(&self) -> usize {
            self.txn_index.borrow().len()
        }
    }

    fn key(row: u64) -> Key {
        Key::new(TableId(0), row)
    }
    fn xid(n: u64) -> Xid {
        Xid::new(n, 0)
    }

    #[test]
    fn shared_locks_are_compatible() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Shared).await.unwrap();
            lm.acquire(xid(2), key(1), LockMode::Shared).await.unwrap();
            assert_eq!(lm.holders_on(key(1)), 2);
            assert_eq!(lm.stats().immediate_grants, 2);
        });
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            let lm2 = Rc::clone(&lm);
            let waiter = spawn(async move {
                let start = now();
                lm2.acquire(xid(2), key(1), LockMode::Exclusive)
                    .await
                    .unwrap();
                now().duration_since(start)
            });
            sleep(Duration::from_millis(50)).await;
            lm.release_all(xid(1));
            let waited = waiter.await;
            assert_eq!(waited, Duration::from_millis(50));
            assert_eq!(lm.holds(xid(2), key(1)), Some(LockMode::Exclusive));
            assert_eq!(lm.stats().waited_grants, 1);
        });
    }

    #[test]
    fn cancel_all_waiters_kicks_every_queue() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(60));
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            lm.acquire(xid(1), key(2), LockMode::Exclusive)
                .await
                .unwrap();
            let mut waiters = Vec::new();
            for (w, k) in [(2u64, 1u64), (3, 1), (4, 2)] {
                let lm2 = Rc::clone(&lm);
                waiters.push(spawn(async move {
                    lm2.acquire(xid(w), key(k), LockMode::Exclusive).await
                }));
            }
            sleep(Duration::from_millis(1)).await;
            assert_eq!(lm.waiters_on(key(1)), 2);
            lm.cancel_all_waiters();
            for w in waiters {
                assert_eq!(w.await, Err(LockError::Cancelled));
            }
            // The holder is untouched; the queues and waiting index are gone.
            assert_eq!(lm.holds(xid(1), key(1)), Some(LockMode::Exclusive));
            assert_eq!(lm.waiters_on(key(1)), 0);
            assert_eq!(lm.waiters_on(key(2)), 0);
            assert_eq!(lm.stats().cancelled, 3);
            // Releasing afterwards must not wake ghosts or panic.
            lm.release_all(xid(1));
        });
        // Nothing waits on a dead queue: virtual time never reached the 60s
        // lock timeout (a dangling waiter would have parked until then).
        assert!(rt.now_micros() < 2_000);
    }

    #[test]
    fn lock_wait_timeout_fails_the_request() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_millis(100));
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            let err = lm
                .acquire(xid(2), key(1), LockMode::Shared)
                .await
                .unwrap_err();
            assert_eq!(err, LockError::Timeout);
            assert_eq!(lm.stats().timeouts, 1);
            // The timed-out waiter is no longer queued.
            assert_eq!(lm.waiters_on(key(1)), 0);
        });
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Shared).await.unwrap();
            // Re-entrant shared.
            lm.acquire(xid(1), key(1), LockMode::Shared).await.unwrap();
            // Upgrade to exclusive as the sole holder succeeds immediately.
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            assert_eq!(lm.holds(xid(1), key(1)), Some(LockMode::Exclusive));
            // Re-entrant shared while holding exclusive is a no-op.
            lm.acquire(xid(1), key(1), LockMode::Shared).await.unwrap();
            assert_eq!(lm.holds(xid(1), key(1)), Some(LockMode::Exclusive));
        });
    }

    #[test]
    fn upgrade_waits_for_other_readers() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Shared).await.unwrap();
            lm.acquire(xid(2), key(1), LockMode::Shared).await.unwrap();
            let lm2 = Rc::clone(&lm);
            let upgrade =
                spawn(async move { lm2.acquire(xid(1), key(1), LockMode::Exclusive).await });
            sleep(Duration::from_millis(10)).await;
            assert_eq!(lm.waiters_on(key(1)), 1);
            lm.release_all(xid(2));
            assert!(upgrade.await.is_ok());
            assert_eq!(lm.holds(xid(1), key(1)), Some(LockMode::Exclusive));
        });
    }

    #[test]
    fn fifo_order_prevents_writer_starvation() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Shared).await.unwrap();
            // Writer queues first.
            let lm_w = Rc::clone(&lm);
            let writer =
                spawn(async move { lm_w.acquire(xid(2), key(1), LockMode::Exclusive).await });
            sleep(Duration::from_millis(1)).await;
            // A late reader must not jump ahead of the queued writer.
            let lm_r = Rc::clone(&lm);
            let order = Rc::new(Cell::new(0u8));
            let order_w = Rc::clone(&order);
            let reader = spawn(async move {
                lm_r.acquire(xid(3), key(1), LockMode::Shared)
                    .await
                    .unwrap();
                order_w.set(2);
            });
            sleep(Duration::from_millis(1)).await;
            lm.release_all(xid(1));
            writer.await.unwrap();
            assert_eq!(
                order.get(),
                0,
                "reader must still be waiting behind the writer"
            );
            lm.release_all(xid(2));
            reader.await;
            assert_eq!(order.get(), 2);
        });
    }

    #[test]
    fn cancel_waiters_unblocks_with_cancelled_error() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            let lm2 = Rc::clone(&lm);
            let waiter =
                spawn(async move { lm2.acquire(xid(2), key(1), LockMode::Exclusive).await });
            sleep(Duration::from_millis(5)).await;
            lm.cancel_waiters(xid(2));
            assert_eq!(waiter.await.unwrap_err(), LockError::Cancelled);
            assert_eq!(lm.stats().cancelled, 1);
        });
    }

    #[test]
    fn release_reports_held_duration() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            sleep(Duration::from_millis(200)).await;
            let released = lm.release_all(xid(1));
            assert_eq!(released.len(), 1);
            assert_eq!(released[0].0, key(1));
            assert_eq!(released[0].1, Duration::from_millis(200));
        });
    }

    #[test]
    fn release_grants_batch_of_readers() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            let mut handles = Vec::new();
            for i in 2..6 {
                let lm2 = Rc::clone(&lm);
                handles.push(spawn(async move {
                    lm2.acquire(xid(i), key(1), LockMode::Shared).await
                }));
            }
            sleep(Duration::from_millis(1)).await;
            lm.release_all(xid(1));
            for h in handles {
                assert!(h.await.is_ok());
            }
            assert_eq!(lm.holders_on(key(1)), 4);
        });
    }

    #[test]
    fn deadlock_resolved_by_timeout() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_millis(50));
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            lm.acquire(xid(2), key(2), LockMode::Exclusive)
                .await
                .unwrap();
            let lm_a = Rc::clone(&lm);
            let a = spawn(async move { lm_a.acquire(xid(1), key(2), LockMode::Exclusive).await });
            let lm_b = Rc::clone(&lm);
            let b = spawn(async move { lm_b.acquire(xid(2), key(1), LockMode::Exclusive).await });
            let (ra, rb) = (a.await, b.await);
            // Both waits time out (neither transaction voluntarily releases).
            assert_eq!(ra.unwrap_err(), LockError::Timeout);
            assert_eq!(rb.unwrap_err(), LockError::Timeout);
        });
    }

    #[test]
    fn queued_writer_blocks_later_readers_fifo() {
        // Invariant the per-transaction index must preserve: a queued writer
        // keeps its FIFO slot, so readers that arrive later cannot overtake
        // it even though they are compatible with the current shared holders.
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Shared).await.unwrap();
            let lm_w = Rc::clone(&lm);
            let writer =
                spawn(async move { lm_w.acquire(xid(2), key(1), LockMode::Exclusive).await });
            sleep(Duration::from_millis(1)).await;
            // Three late readers must all queue behind the writer.
            let mut readers = Vec::new();
            for i in 3..6 {
                let lm_r = Rc::clone(&lm);
                readers.push(spawn(async move {
                    lm_r.acquire(xid(i), key(1), LockMode::Shared)
                        .await
                        .unwrap();
                    now()
                }));
            }
            sleep(Duration::from_millis(1)).await;
            assert_eq!(lm.waiters_on(key(1)), 4, "writer + 3 readers queued");
            lm.release_all(xid(1));
            writer.await.unwrap();
            let granted_at = now();
            assert_eq!(lm.holds(xid(2), key(1)), Some(LockMode::Exclusive));
            sleep(Duration::from_millis(7)).await;
            lm.release_all(xid(2));
            // All readers are granted together, and only after the writer
            // finished.
            for r in readers {
                let at = r.await;
                assert!(
                    at > granted_at,
                    "reader granted only after the writer released"
                );
            }
            assert_eq!(lm.holders_on(key(1)), 3);
        });
    }

    #[test]
    fn upgrade_as_sole_holder_keeps_index_exact() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Shared).await.unwrap();
            // S→X upgrade as the sole holder is immediate and must not
            // double-register the key in the held index.
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            assert_eq!(lm.holds(xid(1), key(1)), Some(LockMode::Exclusive));
            let released = lm.release_all(xid(1));
            assert_eq!(released.len(), 1, "upgraded key released exactly once");
            assert_eq!(lm.active_entries(), 0);
            assert_eq!(lm.indexed_txns(), 0, "per-transaction index fully cleaned");
        });
    }

    #[test]
    fn cancel_waiters_leaves_unrelated_waiters_intact() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            lm.acquire(xid(1), key(1), LockMode::Exclusive)
                .await
                .unwrap();
            lm.acquire(xid(1), key(2), LockMode::Exclusive)
                .await
                .unwrap();
            // Two unrelated waiters on key 1, one doomed waiter on each key.
            let lm_a = Rc::clone(&lm);
            let doomed_a =
                spawn(async move { lm_a.acquire(xid(2), key(1), LockMode::Exclusive).await });
            sleep(Duration::from_millis(1)).await;
            let lm_b = Rc::clone(&lm);
            let survivor =
                spawn(async move { lm_b.acquire(xid(3), key(1), LockMode::Exclusive).await });
            let lm_c = Rc::clone(&lm);
            let doomed_b =
                spawn(async move { lm_c.acquire(xid(2), key(2), LockMode::Exclusive).await });
            sleep(Duration::from_millis(1)).await;
            assert_eq!(lm.waiters_on(key(1)), 2);
            assert_eq!(lm.waiters_on(key(2)), 1);

            lm.cancel_waiters(xid(2));
            assert_eq!(doomed_a.await.unwrap_err(), LockError::Cancelled);
            assert_eq!(doomed_b.await.unwrap_err(), LockError::Cancelled);
            // The unrelated waiter is untouched, still first in line.
            assert_eq!(lm.waiters_on(key(1)), 1);
            lm.release_all(xid(1));
            assert!(survivor.await.is_ok());
            assert_eq!(lm.holds(xid(3), key(1)), Some(LockMode::Exclusive));
            lm.release_all(xid(3));
            assert_eq!(lm.indexed_txns(), 0);
        });
    }

    #[test]
    fn txn_index_tracks_held_and_waiting_lifecycles() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_millis(50));
            for i in 0..10 {
                lm.acquire(xid(1), key(i), LockMode::Exclusive)
                    .await
                    .unwrap();
            }
            assert_eq!(lm.indexed_txns(), 1);
            // A waiter that times out must not leak an index entry.
            let err = lm
                .acquire(xid(2), key(0), LockMode::Shared)
                .await
                .unwrap_err();
            assert_eq!(err, LockError::Timeout);
            assert_eq!(lm.indexed_txns(), 1, "timed-out waiter unindexed");
            let released = lm.release_all(xid(1));
            assert_eq!(released.len(), 10);
            // Release order follows acquisition order (deterministic).
            let keys: Vec<Key> = released.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, (0..10).map(key).collect::<Vec<_>>());
            assert_eq!(lm.indexed_txns(), 0);
            assert_eq!(lm.active_entries(), 0);
        });
    }

    #[test]
    fn entries_are_cleaned_up() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            for i in 0..100 {
                lm.acquire(xid(1), key(i), LockMode::Exclusive)
                    .await
                    .unwrap();
            }
            assert_eq!(lm.active_entries(), 100);
            lm.release_all(xid(1));
            assert_eq!(
                lm.active_entries(),
                0,
                "released entries must be garbage collected"
            );
        });
    }
}
