//! The middleware's commit/abort decision log.
//!
//! Algorithm 1 flushes a commit/abort record before dispatching the decision
//! so that a crashed middleware can finish in-doubt transactions after a
//! restart (§V-A). The log is the only durable state of the otherwise
//! stateless middleware; in the simulation it is an in-memory structure that
//! survives a simulated middleware crash (it models a local disk or a
//! replicated log service).

use geotp_simrt::hash::FxHashMap;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use geotp_simrt::sleep;

/// The durable decision for a global transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// All participants voted yes; the transaction commits.
    Commit,
    /// The transaction aborts.
    Abort,
}

/// A flush was rejected because the writer's epoch is below the log's fence
/// (the coordinator was declared dead and a peer sealed its log before
/// adopting the in-doubt branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fenced {
    /// The epoch the rejected writer presented.
    pub writer_epoch: u64,
    /// The minimum epoch the log currently accepts.
    pub min_epoch: u64,
}

/// The durable commit/abort log.
pub struct CommitLog {
    entries: RefCell<FxHashMap<u64, Decision>>,
    flush_cost: Duration,
    flushes: RefCell<u64>,
    /// Writers below this epoch are rejected. The fence is the linchpin of
    /// peer takeover: a surviving coordinator seals the dead peer's log
    /// *before* reading its decisions, so a split-brained peer cannot slip a
    /// new decision in after the survivor has already resolved the in-doubt
    /// branches (the BookKeeper "fence the ledger, then read it" discipline).
    min_epoch: Cell<u64>,
}

impl CommitLog {
    /// Create a log whose flush costs `flush_cost` of virtual time.
    pub fn new(flush_cost: Duration) -> Rc<Self> {
        Rc::new(Self {
            entries: RefCell::new(FxHashMap::default()),
            flush_cost,
            flushes: RefCell::new(0),
            min_epoch: Cell::new(0),
        })
    }

    /// Record and flush the decision for `gtrid`. The await models the fsync
    /// (or quorum write) the paper's `FlushLog` performs.
    ///
    /// This is the single-coordinator path: it writes unconditionally (epoch
    /// `u64::MAX`, above any fence). Cluster deployments go through
    /// [`CommitLog::try_flush_decision`] so a fenced coordinator cannot decide.
    pub async fn flush_decision(&self, gtrid: u64, decision: Decision) {
        self.try_flush_decision(gtrid, decision, u64::MAX)
            .await
            .expect("u64::MAX is above any fence");
    }

    /// Epoch-checked flush: rejected (without writing or paying the flush
    /// cost) when `epoch` is below the log's fence.
    pub async fn try_flush_decision(
        &self,
        gtrid: u64,
        decision: Decision,
        epoch: u64,
    ) -> Result<(), Fenced> {
        let min_epoch = self.min_epoch.get();
        if epoch < min_epoch {
            return Err(Fenced {
                writer_epoch: epoch,
                min_epoch,
            });
        }
        self.entries.borrow_mut().insert(gtrid, decision);
        *self.flushes.borrow_mut() += 1;
        if !self.flush_cost.is_zero() {
            sleep(self.flush_cost).await;
        }
        Ok(())
    }

    /// Seal the log against writers below `min_epoch`. Raising only — a
    /// second fence at a lower epoch cannot reopen the log.
    pub fn fence(&self, min_epoch: u64) {
        if min_epoch > self.min_epoch.get() {
            self.min_epoch.set(min_epoch);
        }
    }

    /// The minimum writer epoch the log currently accepts.
    pub fn min_epoch(&self) -> u64 {
        self.min_epoch.get()
    }

    /// Look up the durable decision for a transaction, if any.
    pub fn decision(&self, gtrid: u64) -> Option<Decision> {
        self.entries.borrow().get(&gtrid).copied()
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of flush operations performed.
    pub fn flush_count(&self) -> u64 {
        *self.flushes.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_simrt::Runtime;

    #[test]
    fn decisions_are_durable_and_flushes_counted() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let log = CommitLog::new(Duration::from_millis(1));
            assert!(log.is_empty());
            log.flush_decision(1, Decision::Commit).await;
            log.flush_decision(2, Decision::Abort).await;
            assert_eq!(log.decision(1), Some(Decision::Commit));
            assert_eq!(log.decision(2), Some(Decision::Abort));
            assert_eq!(log.decision(3), None);
            assert_eq!(log.len(), 2);
            assert_eq!(log.flush_count(), 2);
        });
        // Two 1ms flushes => 2ms of virtual time.
        assert_eq!(rt.now_micros(), 2_000);
    }

    #[test]
    fn fenced_writers_cannot_flush() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let log = CommitLog::new(Duration::from_millis(1));
            log.try_flush_decision(1, Decision::Commit, 3)
                .await
                .unwrap();
            log.fence(4);
            assert_eq!(log.min_epoch(), 4);
            // The old epoch is sealed out; nothing is written, nothing flushed.
            let err = log.try_flush_decision(2, Decision::Commit, 3).await;
            assert_eq!(
                err,
                Err(Fenced {
                    writer_epoch: 3,
                    min_epoch: 4
                })
            );
            assert_eq!(log.decision(2), None);
            assert_eq!(log.flush_count(), 1);
            // A successor at the fencing epoch writes fine.
            log.try_flush_decision(2, Decision::Abort, 4).await.unwrap();
            assert_eq!(log.decision(2), Some(Decision::Abort));
            // Fences only ratchet upward.
            log.fence(2);
            assert_eq!(log.min_epoch(), 4);
            // The legacy unfenced path is unaffected (single-coordinator).
            log.flush_decision(3, Decision::Commit).await;
            assert_eq!(log.decision(3), Some(Decision::Commit));
        });
    }
}
