//! Routing of asynchronous geo-agent notifications to waiting coordinators.
//!
//! Geo-agents push [`AgentNotification`]s (prepare votes, rollback
//! confirmations) to the middleware over a single mailbox; the hub dispatches
//! them to the per-transaction state the coordinator is awaiting on. That
//! state is recycled: a concluded transaction's vote list, rollback list and
//! [`Notify`] go back to a free list for the next `register`.

use geotp_simrt::hash::FxHashMap;
use std::cell::RefCell;
use std::rc::Rc;

use geotp_datasource::{AgentNotification, PrepareVote};
use geotp_simrt::spawn;
use geotp_simrt::sync::{mpsc, Notify};

/// Prepare votes by branch (data-source index), each branch at most once, in
/// arrival order. A handful of branches per transaction: a linear scan beats
/// hashing, and nothing depends on the order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Votes(Vec<(u32, PrepareVote)>);

impl Votes {
    /// The vote of branch `ds`, if it voted.
    pub fn get(&self, ds: u32) -> Option<PrepareVote> {
        self.0.iter().find(|(b, _)| *b == ds).map(|(_, vote)| *vote)
    }

    /// Whether branch `ds` voted.
    pub fn contains(&self, ds: u32) -> bool {
        self.0.iter().any(|(b, _)| *b == ds)
    }

    /// Record `ds`'s vote, replacing an earlier one.
    pub fn set(&mut self, ds: u32, vote: PrepareVote) {
        match self.0.iter_mut().find(|(b, _)| *b == ds) {
            Some(slot) => slot.1 = vote,
            None => self.0.push((ds, vote)),
        }
    }

    /// Whether no branch voted.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Forget every vote, keeping the buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Per-transaction notification state.
#[derive(Default)]
struct TxnState {
    votes: Votes,
    rollbacked: Vec<u32>,
    notify: Notify,
}

/// The notification hub. One per middleware instance.
pub struct NotifyHub {
    txns: Rc<RefCell<FxHashMap<u64, TxnState>>>,
    /// States of concluded transactions, emptied, for the next `register`.
    free: RefCell<Vec<TxnState>>,
    sender: mpsc::Sender<AgentNotification>,
}

impl NotifyHub {
    /// Create the hub and spawn its dispatcher task. The returned sender is
    /// what gets registered with every geo-agent.
    pub fn start() -> Rc<Self> {
        let (tx, mut rx) = mpsc::unbounded::<AgentNotification>();
        let txns: Rc<RefCell<FxHashMap<u64, TxnState>>> =
            Rc::new(RefCell::new(FxHashMap::default()));
        let txns_bg = Rc::clone(&txns);
        spawn(async move {
            while let Some(notification) = rx.recv().await {
                let gtrid = notification.xid().gtrid;
                let mut map = txns_bg.borrow_mut();
                // Notifications for transactions that have already completed
                // (e.g. a late Idle vote for a committed centralized
                // transaction) are dropped rather than resurrecting state.
                let Some(state) = map.get_mut(&gtrid) else {
                    continue;
                };
                match notification {
                    AgentNotification::PrepareResult { xid, vote } => {
                        state.votes.set(xid.bqual, vote);
                    }
                    AgentNotification::Rollbacked { xid } => {
                        if !state.rollbacked.contains(&xid.bqual) {
                            state.rollbacked.push(xid.bqual);
                        }
                    }
                }
                // Waking only queues the waiters' task ids, so the map may
                // stay borrowed.
                state.notify.notify_waiters();
            }
        });
        Rc::new(Self {
            txns,
            free: RefCell::new(Vec::new()),
            sender: tx,
        })
    }

    /// The mailbox sender to register with geo-agents.
    pub fn sender(&self) -> mpsc::Sender<AgentNotification> {
        self.sender.clone()
    }

    /// Register a transaction before dispatching its branches, so that early
    /// notifications are not lost.
    pub fn register(&self, gtrid: u64) {
        let mut txns = self.txns.borrow_mut();
        if let std::collections::hash_map::Entry::Vacant(slot) = txns.entry(gtrid) {
            slot.insert(self.free.borrow_mut().pop().unwrap_or_default());
        }
    }

    /// Remove a transaction's state once it has completed. Nothing waits on
    /// it any more (its coordinator is the only waiter), so the state is
    /// emptied and kept for the next transaction.
    pub fn unregister(&self, gtrid: u64) {
        if let Some(mut state) = self.txns.borrow_mut().remove(&gtrid) {
            state.votes.clear();
            state.rollbacked.clear();
            self.free.borrow_mut().push(state);
        }
    }

    /// Current votes for a transaction, written into `out` (cleared first).
    /// A branch that confirmed its rollback counts as a
    /// [`PrepareVote::RollbackOnly`] (an implicit no-vote) unless it voted
    /// first.
    pub fn votes_into(&self, gtrid: u64, out: &mut Votes) {
        out.clear();
        let map = self.txns.borrow();
        let Some(state) = map.get(&gtrid) else {
            return;
        };
        out.0.extend_from_slice(&state.votes.0);
        for b in &state.rollbacked {
            if !out.contains(*b) {
                out.0.push((*b, PrepareVote::RollbackOnly));
            }
        }
    }

    /// Branches that have confirmed rollback for a transaction.
    pub fn rollbacked(&self, gtrid: u64) -> Vec<u32> {
        self.txns
            .borrow()
            .get(&gtrid)
            .map(|s| s.rollbacked.clone())
            .unwrap_or_default()
    }

    /// Wait until `done` holds for the transaction's notification state (or
    /// the transaction is unregistered).
    async fn wait_until(&self, gtrid: u64, done: impl Fn(&TxnState) -> bool) {
        loop {
            let notified = {
                let map = self.txns.borrow();
                let Some(state) = map.get(&gtrid) else {
                    return;
                };
                if done(state) {
                    return;
                }
                state.notify.notified()
            };
            notified.await;
        }
    }

    /// Wait until all `branches` have reported a prepare vote (or a rollback,
    /// which counts as an implicit no-vote), then write the votes into `out`.
    pub async fn wait_for_votes(&self, gtrid: u64, branches: &[u32], out: &mut Votes) {
        self.wait_until(gtrid, |state| {
            let voted = |b: &u32| state.votes.contains(*b) || state.rollbacked.contains(b);
            branches.iter().all(voted)
        })
        .await;
        self.votes_into(gtrid, out);
    }

    /// Wait until all `branches` have confirmed rollback (the early-abort
    /// path: the middleware "awaits the abort results from data sources").
    pub async fn wait_for_rollbacks(&self, gtrid: u64, branches: &[u32]) {
        self.wait_until(gtrid, |state| {
            branches.iter().all(|b| state.rollbacked.contains(b))
        })
        .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_simrt::{sleep, Runtime};
    use geotp_storage::Xid;
    use std::time::Duration;

    #[test]
    fn votes_are_routed_to_waiters() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let hub = NotifyHub::start();
            hub.register(5);
            let sender = hub.sender();
            spawn(async move {
                sleep(Duration::from_millis(10)).await;
                sender
                    .send(AgentNotification::PrepareResult {
                        xid: Xid::new(5, 0),
                        vote: PrepareVote::Prepared,
                    })
                    .unwrap();
                sleep(Duration::from_millis(10)).await;
                sender
                    .send(AgentNotification::PrepareResult {
                        xid: Xid::new(5, 1),
                        vote: PrepareVote::Failure,
                    })
                    .unwrap();
            });
            let mut votes = Votes::default();
            hub.wait_for_votes(5, &[0, 1], &mut votes).await;
            assert_eq!(votes.get(0), Some(PrepareVote::Prepared));
            assert_eq!(votes.get(1), Some(PrepareVote::Failure));
            hub.unregister(5);
            hub.votes_into(5, &mut votes);
            assert!(votes.is_empty());
            // The next transaction starts from a recycled, empty state.
            hub.register(6);
            hub.votes_into(6, &mut votes);
            assert!(votes.is_empty() && hub.rollbacked(6).is_empty());
        });
    }

    #[test]
    fn rollback_counts_as_implicit_vote() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let hub = NotifyHub::start();
            hub.register(9);
            let sender = hub.sender();
            spawn(async move {
                sleep(Duration::from_millis(1)).await;
                sender
                    .send(AgentNotification::Rollbacked {
                        xid: Xid::new(9, 2),
                    })
                    .unwrap();
            });
            let mut votes = Votes::default();
            hub.wait_for_votes(9, &[2], &mut votes).await;
            assert_eq!(votes.get(2), Some(PrepareVote::RollbackOnly));
            assert_eq!(hub.rollbacked(9), vec![2]);
        });
    }

    #[test]
    fn wait_for_rollbacks_completes_when_all_confirm() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let hub = NotifyHub::start();
            hub.register(3);
            let sender = hub.sender();
            spawn(async move {
                for branch in [0u32, 1] {
                    sleep(Duration::from_millis(5)).await;
                    sender
                        .send(AgentNotification::Rollbacked {
                            xid: Xid::new(3, branch),
                        })
                        .unwrap();
                }
            });
            hub.wait_for_rollbacks(3, &[0, 1]).await;
            assert_eq!(hub.rollbacked(3).len(), 2);
        });
    }
}
