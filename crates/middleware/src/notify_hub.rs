//! Routing of asynchronous geo-agent notifications to waiting coordinators.
//!
//! Geo-agents push [`AgentNotification`]s (prepare votes, rollback
//! confirmations) to the middleware over a single mailbox; the hub dispatches
//! them to the per-transaction state the coordinator is awaiting on.

use geotp_simrt::hash::FxHashMap;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use geotp_datasource::{AgentNotification, PrepareVote};
use geotp_simrt::spawn;
use geotp_simrt::sync::{mpsc, Notify};

/// Per-transaction notification state.
#[derive(Default)]
struct TxnState {
    votes: HashMap<u32, PrepareVote>,
    rollbacked: Vec<u32>,
    notify: Rc<Notify>,
}

/// The notification hub. One per middleware instance.
pub struct NotifyHub {
    txns: Rc<RefCell<FxHashMap<u64, TxnState>>>,
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
                        state.votes.insert(xid.bqual, vote);
                    }
                    AgentNotification::Rollbacked { xid } => {
                        if !state.rollbacked.contains(&xid.bqual) {
                            state.rollbacked.push(xid.bqual);
                        }
                    }
                }
                let notify = Rc::clone(&state.notify);
                drop(map);
                notify.notify_waiters();
            }
        });
        Rc::new(Self { txns, sender: tx })
    }

    /// The mailbox sender to register with geo-agents.
    pub fn sender(&self) -> mpsc::Sender<AgentNotification> {
        self.sender.clone()
    }

    /// Register a transaction before dispatching its branches, so that early
    /// notifications are not lost.
    pub fn register(&self, gtrid: u64) {
        self.txns.borrow_mut().entry(gtrid).or_default();
    }

    /// Remove a transaction's state once it has completed.
    pub fn unregister(&self, gtrid: u64) {
        self.txns.borrow_mut().remove(&gtrid);
    }

    /// Current votes for a transaction. A branch that confirmed its
    /// rollback counts as a [`PrepareVote::RollbackOnly`] (an implicit
    /// no-vote) unless it voted first.
    pub fn votes(&self, gtrid: u64) -> HashMap<u32, PrepareVote> {
        let map = self.txns.borrow();
        let Some(state) = map.get(&gtrid) else {
            return HashMap::new();
        };
        let mut votes = state.votes.clone();
        for b in &state.rollbacked {
            votes.entry(*b).or_insert(PrepareVote::RollbackOnly);
        }
        votes
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
            let notify = {
                let map = self.txns.borrow();
                let Some(state) = map.get(&gtrid) else {
                    return;
                };
                if done(state) {
                    return;
                }
                Rc::clone(&state.notify)
            };
            notify.notified().await;
        }
    }

    /// Wait until all `branches` have reported a prepare vote (or a rollback,
    /// which counts as an implicit no-vote). Returns the votes.
    pub async fn wait_for_votes(&self, gtrid: u64, branches: &[u32]) -> HashMap<u32, PrepareVote> {
        self.wait_until(gtrid, |state| {
            let voted = |b: &u32| state.votes.contains_key(b) || state.rollbacked.contains(b);
            branches.iter().all(voted)
        })
        .await;
        self.votes(gtrid)
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
            let votes = hub.wait_for_votes(5, &[0, 1]).await;
            assert_eq!(votes.get(&0), Some(&PrepareVote::Prepared));
            assert_eq!(votes.get(&1), Some(&PrepareVote::Failure));
            hub.unregister(5);
            assert!(hub.votes(5).is_empty());
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
            let votes = hub.wait_for_votes(9, &[2]).await;
            assert_eq!(votes.get(&2), Some(&PrepareVote::RollbackOnly));
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
