//! The data-source server: storage engine + geo-agent.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::future::Future;
use std::rc::{Rc, Weak};
use std::time::Duration;

use geotp_net::{Network, NodeId};
use geotp_simrt::hash::FxHashMap;
use geotp_simrt::sync::mpsc;
use geotp_simrt::{now, sleep, spawn, SimInstant};
use geotp_storage::{EngineConfig, Row, StorageEngine, StorageError, Xid};

use crate::messages::{
    AgentNotification, DsOperation, PrepareVote, StatementOutcome, StatementRequest,
    StatementResponse,
};

/// Configuration of one data source node.
#[derive(Debug, Clone)]
pub struct DataSourceConfig {
    /// The node identity in the simulated network.
    pub node: NodeId,
    /// Storage-engine configuration (lock timeout, local costs).
    pub engine: EngineConfig,
    /// Round-trip time between the geo-agent and its co-located database
    /// (the LAN hop the decentralized prepare pays instead of a WAN trip).
    pub agent_lan_rtt: Duration,
}

impl DataSourceConfig {
    /// Defaults: default engine configuration, 0.5 ms LAN RTT.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            engine: EngineConfig::default(),
            agent_lan_rtt: Duration::from_micros(500),
        }
    }
}

/// Counters maintained by the geo-agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataSourceStats {
    /// Statement batches executed.
    pub statements: u64,
    /// Decentralized prepares initiated by the geo-agent.
    pub decentralized_prepares: u64,
    /// Early-abort notifications sent to peer geo-agents.
    pub early_aborts_sent: u64,
    /// Rollbacks performed because a peer geo-agent asked for them.
    pub peer_rollbacks: u64,
    /// Statement batches that failed.
    pub failed_statements: u64,
}

/// One data source node: the storage engine plus its geo-agent.
pub struct DataSource {
    config: DataSourceConfig,
    engine: Rc<StorageEngine>,
    net: Rc<Network>,
    /// Notification channels towards each registered middleware, keyed by the
    /// middleware's node id.
    dm_channels: RefCell<FxHashMap<NodeId, mpsc::Sender<AgentNotification>>>,
    /// Connection pool towards peer geo-agents, keyed by data-source index.
    peers: RefCell<FxHashMap<u32, Weak<DataSource>>>,
    /// The geo-agent's local transaction manager: one record per branch.
    branches: RefCell<FxHashMap<Xid, Branch>>,
    /// Branches concluded here so far: the clock of [`BRANCH_RETENTION`].
    conclusions: Cell<u32>,
    /// Per-coordinator epoch fences: commands from a coordinator whose epoch
    /// is below its fence are rejected (the cluster declared it dead and a
    /// peer adopted its in-doubt branches — a stale COMMIT/ROLLBACK from the
    /// walking dead must not contradict the adopted outcome). Coordinators
    /// without an entry are unfenced (the single-coordinator world).
    fences: RefCell<FxHashMap<NodeId, u64>>,
    stats: RefCell<DataSourceStats>,
}

/// How many of a source's conclusions a concluded or tombstoned branch stays
/// known for: every `BRANCH_RETENTION` conclusions, the older records go.
/// Over the workspace tests, the 32-seed chaos sweep and 15 s benchmark
/// runs, a late early abort reached its branch at most 17 conclusions after
/// the branch concluded, and a tombstone's branch arrived at most 72
/// conclusions after the tombstone was planted (both on `ycsb_contended`).
const BRANCH_RETENTION: u32 = 4_096;

/// A branch's record at its geo-agent, eight bytes wide. A non-live record
/// carries the number of its conclusion (wrapping).
#[derive(Clone, Copy)]
enum Branch {
    /// Executing here for this coordinating middleware.
    Live(NodeId),
    /// A peer asked to abort the branch before its first statement arrived
    /// (possible when the scheduler postpones it): it is refused on arrival.
    Tombstoned(u32),
    /// Committed, rolled back or refused here: a late or duplicated early
    /// abort for it is a no-op, not a tombstone.
    Concluded(u32),
}

/// Whether coordinator `owner` allocated `xid`'s gtrid before its sequence
/// reached `below`: a dead incarnation's `next_txn_seq` bounds its gtrids,
/// and its successor continues from there.
fn allocated_below(xid: Xid, owner: u32, below: u64) -> bool {
    xid.owner() == owner && xid.seq() < below
}

/// The response to a batch that failed with `error`, timed from `started`.
fn failed(error: StorageError, started: SimInstant) -> StatementResponse {
    StatementResponse {
        outcome: StatementOutcome::Failed { error },
        local_execution_latency: now().duration_since(started),
    }
}

impl DataSource {
    /// Create a data source attached to the simulated network.
    pub fn new(config: DataSourceConfig, net: Rc<Network>) -> Rc<Self> {
        let engine = StorageEngine::new(config.engine);
        Rc::new(Self {
            config,
            engine,
            net,
            dm_channels: RefCell::new(FxHashMap::default()),
            peers: RefCell::new(FxHashMap::default()),
            // Room for one window of records (7 168 fit): a lightly loaded
            // source never rehashes. A busier one, which holds up to two
            // windows just before a retention pass, rehashes once, to the
            // size it then keeps.
            branches: RefCell::new(FxHashMap::with_capacity_and_hasher(
                BRANCH_RETENTION as usize,
                Default::default(),
            )),
            conclusions: Cell::new(0),
            fences: RefCell::new(FxHashMap::default()),
            stats: RefCell::new(DataSourceStats::default()),
        })
    }

    /// The node identity of this data source.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// The data-source index (within [`NodeId::data_source`] numbering).
    pub fn index(&self) -> u32 {
        self.config.node.index()
    }

    /// Direct access to the underlying storage engine (loading data,
    /// inspecting state in tests and experiments).
    pub fn engine(&self) -> &Rc<StorageEngine> {
        &self.engine
    }

    /// Geo-agent statistics.
    pub fn stats(&self) -> DataSourceStats {
        *self.stats.borrow()
    }

    /// Register the notification channel of a middleware. Called by the
    /// cluster builder when a middleware connects.
    pub fn register_middleware(&self, dm: NodeId, channel: mpsc::Sender<AgentNotification>) {
        self.dm_channels.borrow_mut().insert(dm, channel);
    }

    /// Fence coordinator `dm`: every future command it issues with an epoch
    /// below `min_epoch` is rejected. Idempotent and raising-only, like the
    /// commit-log fence.
    pub fn fence_coordinator(&self, dm: NodeId, min_epoch: u64) {
        let mut fences = self.fences.borrow_mut();
        let entry = fences.entry(dm).or_insert(0);
        if min_epoch > *entry {
            *entry = min_epoch;
        }
    }

    /// The minimum epoch currently accepted from coordinator `dm` (0 when
    /// unfenced).
    fn coordinator_fence(&self, dm: NodeId) -> u64 {
        self.fences.borrow().get(&dm).copied().unwrap_or(0)
    }

    /// Reject a command from `dm` at `epoch` if the coordinator is fenced.
    pub fn fence_check(&self, dm: NodeId, epoch: u64, xid: Xid) -> Result<(), StorageError> {
        if epoch < self.coordinator_fence(dm) {
            return Err(StorageError::InvalidState {
                xid,
                reason: "command from a fenced coordinator epoch",
            });
        }
        Ok(())
    }

    /// Register a peer geo-agent in this agent's connection pool.
    pub fn register_peer(&self, peer: &Rc<DataSource>) {
        self.peers
            .borrow_mut()
            .insert(peer.index(), Rc::downgrade(peer));
    }

    /// Bulk-load a record (initial population, no locking or logging).
    pub fn load(&self, key: geotp_storage::Key, row: Row) {
        self.engine.load(key, row);
    }

    /// Bulk-load `row` under `count` consecutive keys from `first` (see
    /// [`StorageEngine::load_run`]).
    pub fn load_run(&self, first: geotp_storage::Key, count: u64, row: Row) {
        self.engine.load_run(first, count, row);
    }

    /// The next conclusion's number. Every [`BRANCH_RETENTION`] conclusions
    /// it first drops the records concluded more than that many before.
    fn next_conclusion(&self) -> u32 {
        let at = self.conclusions.get().wrapping_add(1);
        self.conclusions.set(at);
        if at.is_multiple_of(BRANCH_RETENTION) {
            self.branches
                .borrow_mut()
                .retain(|_, branch| match *branch {
                    Branch::Live(_) => true,
                    Branch::Tombstoned(since) | Branch::Concluded(since) => {
                        at.wrapping_sub(since) <= BRANCH_RETENTION
                    }
                });
        }
        at
    }

    /// Conclude `xid` here. A tombstone stays, still refusing its branch.
    fn finish(&self, xid: Xid) {
        let concluded = Branch::Concluded(self.next_conclusion());
        let mut branches = self.branches.borrow_mut();
        let record = branches.entry(xid).or_insert(concluded);
        if !matches!(record, Branch::Tombstoned(_)) {
            *record = concluded;
        }
    }

    /// The notification channel to middleware `dm`, unless this source has
    /// crashed or `dm` never registered. Sync, so no `Ref` guard of the
    /// lookup takes a slot in the notifying futures.
    fn dm_channel(&self, dm: NodeId) -> Option<mpsc::Sender<AgentNotification>> {
        if self.is_crashed() {
            return None;
        }
        self.dm_channels.borrow().get(&dm).cloned()
    }

    /// Push a notification towards middleware `dm` in the background.
    ///
    /// Notifications ride the *unreliable* network path: under a chaos fault
    /// plane they can be dropped or duplicated (the geo-agent pushes them
    /// fire-and-forget and never learns). A crashed data source sends
    /// nothing — its geo-agent died with it.
    fn notify_dm(self: &Rc<Self>, dm: NodeId, notification: AgentNotification) {
        let Some(channel) = self.dm_channel(dm) else {
            return;
        };
        let net = Rc::clone(&self.net);
        let from = self.config.node;
        spawn(async move {
            let copies = net.transfer_unreliable(from, dm).await;
            for _ in 0..copies {
                let _ = channel.send(notification.clone());
            }
        });
    }

    /// Like [`DataSource::notify_dm`] but awaited in place — for callers that
    /// are already a background task with nothing left to do, saving a task
    /// spawn per notification on the decentralized-prepare hot path.
    async fn notify_dm_inline(&self, dm: NodeId, notification: AgentNotification) {
        let Some(channel) = self.dm_channel(dm) else {
            return;
        };
        let copies = self.net.transfer_unreliable(self.config.node, dm).await;
        for _ in 0..copies {
            let _ = channel.send(notification.clone());
        }
    }

    /// Execute a statement batch on behalf of the middleware `from`.
    ///
    /// This is the geo-agent's main entry point: it runs the operations on the
    /// engine, reports the local execution latency back (hotspot feedback) and
    /// — when the batch is the branch's last statement and decentralized
    /// prepare is enabled — kicks off the implicit prepare phase.
    #[expect(
        clippy::manual_async_fn,
        reason = "an `async fn` keeps each parameter twice in its future, which nests in every statement's"
    )]
    pub fn execute<'a>(
        self: &'a Rc<Self>,
        from: NodeId,
        req: &'a StatementRequest,
    ) -> impl Future<Output = StatementResponse> + 'a {
        async move {
            let started = now();
            self.stats.borrow_mut().statements += 1;
            // The geo-agent's slice of the transaction's trace: parented under
            // the coordinator span that rode the request, so one trace crosses
            // the middleware → data-source boundary. Scoped, so the storage
            // layer's `LockWait` leaves nest under it.
            let exec_span = geotp_telemetry::span_scoped_under(
                req.xid.gtrid,
                geotp_telemetry::TraceNode::data_source(self.index()),
                geotp_telemetry::SpanKind::AgentExec,
                req.ops.len() as u64,
                req.trace_parent,
            );

            // A peer already asked to abort this branch (early abort raced ahead
            // of the branch's first statement): refuse it and confirm the rollback.
            if matches!(
                self.branches.borrow().get(&req.xid),
                Some(Branch::Tombstoned(_))
            ) {
                let concluded = Branch::Concluded(self.next_conclusion());
                self.branches.borrow_mut().insert(req.xid, concluded);
                self.stats.borrow_mut().failed_statements += 1;
                self.notify_dm(from, AgentNotification::Rollbacked { xid: req.xid });
                geotp_telemetry::span_end(exec_span);
                let reason = "branch aborted by a peer before it started";
                let error = StorageError::InvalidState {
                    xid: req.xid,
                    reason,
                };
                return failed(error, started);
            }

            if req.begin {
                self.branches
                    .borrow_mut()
                    .insert(req.xid, Branch::Live(from));
                if let Err(error) = self.engine.begin(req.xid) {
                    self.stats.borrow_mut().failed_statements += 1;
                    geotp_telemetry::span_end(exec_span);
                    return failed(error, started);
                }
            }

            // Sized for the operations that return a row: a write-only batch
            // allocates nothing for its (empty) result.
            let returning = req.ops.iter().filter(|op| op.returns_row()).count();
            let mut rows = Vec::with_capacity(returning);
            for op in &req.ops {
                let error = match self.apply(req.xid, op).await {
                    Ok(Some(row)) => {
                        rows.push(row);
                        continue;
                    }
                    Ok(None) => continue,
                    Err(error) => error,
                };
                self.stats.borrow_mut().failed_statements += 1;
                self.fail_branch(from, req).await;
                geotp_telemetry::span_end(exec_span);
                return failed(error, started);
            }

            if req.is_last && req.decentralized_prepare {
                self.spawn_decentralized_prepare(from, req);
            }

            geotp_telemetry::span_end(exec_span);
            StatementResponse {
                outcome: StatementOutcome::Ok { rows },
                local_execution_latency: now().duration_since(started),
            }
        }
    }

    #[expect(
        clippy::manual_async_fn,
        reason = "an `async fn` keeps each parameter twice in its future, which nests in every statement's"
    )]
    fn apply<'a>(
        &'a self,
        xid: Xid,
        op: &'a DsOperation,
    ) -> impl Future<Output = Result<Option<Row>, StorageError>> + 'a {
        async move {
            match op {
                DsOperation::Read { key } => self.engine.read(xid, *key).await.map(Some),
                DsOperation::ReadForUpdate { key } => {
                    self.engine.read_for_update(xid, *key).await.map(Some)
                }
                DsOperation::Write { key, row } => self
                    .engine
                    .write(xid, *key, row.clone())
                    .await
                    .map(|_| None),
                DsOperation::Insert { key, row } => self
                    .engine
                    .insert(xid, *key, row.clone())
                    .await
                    .map(|_| None),
                DsOperation::Delete { key } => self.engine.delete(xid, *key).await.map(|_| None),
                DsOperation::AddInt { key, col, delta } => self
                    .engine
                    .add_int(xid, *key, *col, *delta)
                    .await
                    .map(|v| Some(Row::int(v))),
            }
        }
    }

    /// Handle a statement failure: roll back the local branch and, when early
    /// abort is enabled, proactively tell peer geo-agents to roll back theirs.
    async fn fail_branch(self: &Rc<Self>, from: NodeId, req: &StatementRequest) {
        // Stop queueing for any lock we are still waiting on and roll back.
        self.engine.lock_manager().cancel_waiters(req.xid);
        let _ = self.engine.rollback(req.xid).await;
        self.notify_dm(from, AgentNotification::Rollbacked { xid: req.xid });

        // A crashed data source sends nothing — not to the coordinator (the
        // `notify_dm` above already refuses) and not to peers either. Without
        // this guard a dead geo-agent still pushed early aborts, and under
        // the duplicate-delivery preset each such zombie message was
        // delivered twice, inflating peer-rollback counts in the failure
        // drills. The coordinator's decision-wait timeout now rolls the
        // surviving branches back explicitly, so nothing depends on a dead
        // process speaking.
        if req.early_abort && !self.is_crashed() {
            for &peer_idx in &req.peers {
                if peer_idx == self.index() {
                    continue;
                }
                let Some(peer) = self.peers.borrow().get(&peer_idx).and_then(Weak::upgrade) else {
                    continue;
                };
                self.stats.borrow_mut().early_aborts_sent += 1;
                let net = Rc::clone(&self.net);
                let from_node = self.config.node;
                let peer_xid = Xid::new(req.xid.gtrid, peer_idx);
                let this = Rc::clone(self);
                spawn(async move {
                    // WAN hop between the two geo-agents.
                    net.transfer(from_node, peer.node()).await;
                    peer.peer_rollback(peer_xid).await;
                    let _ = this;
                });
            }
        }
        self.finish(req.xid);
    }

    /// Roll back a branch at the request of a *peer* geo-agent (early abort),
    /// then notify the coordinating middleware that the branch is gone.
    ///
    /// Idempotent: when two failing siblings of a ≥3-branch transaction both
    /// early-abort this branch (or the duplicate-delivery fault doubles the
    /// request), the second call finds the branch concluded, counts nothing
    /// and sends nothing — previously it double-counted `peer_rollbacks` and
    /// re-sent the `Rollbacked` notification.
    async fn peer_rollback(self: &Rc<Self>, xid: Xid) {
        let coordinator = match self.branches.borrow().get(&xid) {
            Some(Branch::Live(coordinator)) => Some(*coordinator),
            // Late or duplicated: the branch concluded or is tombstoned.
            Some(_) => return,
            None => None,
        };
        self.stats.borrow_mut().peer_rollbacks += 1;
        if coordinator.is_none() && self.engine.state_of(xid).is_none() {
            // The branch has not arrived yet (its dispatch was postponed by
            // the scheduler). Leave a tombstone so it is refused on arrival.
            let tombstone = Branch::Tombstoned(self.next_conclusion());
            self.branches.borrow_mut().insert(xid, tombstone);
            return;
        }
        self.engine.lock_manager().cancel_waiters(xid);
        if self.engine.state_of(xid).is_some() {
            let _ = self.engine.rollback(xid).await;
        }
        self.finish(xid);
        if let Some(dm) = coordinator {
            self.notify_dm(dm, AgentNotification::Rollbacked { xid });
        }
    }

    /// Kick off the decentralized prepare phase for a branch in the
    /// background. The vote is pushed to the middleware asynchronously.
    fn spawn_decentralized_prepare(self: &Rc<Self>, dm: NodeId, req: &StatementRequest) {
        self.stats.borrow_mut().decentralized_prepares += 1;
        let this = Rc::clone(self);
        let xid = req.xid;
        let peers_empty = req.peers.is_empty();
        let trace_parent = req.trace_parent;
        spawn(async move {
            // One LAN round trip from the geo-agent to its database.
            sleep(this.config.agent_lan_rtt).await;
            let prepare_span = geotp_telemetry::span_leaf_under(
                xid.gtrid,
                geotp_telemetry::TraceNode::data_source(this.index()),
                geotp_telemetry::SpanKind::Prepare,
                xid.bqual as u64,
                trace_parent,
            );
            let vote = this.async_prepare(xid, peers_empty).await;
            geotp_telemetry::span_end(prepare_span);
            this.notify_dm_inline(dm, AgentNotification::PrepareResult { xid, vote })
                .await;
        });
    }

    /// The geo-agent's `AsyncPrepare` (Algorithm 1): end the branch if it is
    /// still active, and if the transaction is distributed, prepare it.
    /// Centralized branches only end and report `Idle`.
    async fn async_prepare(self: &Rc<Self>, xid: Xid, centralized: bool) -> PrepareVote {
        let Some(state) = self.engine.state_of(xid) else {
            // Already rolled back (e.g. early abort raced with the prepare).
            return PrepareVote::RollbackOnly;
        };
        if state == geotp_storage::XaState::Active && self.engine.end(xid).is_err() {
            let _ = self.engine.rollback(xid).await;
            return PrepareVote::RollbackOnly;
        }
        if centralized {
            return PrepareVote::Idle;
        }
        match self.engine.prepare(xid).await {
            Ok(()) => PrepareVote::Prepared,
            Err(_e) => {
                let _ = self.engine.rollback(xid).await;
                PrepareVote::Failure
            }
        }
    }

    /// Explicit prepare, driven by the middleware over the WAN (the classic
    /// XA path used by the SSP baseline): the geo-agent's `AsyncPrepare` of a
    /// distributed branch.
    pub fn prepare(self: &Rc<Self>, xid: Xid) -> impl Future<Output = PrepareVote> + '_ {
        self.async_prepare(xid, false)
    }

    /// Commit a branch (two-phase if prepared, one-phase otherwise).
    pub async fn commit(self: &Rc<Self>, xid: Xid, one_phase: bool) -> Result<(), StorageError> {
        let result = self.engine.commit(xid, one_phase).await;
        self.settle(xid, &result);
        result
    }

    /// Commit a branch that performed no writes: no prepare, no WAL flush, no
    /// decision-apply cost. The engine refuses if the branch wrote anything,
    /// so the fast path can never lose a durable decision.
    pub fn commit_read_only(self: &Rc<Self>, xid: Xid) -> Result<(), StorageError> {
        let result = self.engine.commit_read_only(xid);
        self.settle(xid, &result);
        result
    }

    /// After a commit: a committed branch concludes; a refused one only loses
    /// its live record (the engine may still hold it).
    fn settle(&self, xid: Xid, committed: &Result<(), StorageError>) {
        if committed.is_ok() {
            self.finish(xid);
        } else if let Entry::Occupied(record) = self.branches.borrow_mut().entry(xid) {
            if matches!(record.get(), Branch::Live(_)) {
                record.remove();
            }
        }
    }

    /// Roll back a branch on the middleware's request.
    pub async fn rollback(self: &Rc<Self>, xid: Xid) -> Result<(), StorageError> {
        self.engine.lock_manager().cancel_waiters(xid);
        let result = if self.engine.state_of(xid).is_some() {
            self.engine.rollback(xid).await
        } else {
            Ok(())
        };
        self.finish(xid);
        result
    }

    /// `XA RECOVER` scoped to one incarnation of coordinator `owner`: the
    /// prepared branches whose gtrid `owner` allocated below sequence number
    /// `below`. Peer takeover adopts exactly these — the in-doubt branches of
    /// the live coordinators, and of the slot's restarted successor, are none
    /// of the adopter's business.
    pub fn recover_prepared_owned_by(&self, owner: u32, below: u64) -> Vec<Xid> {
        let mut xids = self.engine.prepared_xids();
        xids.retain(|xid| allocated_below(*xid, owner, below));
        xids
    }

    /// Abort the unprepared (ACTIVE/ENDED) branches whose gtrid coordinator
    /// `owner` allocated below sequence number `below`, in xid order — what
    /// the data source does when that incarnation disconnects (paper setting
    /// ❶). Every other coordinator's in-flight branches, and those of the
    /// incarnation's successor, are untouched, and prepared branches stay in
    /// doubt for the commit log to resolve. A victim parked in a lock wait
    /// leaves the queue first, so it can never be granted a lock after its
    /// rollback.
    pub async fn abort_unprepared_of(self: &Rc<Self>, owner: u32, below: u64) -> Vec<Xid> {
        let mut victims = self.engine.unfinished_xids();
        victims.retain(|xid| allocated_below(*xid, owner, below));
        for xid in &victims {
            self.engine.lock_manager().cancel_waiters(*xid);
            let _ = self.engine.rollback(*xid).await;
            self.finish(*xid);
        }
        victims
    }

    /// Simulate a crash of this data source (the geo-agent dies with it).
    pub fn crash(&self) {
        self.engine.crash();
    }

    /// Restart after a crash (paper setting ❷): unprepared branches are gone,
    /// prepared branches survive and wait for the coordinator's decision.
    pub async fn restart(self: &Rc<Self>) -> Vec<Xid> {
        self.engine.restart().await
    }

    /// Whether the data source is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.engine.is_crashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_net::NetworkBuilder;
    use geotp_simrt::Runtime;
    use geotp_storage::{CostModel, Key, TableId};

    fn key(row: u64) -> Key {
        Key::new(TableId(0), row)
    }

    fn setup(lan_rtt_ms: u64, wan_ms: u64) -> (Rc<Network>, Rc<DataSource>, NodeId) {
        let dm = NodeId::middleware(0);
        let ds_node = NodeId::data_source(0);
        let net = NetworkBuilder::new(1)
            .static_link(dm, ds_node, Duration::from_millis(wan_ms))
            .build();
        let mut cfg = DataSourceConfig::new(ds_node);
        cfg.agent_lan_rtt = Duration::from_millis(lan_rtt_ms);
        cfg.engine = EngineConfig {
            lock_wait_timeout: Duration::from_secs(5),
            cost: CostModel::zero(),
            record_history: false,
            ..EngineConfig::default()
        };
        let ds = DataSource::new(cfg, Rc::clone(&net));
        ds.load(key(1), Row::int(100));
        ds.load(key(2), Row::int(200));
        (net, ds, dm)
    }

    #[test]
    fn execute_reads_and_writes() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            let xid = Xid::new(1, 0);
            let req = StatementRequest {
                xid,
                begin: true,
                ops: vec![
                    DsOperation::Read { key: key(1) },
                    DsOperation::AddInt {
                        key: key(2),
                        col: 0,
                        delta: 5,
                    },
                ],
                is_last: false,
                decentralized_prepare: false,
                early_abort: false,
                peers: vec![],
                trace_parent: None,
            };
            let resp = ds.execute(dm, &req).await;
            match resp.outcome {
                StatementOutcome::Ok { rows } => {
                    assert_eq!(rows.len(), 2);
                    assert_eq!(rows[0].int_value(), Some(100));
                    assert_eq!(rows[1].int_value(), Some(205));
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
            ds.commit(xid, true).await.unwrap();
            assert_eq!(ds.engine().peek(key(2)).unwrap().int_value(), Some(205));
        });
    }

    #[test]
    fn decentralized_prepare_pushes_vote_to_middleware() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(1, 100);
            let (tx, mut rx) = mpsc::unbounded();
            ds.register_middleware(dm, tx);
            let xid = Xid::new(7, 0);
            let req = StatementRequest {
                xid,
                begin: true,
                ops: vec![DsOperation::AddInt {
                    key: key(1),
                    col: 0,
                    delta: -10,
                }],
                is_last: true,
                decentralized_prepare: true,
                early_abort: false,
                peers: vec![1],
                trace_parent: None,
            };
            let started = now();
            let resp = ds.execute(dm, &req).await;
            assert!(resp.outcome.is_ok());

            // The vote arrives asynchronously: 1ms LAN + half of the 100ms WAN.
            let notification = rx.recv().await.unwrap();
            assert_eq!(
                notification,
                AgentNotification::PrepareResult {
                    xid,
                    vote: PrepareVote::Prepared
                }
            );
            let elapsed = now().duration_since(started);
            assert_eq!(elapsed, Duration::from_millis(51));
            assert_eq!(ds.engine().prepared_xids(), vec![xid]);
            assert_eq!(ds.stats().decentralized_prepares, 1);
        });
    }

    #[test]
    fn centralized_branch_votes_idle() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            let (tx, mut rx) = mpsc::unbounded();
            ds.register_middleware(dm, tx);
            let xid = Xid::new(9, 0);
            let req = StatementRequest {
                xid,
                begin: true,
                ops: vec![DsOperation::Read { key: key(1) }],
                is_last: true,
                decentralized_prepare: true,
                early_abort: false,
                peers: vec![],
                trace_parent: None,
            };
            ds.execute(dm, &req).await;
            let notification = rx.recv().await.unwrap();
            assert_eq!(
                notification,
                AgentNotification::PrepareResult {
                    xid,
                    vote: PrepareVote::Idle
                }
            );
            // One-phase commit still works from the ENDED state.
            ds.commit(xid, true).await.unwrap();
        });
    }

    #[test]
    fn failed_statement_rolls_back_and_notifies_peers() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let dm = NodeId::middleware(0);
            let ds0_node = NodeId::data_source(0);
            let ds1_node = NodeId::data_source(1);
            let net = NetworkBuilder::new(1)
                .static_link(dm, ds0_node, Duration::from_millis(10))
                .static_link(dm, ds1_node, Duration::from_millis(100))
                .static_link(ds0_node, ds1_node, Duration::from_millis(100))
                .build();
            let mk = |node: NodeId| {
                let mut cfg = DataSourceConfig::new(node);
                cfg.engine = EngineConfig {
                    lock_wait_timeout: Duration::from_millis(50),
                    cost: CostModel::zero(),
                    record_history: false,
                    ..EngineConfig::default()
                };
                cfg.agent_lan_rtt = Duration::ZERO;
                DataSource::new(cfg, Rc::clone(&net))
            };
            let ds0 = mk(ds0_node);
            let ds1 = mk(ds1_node);
            ds0.register_peer(&ds1);
            ds1.register_peer(&ds0);
            let (tx, mut rx) = mpsc::unbounded();
            ds0.register_middleware(dm, tx.clone());
            ds1.register_middleware(dm, tx);
            ds0.load(key(1), Row::int(0));
            ds1.load(key(2), Row::int(0));

            let gtrid = 5;
            // Branch on ds1 executes fine and holds its lock.
            let xid1 = Xid::new(gtrid, 1);
            let ok = ds1
                .execute(
                    dm,
                    &StatementRequest {
                        xid: xid1,
                        begin: true,
                        ops: vec![DsOperation::AddInt {
                            key: key(2),
                            col: 0,
                            delta: 1,
                        }],
                        is_last: false,
                        decentralized_prepare: true,
                        early_abort: true,
                        peers: vec![0],
                        trace_parent: None,
                    },
                )
                .await;
            assert!(ok.outcome.is_ok());

            // An unrelated branch takes the lock ds0's branch will need.
            let blocker = Xid::new(99, 0);
            ds0.engine().begin(blocker).unwrap();
            ds0.engine().add_int(blocker, key(1), 0, 1).await.unwrap();

            // Branch on ds0 times out on the lock and fails.
            let xid0 = Xid::new(gtrid, 0);
            let resp = ds0
                .execute(
                    dm,
                    &StatementRequest {
                        xid: xid0,
                        begin: true,
                        ops: vec![DsOperation::AddInt {
                            key: key(1),
                            col: 0,
                            delta: 1,
                        }],
                        is_last: false,
                        decentralized_prepare: true,
                        early_abort: true,
                        peers: vec![1],
                        trace_parent: None,
                    },
                )
                .await;
            assert!(!resp.outcome.is_ok());

            // Collect notifications: ds0's own rollback plus ds1's peer rollback.
            let first = rx.recv().await.unwrap();
            let second = rx.recv().await.unwrap();
            let mut xids = vec![first.xid(), second.xid()];
            xids.sort();
            assert_eq!(xids, vec![xid0, xid1]);
            assert_eq!(ds1.stats().peer_rollbacks, 1);
            assert_eq!(ds0.stats().early_aborts_sent, 1);
            // ds1's write was undone by the early abort.
            assert_eq!(ds1.engine().peek(key(2)).unwrap().int_value(), Some(0));
        });
    }

    #[test]
    fn peer_rollback_is_idempotent_for_a_gone_branch() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            let (tx, mut rx) = mpsc::unbounded();
            ds.register_middleware(dm, tx);
            let xid = Xid::new(21, 0);
            ds.execute(
                dm,
                &StatementRequest {
                    xid,
                    begin: true,
                    ops: vec![DsOperation::AddInt {
                        key: key(1),
                        col: 0,
                        delta: 1,
                    }],
                    is_last: false,
                    decentralized_prepare: false,
                    early_abort: true,
                    peers: vec![1],
                    trace_parent: None,
                },
            )
            .await;
            // Two failing siblings (or a duplicated delivery) both ask this
            // branch to roll back: one rollback, one notification, one count.
            ds.peer_rollback(xid).await;
            ds.peer_rollback(xid).await;
            assert_eq!(ds.stats().peer_rollbacks, 1, "second request is a no-op");
            assert_eq!(
                rx.recv().await.unwrap(),
                AgentNotification::Rollbacked { xid }
            );
            assert!(
                rx.try_recv().is_none(),
                "the duplicate request must not re-send Rollbacked"
            );
            assert_eq!(ds.engine().peek(key(1)).unwrap().int_value(), Some(100));
        });
    }

    /// Conclude `n` branches that never ran here, gtrids from `first` (the
    /// middleware's rollback concludes a branch whether or not it arrived).
    async fn conclude_fresh(ds: &Rc<DataSource>, first: u64, n: u32) {
        for gtrid in first..first + u64::from(n) {
            ds.rollback(Xid::new(gtrid, 0)).await.unwrap();
        }
    }

    /// A branch's first statement: add 1 to key 1.
    fn first_statement(xid: Xid) -> StatementRequest {
        StatementRequest {
            xid,
            begin: true,
            ops: vec![DsOperation::AddInt {
                key: key(1),
                col: 0,
                delta: 1,
            }],
            is_last: false,
            decentralized_prepare: false,
            early_abort: true,
            peers: vec![1],
            trace_parent: None,
        }
    }

    /// Drain the notifications that reached the middleware by now.
    async fn notifications(rx: &mut mpsc::Receiver<AgentNotification>) -> usize {
        sleep(Duration::from_millis(100)).await;
        let mut n = 0;
        while rx.try_recv().is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn a_late_abort_after_100_001_conclusions_plants_no_tombstone() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            conclude_fresh(&ds, 1, 100_002).await;
            // A late early abort for the branch that concluded one
            // conclusion ago: nothing to roll back and nothing to refuse.
            let late = Xid::new(100_001, 0);
            ds.peer_rollback(late).await;
            assert_eq!(ds.stats().peer_rollbacks, 0, "a late abort is a no-op");
            assert!(ds.execute(dm, &first_statement(late)).await.outcome.is_ok());
        });
    }

    #[test]
    fn a_duplicate_abort_inside_the_retention_window_is_a_no_op() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            let (tx, mut rx) = mpsc::unbounded();
            ds.register_middleware(dm, tx);
            let xid = Xid::new(1, 0);
            assert!(ds.execute(dm, &first_statement(xid)).await.outcome.is_ok());
            ds.peer_rollback(xid).await;
            conclude_fresh(&ds, 100, BRANCH_RETENTION).await;
            ds.peer_rollback(xid).await;
            assert_eq!(ds.stats().peer_rollbacks, 1);
            assert_eq!(notifications(&mut rx).await, 1, "one Rollbacked");
        });
    }

    #[test]
    fn an_unclaimed_tombstone_expires_after_the_retention_window() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            let xid = Xid::new(1, 0);
            ds.peer_rollback(xid).await;
            assert_eq!(ds.stats().peer_rollbacks, 1, "the tombstone counts");
            conclude_fresh(&ds, 100, 2 * BRANCH_RETENTION).await;
            // Its branch arrives after the window: nothing refuses it.
            assert!(ds.execute(dm, &first_statement(xid)).await.outcome.is_ok());
        });
    }

    #[test]
    fn the_agent_keeps_at_most_twice_the_window_of_concluded_branches() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, _dm) = setup(0, 10);
            conclude_fresh(&ds, 1, 2 * BRANCH_RETENTION - 1).await;
            assert_eq!(ds.branches.borrow().len() as u32, 2 * BRANCH_RETENTION - 1);
            conclude_fresh(&ds, 2 * u64::from(BRANCH_RETENTION), 1).await;
            assert_eq!(ds.branches.borrow().len() as u32, BRANCH_RETENTION + 1);
        });
    }

    #[test]
    fn a_branch_record_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Branch>(), 8);
    }

    #[test]
    fn a_tombstone_refuses_its_branch_inside_the_retention_window() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            let (tx, mut rx) = mpsc::unbounded();
            ds.register_middleware(dm, tx);
            let xid = Xid::new(1, 0);
            ds.peer_rollback(xid).await;
            conclude_fresh(&ds, 100, BRANCH_RETENTION).await;
            let refused = ds.execute(dm, &first_statement(xid)).await;
            assert!(!refused.outcome.is_ok());
            assert_eq!(ds.engine().state_of(xid), None, "it never began");
            assert_eq!(notifications(&mut rx).await, 1, "one Rollbacked");
            assert_eq!(ds.engine().peek(key(1)).unwrap().int_value(), Some(100));
        });
    }

    #[test]
    fn crashed_source_sends_no_early_aborts() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let dm = NodeId::middleware(0);
            let ds0_node = NodeId::data_source(0);
            let ds1_node = NodeId::data_source(1);
            let net = NetworkBuilder::new(1)
                .static_link(dm, ds0_node, Duration::from_millis(10))
                .static_link(dm, ds1_node, Duration::from_millis(10))
                .static_link(ds0_node, ds1_node, Duration::from_millis(10))
                .build();
            let mk = |node: NodeId| {
                let mut cfg = DataSourceConfig::new(node);
                cfg.engine = EngineConfig {
                    lock_wait_timeout: Duration::from_secs(60),
                    cost: CostModel::zero(),
                    record_history: false,
                    ..EngineConfig::default()
                };
                cfg.agent_lan_rtt = Duration::ZERO;
                DataSource::new(cfg, Rc::clone(&net))
            };
            let ds0 = mk(ds0_node);
            let ds1 = mk(ds1_node);
            ds0.register_peer(&ds1);
            ds1.register_peer(&ds0);
            ds0.load(key(1), Row::int(0));

            // An unrelated holder parks the branch's statement in a lock wait.
            let blocker = Xid::new(99, 0);
            ds0.engine().begin(blocker).unwrap();
            ds0.engine().add_int(blocker, key(1), 0, 1).await.unwrap();

            let xid = Xid::new(5, 0);
            let ds0_exec = Rc::clone(&ds0);
            let blocked = geotp_simrt::spawn(async move {
                ds0_exec
                    .execute(
                        dm,
                        &StatementRequest {
                            xid,
                            begin: true,
                            ops: vec![DsOperation::AddInt {
                                key: key(1),
                                col: 0,
                                delta: 1,
                            }],
                            is_last: false,
                            decentralized_prepare: true,
                            early_abort: true,
                            peers: vec![1],
                            trace_parent: None,
                        },
                    )
                    .await
            });
            geotp_simrt::sleep(Duration::from_millis(5)).await;
            // The node dies mid-statement; the kicked-out lock wait fails the
            // statement on a now-crashed source. Its geo-agent died with it:
            // no early aborts may reach the peer (previously a zombie task
            // still pushed them — doubled under duplicate delivery).
            ds0.crash();
            let resp = blocked.await;
            assert!(!resp.outcome.is_ok());
            geotp_simrt::sleep(Duration::from_millis(50)).await;
            assert_eq!(ds0.stats().early_aborts_sent, 0, "dead agents say nothing");
            assert_eq!(ds1.stats().peer_rollbacks, 0);
        });
    }

    #[test]
    fn coordinator_disconnect_aborts_unprepared_branches() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            let xid_active = Xid::new(1, 0);
            ds.execute(
                dm,
                &StatementRequest {
                    xid: xid_active,
                    begin: true,
                    ops: vec![DsOperation::AddInt {
                        key: key(1),
                        col: 0,
                        delta: 1,
                    }],
                    is_last: false,
                    decentralized_prepare: false,
                    early_abort: false,
                    peers: vec![],
                    trace_parent: None,
                },
            )
            .await;
            let xid_prepared = Xid::new(2, 0);
            ds.execute(
                dm,
                &StatementRequest {
                    xid: xid_prepared,
                    begin: true,
                    ops: vec![DsOperation::AddInt {
                        key: key(2),
                        col: 0,
                        delta: 1,
                    }],
                    is_last: false,
                    decentralized_prepare: false,
                    early_abort: false,
                    peers: vec![1],
                    trace_parent: None,
                },
            )
            .await;
            assert_eq!(ds.prepare(xid_prepared).await, PrepareVote::Prepared);
            // Another coordinator's in-flight branch (gtrid owner 1).
            ds.load(key(3), Row::int(300));
            let xid_peer = Xid::new((1 << Xid::OWNER_SHIFT) | 1, 0);
            ds.execute(
                dm,
                &StatementRequest {
                    xid: xid_peer,
                    begin: true,
                    ops: vec![DsOperation::AddInt {
                        key: key(3),
                        col: 0,
                        delta: 1,
                    }],
                    is_last: false,
                    decentralized_prepare: false,
                    early_abort: false,
                    peers: vec![],
                    trace_parent: None,
                },
            )
            .await;

            let aborted = ds.abort_unprepared_of(0, 3).await;
            assert_eq!(aborted, vec![xid_active]);
            assert_eq!(ds.engine().prepared_xids(), vec![xid_prepared]);
            assert_eq!(ds.engine().peek(key(1)).unwrap().int_value(), Some(100));
            // The peer's branch survives and still commits.
            assert_eq!(ds.engine().unfinished_xids(), vec![xid_peer]);
            ds.commit(xid_peer, true).await.unwrap();
            assert_eq!(ds.engine().peek(key(3)).unwrap().int_value(), Some(301));
        });
    }

    #[test]
    fn crash_and_restart_preserves_prepared_branch() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, ds, dm) = setup(0, 10);
            let xid = Xid::new(3, 0);
            ds.execute(
                dm,
                &StatementRequest {
                    xid,
                    begin: true,
                    ops: vec![DsOperation::AddInt {
                        key: key(1),
                        col: 0,
                        delta: 77,
                    }],
                    is_last: false,
                    decentralized_prepare: false,
                    early_abort: false,
                    peers: vec![1],
                    trace_parent: None,
                },
            )
            .await;
            assert_eq!(ds.prepare(xid).await, PrepareVote::Prepared);
            ds.crash();
            assert!(ds.is_crashed());
            let recovered = ds.restart().await;
            assert_eq!(recovered, vec![xid]);
            ds.commit(xid, false).await.unwrap();
            assert_eq!(ds.engine().peek(key(1)).unwrap().int_value(), Some(177));
        });
    }
}
