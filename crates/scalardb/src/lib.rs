//! # geotp-scalardb — the ScalarDB-style baseline
//!
//! ScalarDB (Yamada et al., VLDB 2023) is a universal transaction manager
//! that layers ACID transactions *above* arbitrary (possibly
//! non-transactional) data stores: all concurrency control happens at the
//! middleware, and the underlying stores are driven with single-record
//! get/put operations plus a "Consensus Commit" protocol that writes prepared
//! records and then a commit-status record.
//!
//! The paper uses ScalarDB as a baseline precisely because of this
//! architecture: concurrency control at the DM node limits scalability, and
//! the commit path costs additional WAN round trips. This crate reproduces
//! that architecture on the simulated substrate:
//!
//! * data sources are treated as dumb key-value stores (we reuse
//!   [`geotp_datasource::DataSource`] storage but bypass its XA machinery),
//! * record locks live in a lock table *inside the coordinator*
//!   ([`geotp_storage::LockManager`] reused at the middleware),
//! * execution reads each involved data source once per round (one WAN round
//!   trip per data source), writes are buffered at the coordinator,
//! * commit performs the Consensus-Commit sequence: one WAN round trip to
//!   write prepared records on every involved data source, then one WAN round
//!   trip to persist the commit-status record, then asynchronous apply.
//!
//! There is one transaction body: the session front door
//! (the cluster's [`SessionService`] impl) drives begin / round / commit
//! statement by statement, and [`ScalarDbCluster::run`] replays a whole
//! [`TransactionSpec`] through the same three steps as a declared plan.
//!
//! [`ScalarDbCluster::new_plus`] builds **ScalarDB+**, the paper's variant
//! that plugs GeoTP's latency-aware scheduler (O2) and admission heuristics
//! (O3) into the same architecture — demonstrating that the proposed
//! techniques generalize beyond ShardingSphere.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use geotp_datasource::DataSource;
use geotp_middleware::session::{BoxFuture, RoundResult, SessionService, TxnError, TxnHandle};
use geotp_middleware::{
    AbortReason, AdmissionDecision, BranchPlan, ClientOp, GeoScheduler, GlobalKey, MiddlewareStats,
    Partitioner, SchedulerConfig, TransactionSpec, TxnOutcome,
};
use geotp_net::{LatencyMonitor, Network, NodeId};
use geotp_simrt::{join_all, now, sleep, SimInstant};
use geotp_storage::{Key, LockManager, LockMode, Row, Xid};

/// CPU cost of coordinator-side validation, charged once per transaction.
const VALIDATION_COST: Duration = Duration::from_micros(500);

/// The ScalarDB-style transaction manager.
pub struct ScalarDbCluster {
    /// The coordinator's node (co-located with the client, like the GeoTP
    /// middleware it is compared against).
    node: NodeId,
    /// ScalarDB+: GeoTP's latency-aware scheduling (O2) and admission
    /// heuristics (O3) plugged into the same architecture.
    plus: bool,
    net: Rc<Network>,
    /// The stores, indexed by data-source id.
    sources: Vec<Rc<DataSource>>,
    partitioner: Partitioner,
    locks: Rc<LockManager>,
    scheduler: GeoScheduler,
    next_txn: Cell<u64>,
    stats: RefCell<MiddlewareStats>,
}

impl ScalarDbCluster {
    /// Build a plain ScalarDB coordinator at `node` over the given data
    /// sources (in data-source order). The coordinator-side lock table waits
    /// as long as the deployment's stores do.
    pub fn new(
        node: NodeId,
        net: Rc<Network>,
        sources: &[Rc<DataSource>],
        partitioner: Partitioner,
    ) -> Rc<Self> {
        Self::build(node, net, sources, partitioner, false)
    }

    /// Build the ScalarDB+ variant (latency-aware scheduling + heuristics).
    pub fn new_plus(
        node: NodeId,
        net: Rc<Network>,
        sources: &[Rc<DataSource>],
        partitioner: Partitioner,
    ) -> Rc<Self> {
        Self::build(node, net, sources, partitioner, true)
    }

    fn build(
        node: NodeId,
        net: Rc<Network>,
        sources: &[Rc<DataSource>],
        partitioner: Partitioner,
        plus: bool,
    ) -> Rc<Self> {
        assert!(
            !sources.is_empty() && (0..).zip(sources).all(|(i, s)| s.index() == i),
            "ScalarDB needs its data sources, in data-source order"
        );
        let targets: Vec<NodeId> = sources.iter().map(|s| s.node()).collect();
        let monitor = LatencyMonitor::new(&net, node, &targets);
        Rc::new(Self {
            node,
            plus,
            locks: LockManager::new(sources[0].engine().config().lock_wait_timeout),
            sources: sources.to_vec(),
            partitioner,
            scheduler: GeoScheduler::new(SchedulerConfig::default(), monitor, plus, plus),
            net,
            next_txn: Cell::new(1),
            stats: RefCell::new(MiddlewareStats::default()),
        })
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MiddlewareStats {
        *self.stats.borrow()
    }

    /// One WAN round trip to data source `ds` performing `work` at the store.
    async fn round_trip<T>(&self, ds: u32, work: impl FnOnce(&DataSource) -> T) -> T {
        let source = &self.sources[ds as usize];
        self.net.transfer(self.node, source.node()).await;
        let out = work(source);
        self.net.transfer(source.node(), self.node).await;
        out
    }

    /// Run one whole transaction: the live path with `spec` declared up front
    /// (`begin_txn` says what that fixes), rows of all rounds concatenated.
    pub async fn run(self: &Rc<Self>, spec: &TransactionSpec) -> TxnOutcome {
        let mut txn = self.begin_txn(Some(spec)).await;
        let mut rows = Vec::new();
        for round in &spec.rounds {
            match txn.run_round(round).await {
                Ok(mut result) => rows.append(&mut result.rows),
                Err(error) => return error.outcome,
            }
        }
        let mut outcome = txn.commit_txn().await;
        outcome.rows = rows;
        outcome
    }

    /// Open a transaction. A statement stream (`plan == None`) learns its
    /// keys and data sources round by round. A declared plan fixes them
    /// before validation: the key set is the spec's (sorted), so the
    /// commit-status record goes to the lowest involved data source rather
    /// than the first touched, ScalarDB+ registers every key with the hotspot
    /// footprint in one touch now instead of per fresh key after the sleep,
    /// and the opening round's admission check sees the whole transaction.
    async fn begin_txn(self: &Rc<Self>, plan: Option<&TransactionSpec>) -> ScalarDbTxn {
        let started = now();
        let gtrid = self.next_txn.get();
        self.next_txn.set(gtrid + 1);
        let keys = plan.map(TransactionSpec::keys).unwrap_or_default();
        let involved = self.partitioner.involved_nodes(&keys);
        if self.plus {
            self.scheduler
                .footprint()
                .borrow_mut()
                .on_access_start(&keys);
        }
        sleep(VALIDATION_COST).await;
        ScalarDbTxn {
            cluster: Rc::clone(self),
            gtrid,
            xid: Xid::new(gtrid, 0),
            started,
            keys,
            involved,
            writes: BTreeMap::new(),
            rounds: 0,
            failed: None,
        }
    }
}

/// A buffered write, applied to the store by the Consensus-Commit prepare
/// round.
enum WriteIntent {
    Put(Row),
    Add { col: usize, delta: i64 },
    Delete,
}

impl WriteIntent {
    fn of(op: &ClientOp) -> Option<Self> {
        match op {
            ClientOp::AddInt { col, delta, .. } => Some(WriteIntent::Add {
                col: *col,
                delta: *delta,
            }),
            ClientOp::Write { row, .. } | ClientOp::Insert { row, .. } => {
                Some(WriteIntent::Put(row.clone()))
            }
            ClientOp::Delete(_) => Some(WriteIntent::Delete),
            ClientOp::Read(_) | ClientOp::ReadForUpdate(_) => None,
        }
    }

    fn apply(self, source: &DataSource, key: Key) {
        let row = match self {
            WriteIntent::Put(row) => row,
            WriteIntent::Add { col, delta } => {
                let mut row = source.engine().peek(key).unwrap_or_default();
                row.add_int(col, delta);
                row
            }
            // The store has no transactional delete; ScalarDB tombstones
            // records, modelled as overwriting with an empty row.
            WriteIntent::Delete => Row::new(),
        };
        source.engine().load(key, row);
    }
}

/// One live transaction. Concurrency control lives at the coordinator, so a
/// round acquires coordinator-side locks, fetches its reads and buffers its
/// writes; only `commit` writes to the stores.
struct ScalarDbTxn {
    cluster: Rc<ScalarDbCluster>,
    gtrid: u64,
    xid: Xid,
    started: SimInstant,
    /// Distinct keys, declared up front or in first-touch order.
    keys: Vec<GlobalKey>,
    /// Involved data sources, in the order of `keys`.
    involved: Vec<u32>,
    /// Buffered writes per data source, in statement order.
    writes: BTreeMap<u32, Vec<(Key, WriteIntent)>>,
    rounds: usize,
    /// The aborted outcome of a transaction that already failed: a later
    /// commit/rollback on the handle re-reports it instead of re-running the
    /// (lock-free by then!) write path or double-recording stats.
    failed: Option<TxnOutcome>,
}

impl ScalarDbTxn {
    /// Release the coordinator-side locks and record the outcome.
    fn conclude(&self, committed: bool, reason: Option<AbortReason>) -> TxnOutcome {
        let cluster = &self.cluster;
        cluster.locks.release_all(self.xid);
        if cluster.plus {
            cluster
                .scheduler
                .footprint()
                .borrow_mut()
                .on_txn_finish(&self.keys, committed);
        }
        let outcome = TxnOutcome {
            gtrid: self.gtrid,
            committed,
            abort_reason: reason,
            latency: now().duration_since(self.started),
            distributed: self.involved.len() > 1,
            ..TxnOutcome::default()
        };
        cluster.stats.borrow_mut().record(&outcome);
        outcome
    }

    fn fail(&mut self, reason: AbortReason) -> TxnError {
        let outcome = self.conclude(false, Some(reason));
        self.failed = Some(outcome.clone());
        TxnError::aborted(outcome, false)
    }

    async fn run_round(&mut self, ops: &[ClientOp]) -> Result<RoundResult, TxnError> {
        let round_started = now();
        let opening = self.rounds == 0;
        self.rounds += 1;
        let cluster = Rc::clone(&self.cluster);
        let mut fresh = Vec::new();
        for op in ops {
            let key = op.key();
            if !self.keys.contains(&key) {
                self.keys.push(key);
                fresh.push(key);
                let ds = cluster.partitioner.route(key);
                if !self.involved.contains(&ds) {
                    self.involved.push(ds);
                }
            }
        }
        if cluster.plus {
            cluster
                .scheduler
                .footprint()
                .borrow_mut()
                .on_access_start(&fresh);
        }

        // Admission control on the opening round (ScalarDB+ only).
        if cluster.plus && opening {
            let plans: Vec<BranchPlan> = self
                .involved
                .iter()
                .map(|ds| BranchPlan {
                    ds_index: *ds,
                    keys: self
                        .keys
                        .iter()
                        .copied()
                        .filter(|k| cluster.partitioner.route(*k) == *ds)
                        .collect(),
                })
                .collect();
            // Admission only: the rounds are scheduled as they come.
            let mut postpone = Vec::new();
            if let AdmissionDecision::Reject { .. } = cluster
                .scheduler
                .schedule_with_admission(&plans, &mut postpone)
            {
                return Err(self.fail(AbortReason::AdmissionRejected));
            }
        }

        // Coordinator-side 2PL before any store access.
        for op in ops {
            let mode = if op.is_write() {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            let key = op.key().storage_key();
            if cluster.locks.acquire(self.xid, key, mode).await.is_err() {
                return Err(self.fail(AbortReason::ExecutionFailed));
            }
        }

        // One WAN round trip per involved data source fetching this round's
        // reads, postponed per the latency-aware schedule (the + variant;
        // plain ScalarDB dispatches everything immediately).
        let groups = cluster.partitioner.split(ops);
        let plans: Vec<BranchPlan> = groups
            .iter()
            .map(|(ds, ops)| BranchPlan {
                ds_index: *ds,
                keys: ops.iter().map(|op| op.key()).collect(),
            })
            .collect();
        let schedule = cluster.scheduler.schedule(&plans);
        let batches = groups
            .iter()
            .zip(schedule.postpone)
            .map(|((ds, ops), postpone)| {
                let reads: Vec<Key> = ops
                    .iter()
                    .filter(|op| !op.is_write())
                    .map(|op| op.key().storage_key())
                    .collect();
                let (this, ds) = (Rc::clone(&cluster), *ds);
                async move {
                    if !postpone.is_zero() {
                        sleep(postpone).await;
                    }
                    this.round_trip(ds, |source| {
                        reads
                            .iter()
                            .map(|k| source.engine().peek(*k))
                            .collect::<Vec<Option<Row>>>()
                    })
                    .await
                }
            });
        let mut rows = Vec::new();
        for row in join_all(batches).await.into_iter().flatten() {
            match row {
                Some(row) => rows.push(row),
                None => return Err(self.fail(AbortReason::ExecutionFailed)),
            }
        }

        // Buffer writes for the commit write phase.
        for (ds, ops) in &groups {
            for op in ops {
                if let Some(intent) = WriteIntent::of(op) {
                    let key = op.key().storage_key();
                    self.writes.entry(*ds).or_default().push((key, intent));
                }
            }
        }
        Ok(RoundResult {
            rows,
            latency: now().duration_since(round_started),
        })
    }

    /// Consensus Commit: one round trip writing the prepared records on every
    /// data source with buffered writes — dispatched in data-source order, so
    /// jittered links draw in the same order on every run — then one
    /// persisting the commit-status record on the first involved data source,
    /// then (asynchronous, not modelled) apply.
    async fn commit_txn(&mut self) -> TxnOutcome {
        if let Some(outcome) = &self.failed {
            return outcome.clone();
        }
        let cluster = Rc::clone(&self.cluster);
        let prepares = std::mem::take(&mut self.writes)
            .into_iter()
            .map(|(ds, writes)| {
                let this = Rc::clone(&cluster);
                async move {
                    this.round_trip(ds, |source| {
                        for (key, intent) in writes {
                            intent.apply(source, key);
                        }
                    })
                    .await
                }
            });
        join_all(prepares).await;
        let status_ds = self.involved.first().copied().unwrap_or(0);
        cluster.round_trip(status_ds, |_| ()).await;
        self.conclude(true, None)
    }
}

impl TxnHandle for ScalarDbTxn {
    fn execute<'a>(
        &'a mut self,
        ops: &'a [ClientOp],
        _last: bool,
    ) -> BoxFuture<'a, Result<RoundResult, TxnError>> {
        Box::pin(self.run_round(ops))
    }

    fn commit(mut self: Box<Self>) -> BoxFuture<'static, TxnOutcome> {
        Box::pin(async move { self.commit_txn().await })
    }

    fn rollback(self: Box<Self>) -> BoxFuture<'static, TxnOutcome> {
        // Writes were only buffered; dropping them and releasing the
        // coordinator-side locks is the whole rollback.
        Box::pin(async move {
            match &self.failed {
                Some(outcome) => outcome.clone(),
                None => self.conclude(false, Some(AbortReason::ClientRollback)),
            }
        })
    }

    fn abandon(self: Box<Self>) {
        if self.failed.is_none() {
            self.conclude(false, Some(AbortReason::ClientDisconnected));
        }
    }

    fn gtrid(&self) -> u64 {
        self.gtrid
    }
}

impl SessionService for ScalarDbCluster {
    fn begin(
        self: Rc<Self>,
        _session: u64,
    ) -> BoxFuture<'static, Result<Box<dyn TxnHandle>, TxnError>> {
        Box::pin(async move { Ok(Box::new(self.begin_txn(None).await) as Box<dyn TxnHandle>) })
    }

    fn label(&self) -> String {
        if self.plus { "ScalarDB+" } else { "ScalarDB" }.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_datasource::DataSourceConfig;
    use geotp_middleware::GlobalKey;
    use geotp_net::NetworkBuilder;
    use geotp_simrt::Runtime;
    use geotp_storage::TableId;

    fn gk(row: u64) -> GlobalKey {
        GlobalKey::new(TableId(0), row)
    }

    fn cluster(plus: bool) -> (Rc<ScalarDbCluster>, Vec<Rc<DataSource>>) {
        let dm = NodeId::middleware(0);
        let net = NetworkBuilder::new(3)
            .static_link(dm, NodeId::data_source(0), Duration::from_millis(10))
            .static_link(dm, NodeId::data_source(1), Duration::from_millis(100))
            .build();
        let sources: Vec<_> = (0..2)
            .map(|i| {
                DataSource::new(
                    DataSourceConfig::new(NodeId::data_source(i)),
                    Rc::clone(&net),
                )
            })
            .collect();
        for (i, s) in sources.iter().enumerate() {
            for row in 0..100u64 {
                s.load(gk(i as u64 * 100 + row).storage_key(), Row::int(500));
            }
        }
        let partitioner = Partitioner::Range {
            rows_per_node: 100,
            nodes: 2,
        };
        let cluster = if plus {
            ScalarDbCluster::new_plus(dm, net, &sources, partitioner)
        } else {
            ScalarDbCluster::new(dm, net, &sources, partitioner)
        };
        (cluster, sources)
    }

    #[test]
    fn read_write_transaction_commits_and_applies() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (cluster, sources) = cluster(false);
            let spec = TransactionSpec::single_round(vec![
                ClientOp::Read(gk(1)),
                ClientOp::add(gk(101), 25),
            ]);
            let outcome = ScalarDbCluster::run(&cluster, &spec).await;
            assert!(outcome.committed);
            assert!(outcome.distributed);
            assert_eq!(outcome.rows.len(), 1);
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(101).storage_key())
                    .unwrap()
                    .int_value(),
                Some(525)
            );
            // Execution round (100ms) + prepare writes (100ms) + status (10ms)
            // plus validation: clearly more than GeoTP's two round trips.
            assert!(outcome.latency >= Duration::from_millis(210));
        });
    }

    #[test]
    fn coordinator_locks_serialize_conflicting_transactions() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (cluster, sources) = cluster(false);
            let spec = TransactionSpec::single_round(vec![ClientOp::add(gk(1), 1)]);
            let a = {
                let cluster = Rc::clone(&cluster);
                let spec = spec.clone();
                geotp_simrt::spawn(async move { ScalarDbCluster::run(&cluster, &spec).await })
            };
            let b = {
                let cluster = Rc::clone(&cluster);
                let spec = spec.clone();
                geotp_simrt::spawn(async move { ScalarDbCluster::run(&cluster, &spec).await })
            };
            assert!(a.await.committed);
            assert!(b.await.committed);
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(502),
                "both increments must be applied exactly once"
            );
        });
    }

    #[test]
    fn missing_key_aborts_the_transaction() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (cluster, _sources) = cluster(false);
            let spec = TransactionSpec::single_round(vec![ClientOp::Read(gk(99_999))]);
            let outcome = ScalarDbCluster::run(&cluster, &spec).await;
            assert!(!outcome.committed);
            assert_eq!(outcome.abort_reason, Some(AbortReason::ExecutionFailed));
            assert_eq!(cluster.stats().aborted, 1);
        });
    }

    #[test]
    fn interactive_session_commits_round_by_round() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (cluster, sources) = cluster(false);
            let mut session = cluster.connect(3);
            let mut txn = session.begin().await.unwrap();
            let r1 = txn.execute(&[ClientOp::Read(gk(1))]).await.unwrap();
            assert_eq!(r1.rows.len(), 1);
            txn.execute(&[ClientOp::add(gk(101), 25)]).await.unwrap();
            let outcome = txn.commit().await;
            assert!(outcome.committed);
            assert!(outcome.distributed);
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(101).storage_key())
                    .unwrap()
                    .int_value(),
                Some(525)
            );
        });
    }

    /// The fold's contract: a spec submitted whole and the same spec replayed
    /// as a statement stream are the same transaction.
    #[test]
    fn one_shot_and_session_replay_agree_on_a_single_round_spec() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let spec = TransactionSpec::single_round(vec![
                ClientOp::Read(gk(1)),
                ClientOp::add(gk(101), 25),
            ]);
            let (one_shot, one_shot_sources) = cluster(false);
            let declared = ScalarDbCluster::run(&one_shot, &spec).await;
            let (live, live_sources) = cluster(false);
            let mut session = live.connect(1);
            let streamed = session.run_spec(&spec).await;
            assert!(declared.committed);
            assert_eq!(declared, streamed);
            assert_eq!(one_shot.stats(), live.stats());
            for key in [gk(1), gk(101)] {
                let stored = |sources: &[Rc<DataSource>]| {
                    sources[key.row as usize / 100]
                        .engine()
                        .peek(key.storage_key())
                };
                assert_eq!(stored(&one_shot_sources), stored(&live_sources));
            }
        });
    }

    /// The one difference a declared plan carries: ScalarDB+ registers the
    /// whole key set with the hotspot footprint at `begin`, while a stream
    /// registers each key in the round that first touches it.
    #[test]
    fn declared_plan_touches_the_footprint_once_a_stream_per_fresh_key() {
        let rounds = vec![
            vec![ClientOp::Read(gk(1))],
            vec![ClientOp::add(gk(2), 1)],
            vec![ClientOp::add(gk(101), 1)],
        ];
        let keys = [gk(1), gk(2), gk(101)];
        let accessing = |cluster: &ScalarDbCluster| {
            let footprint = cluster.scheduler.footprint().borrow();
            keys.map(|key| footprint.stats(key).map(|stats| (stats.t_cnt, stats.a_cnt)))
        };
        let mut rt = Runtime::new();
        rt.block_on(async {
            let spec = TransactionSpec::multi_round(rounds.clone());

            let (declared, _) = cluster(true);
            let running = {
                let declared = Rc::clone(&declared);
                geotp_simrt::spawn(async move { ScalarDbCluster::run(&declared, &spec).await })
            };
            // Inside round one (validation 500 µs, then a 10 ms round trip).
            sleep(Duration::from_millis(1)).await;
            assert_eq!(accessing(&declared), [Some((1, 1)); 3]);
            assert!(running.await.committed);

            let (streamed, _) = cluster(true);
            let mut session = streamed.connect(1);
            let mut txn = session.begin().await.unwrap();
            let mut known = [None; 3];
            for (round, ops) in rounds.iter().enumerate() {
                txn.execute(ops).await.unwrap();
                known[round] = Some((1, 1));
                assert_eq!(accessing(&streamed), known);
            }
            assert!(txn.commit().await.committed);

            // Either way every key ends up counted once and released.
            assert_eq!(accessing(&declared), [Some((1, 0)); 3]);
            assert_eq!(accessing(&streamed), [Some((1, 0)); 3]);
        });
    }

    /// Regression: `commit` on a transaction that already failed must
    /// re-report the abort — never replay the buffered writes (the locks are
    /// long gone) or double-record stats.
    #[test]
    fn commit_after_failed_round_reapplies_nothing() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (cluster, sources) = cluster(false);
            let mut session = cluster.connect(4);
            let mut txn = session.begin().await.unwrap();
            txn.execute(&[ClientOp::add(gk(1), 77)]).await.unwrap();
            let error = txn
                .execute(&[ClientOp::Read(gk(99_999))])
                .await
                .expect_err("missing key fails the round");
            assert_eq!(error.reason, AbortReason::ExecutionFailed);
            let outcome = txn.commit().await;
            assert!(!outcome.committed, "a failed txn cannot commit later");
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(500),
                "the buffered write must never be applied"
            );
            let stats = cluster.stats();
            assert_eq!((stats.committed, stats.aborted), (0, 1), "one abort, once");
        });
    }

    /// The baseline is a function of its seed: one all-distributed workload
    /// over four sources on jittered links, run eight times in one process.
    /// Every jittered hop draws from the network's seeded stream in dispatch
    /// order, so the prepare-write round trips must leave in data-source
    /// order — grouped in a std `HashMap` they left in its per-instance
    /// `RandomState` order and every run printed its own bytes.
    #[test]
    fn same_seed_same_bytes_on_jittered_links() {
        use geotp_net::JitteredLatency;
        use geotp_workloads::driver::run_benchmark;
        use geotp_workloads::{DriverConfig, WorkloadMix, YcsbConfig, YcsbGenerator};

        fn run_once() -> (u64, u64, u64) {
            let mut rt = Runtime::new();
            rt.block_on(async {
                let dm = NodeId::middleware(0);
                let mut builder = NetworkBuilder::new(19);
                for (i, rtt_ms) in [10u64, 27, 73, 251].into_iter().enumerate() {
                    let (mean, std) = (Duration::from_millis(rtt_ms), Duration::from_millis(5));
                    builder = builder.link(
                        dm,
                        NodeId::data_source(i as u32),
                        JitteredLatency::new(mean, std),
                    );
                }
                let net = builder.build();
                let sources: Vec<_> = (0..4)
                    .map(|i| {
                        DataSource::new(
                            DataSourceConfig::new(NodeId::data_source(i)),
                            Rc::clone(&net),
                        )
                    })
                    .collect();
                let mut ycsb = YcsbConfig::new(4, 1_000).with_distributed_ratio(1.0);
                ycsb.nodes_per_distributed_txn = 4;
                let generator = Rc::new(YcsbGenerator::new(ycsb));
                generator.load(&sources);
                let cluster = ScalarDbCluster::new(dm, net, &sources, ycsb.partitioner());
                let folded = Rc::new(Cell::new((0, 0xcbf2_9ce4_8422_2325)));
                let driver = DriverConfig {
                    terminals: 16,
                    warmup: Duration::ZERO,
                    measure: Duration::from_secs(10),
                    seed: 19,
                    think_time: Duration::ZERO,
                };
                // Folds `(gtrid, committed, latency µs)` in completion order.
                let fold = Rc::clone(&folded);
                let workload = WorkloadMix::Ycsb(generator);
                run_benchmark(cluster.label(), workload, driver, move |_| {
                    let (cluster, fold) = (Rc::clone(&cluster), Rc::clone(&fold));
                    async move |spec: &TransactionSpec| {
                        let outcome = cluster.run(spec).await;
                        let (txns, mut fnv) = fold.get();
                        for word in [
                            outcome.gtrid,
                            outcome.committed as u64,
                            outcome.latency.as_micros() as u64,
                        ] {
                            for byte in word.to_le_bytes() {
                                fnv = (fnv ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                            }
                        }
                        fold.set((txns + 1, fnv));
                        outcome
                    }
                })
                .await;
                let (txns, fnv) = folded.get();
                (txns, now().as_micros(), fnv)
            })
        }

        let runs: Vec<_> = (0..8).map(|_| run_once()).collect();
        for (txns, final_us, fnv) in &runs {
            println!("txns={txns} final_us={final_us} fingerprint={fnv:016x}");
        }
        assert!(runs[0].0 > 100, "the workload must actually run");
        assert!(
            runs.iter().all(|run| *run == runs[0]),
            "same seed, different bytes: {runs:x?}"
        );
    }

    #[test]
    fn plus_variant_is_faster_or_equal_and_labelled() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (plain, _) = cluster(false);
            let (plus, _) = cluster(true);
            assert_eq!(plain.label(), "ScalarDB");
            assert_eq!(plus.label(), "ScalarDB+");
        });
    }
}
