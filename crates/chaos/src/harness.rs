//! The chaos harness: build a cluster, drive a workload under a fault
//! schedule, check invariants, emit a replayable trace.
//!
//! [`run_scenario_with`] owns the whole lifecycle:
//!
//! 1. assemble a simulated deployment (network, data sources + geo-agents,
//!    coordinator) exactly like the facade's `ClusterBuilder` does, with
//!    engine-side history recording switched on for the serializability
//!    checker;
//! 2. compile the [`FaultSchedule`] into the network fault plane and spawn a
//!    *controller task* that applies node-level events (crashes, restarts,
//!    coordinator failover with commit-log replay, clock-skew ramps) at
//!    their scheduled instants;
//! 3. drive any [`ChaosWorkload`] — balance transfers or the TPC-C mix —
//!    where clients retry transactions refused by a crashed coordinator;
//! 4. once the clients drain (bounded by the liveness horizon): heal
//!    everything, restart any still-crashed data source, run one final
//!    commit-log replay over the in-doubt branches, and hand the cluster to
//!    the [`crate::invariants`] checkers (atomicity, durability, liveness,
//!    serializability).
//!
//! [`run_scenario`] is the transfer-workload shorthand the original presets
//! use.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use geotp_datasource::{DataSource, DataSourceConfig, Dialect};
use geotp_middleware::{
    AbortReason, CommitLog, Middleware, MiddlewareConfig, Partitioner, Protocol, TxnOutcome,
};
use geotp_net::{NetworkBuilder, NodeId};
use geotp_simrt::hash::FxHashMap;
use geotp_simrt::{now, sleep, sleep_until, spawn, SimInstant};
use geotp_storage::{CostModel, EngineConfig, IsolationLevel, MvccStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::injector::ScheduleInjector;
use crate::invariants::{self, InvariantReport};
use crate::schedule::{FaultEvent, FaultSchedule};
use crate::trace::EventTrace;
use crate::workload::{ChaosWorkload, TransferWorkload};

pub use crate::workload::CHAOS_TABLE;

/// Parameters of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for everything randomized: workload key choice, injector fates,
    /// network jitter, scheduler lotteries. Same seed + same schedule ⇒
    /// bit-identical trace.
    pub seed: u64,
    /// Middleware↔data-source RTTs in milliseconds (one entry per data
    /// source; inter-source RTT is the max of the endpoints', as in the
    /// facade's builder).
    pub ds_rtts_ms: Vec<u64>,
    /// Rows per data source (transfer workload).
    pub records_per_node: u64,
    /// Initial integer balance of every row (transfer workload).
    pub initial_balance: i64,
    /// Concurrent client loops.
    pub clients: usize,
    /// Transactions each client performs.
    pub txns_per_client: usize,
    /// Fraction of transfers that cross data sources (transfer workload).
    pub distributed_ratio: f64,
    /// Storage lock-wait timeout (short, so induced deadlocks resolve fast).
    pub lock_wait_timeout: Duration,
    /// Coordinator decision-wait timeout (bounds vote/rollback waits when a
    /// participant dies).
    pub decision_wait_timeout: Duration,
    /// Liveness horizon: the workload must drain within this much virtual
    /// time or the liveness invariant is declared violated.
    pub horizon: Duration,
    /// Commit protocol under test.
    pub protocol: Protocol,
    /// Checker-validation fail point: every n-th read on every engine skips
    /// its shared lock, deliberately permitting dirty reads. `None` (the
    /// default) leaves isolation intact; tests set `Some(n)` to prove the
    /// serializability checker catches a real isolation bug and to give the
    /// schedule shrinker a genuine failure to minimize.
    pub isolation_bug_read_stride: Option<u64>,
    /// Checker-validation fail point: the coordinator dispatches voted-2PC
    /// commits *before* flushing the decision to its commit log. The durable
    /// end state stays correct (the flush still happens), so the four
    /// state-based checkers stay green — only the trace oracle's
    /// flush-before-dispatch rule convicts it. Tests set this to prove the
    /// fifth checker has teeth and to give the shrinker a trace-level
    /// failure to minimize.
    pub commit_before_flush_bug: bool,
    /// Client think time between the statement rounds of one transaction
    /// (interactive terminals; needs multi-round specs to have any effect).
    pub think_time: Duration,
    /// Every n-th transaction of each client is *abandoned* mid-transaction:
    /// the client executes the first round, thinks, and vanishes without
    /// commit or rollback — the middleware's connection-loss handling must
    /// roll the orphaned branches back. `None` disables client crashes.
    pub client_crash_every: Option<u64>,
    /// Issue transfers interactively (one operation per statement round, see
    /// [`crate::workload::InteractiveTransferWorkload`]) instead of as a
    /// single batched round.
    pub interactive_transfers: bool,
    /// Client retry policy for transient non-starts (refused connections,
    /// overload sheds, reaped sessions). The default reproduces the original
    /// hard-coded loop exactly — 40 attempts, flat 250 ms pauses, no RNG
    /// consumed — so preset traces stay bit-identical.
    pub retry: geotp_middleware::session::RetryPolicy,
    /// Worker shards for the simulator runtime. `None` (the default) honours
    /// the `GEOTP_WORKERS` environment variable, falling back to 1. The
    /// chaos deployment shares one `Rc` object graph, so it is pinned to
    /// shard 0 regardless — traces and fingerprints are bit-identical at
    /// every worker count (the CI worker matrix asserts exactly this).
    pub workers: Option<usize>,
    /// Storage isolation level on every engine. The default
    /// (`Serializable2pl`) is the legacy strict-2PL path and replays every
    /// existing preset byte-identically; `SnapshotRead` serves plain reads
    /// from MVCC snapshots without locks; `ReadCommitted` deliberately
    /// weakens snapshots so the serializability checker has something to
    /// convict.
    pub isolation: IsolationLevel,
    /// Group-commit window on every engine's WAL. `Duration::ZERO` (the
    /// default) flushes each commit solo — the legacy path; a nonzero
    /// window parks committers so one flush amortizes across the batch.
    pub group_commit_window: Duration,
    /// Let the coordinator commit unannotated read-only transactions via
    /// the snapshot-read fast path (no prepare, no WAL flush, no locks
    /// under `SnapshotRead` isolation). Off by default.
    pub snapshot_reads: bool,
    /// Extra trace-oracle rules evaluated after the built-ins on traced
    /// runs (see [`crate::invariants::trace::TraceRule`]). Empty by
    /// default.
    pub trace_rules: crate::invariants::trace::TraceRules,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            ds_rtts_ms: vec![10, 60, 120],
            records_per_node: 200,
            initial_balance: 1_000,
            clients: 4,
            txns_per_client: 25,
            distributed_ratio: 0.5,
            lock_wait_timeout: Duration::from_secs(2),
            decision_wait_timeout: Duration::from_secs(2),
            horizon: Duration::from_secs(300),
            protocol: Protocol::geotp(),
            isolation_bug_read_stride: None,
            commit_before_flush_bug: false,
            think_time: Duration::ZERO,
            client_crash_every: None,
            interactive_transfers: false,
            retry: geotp_middleware::session::RetryPolicy::fixed(40, Duration::from_millis(250)),
            workers: None,
            isolation: IsolationLevel::Serializable2pl,
            group_commit_window: Duration::ZERO,
            snapshot_reads: false,
            trace_rules: crate::invariants::trace::TraceRules::default(),
        }
    }
}

impl ChaosConfig {
    /// Number of data sources.
    pub fn nodes(&self) -> u32 {
        self.ds_rtts_ms.len() as u32
    }
}

/// What one chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Client-observed committed transactions.
    pub committed: u64,
    /// Client-observed aborted transactions (a definite no).
    pub aborted: u64,
    /// Outcomes lost to a coordinator crash (no answer reached the client;
    /// the durable commit log decides the truth).
    pub indeterminate: u64,
    /// The invariant checkers' verdict.
    pub invariants: InvariantReport,
    /// The full replayable event trace.
    pub trace: Vec<String>,
    /// FNV-1a fingerprint of the trace (bit-identical-replay check).
    pub fingerprint: u64,
    /// Version-store counters summed over the data sources' engines (all
    /// zero under strict 2PL). Not part of the trace or its fingerprint.
    pub mvcc: MvccStats,
}

/// Sum the engines' version-store counters.
pub(crate) fn mvcc_totals(sources: &[Rc<DataSource>]) -> MvccStats {
    let mut total = MvccStats::default();
    for ds in sources {
        let stats = ds.engine().version_store().stats();
        total.versions_installed += stats.versions_installed;
        total.versions_gced += stats.versions_gced;
        total.gc_passes += stats.gc_passes;
        total.gc_chains_examined += stats.gc_chains_examined;
    }
    total
}

/// Per-node clock skew bookkeeping (chaos-local: the commit protocol never
/// reads node clocks — which is exactly what the clock-skew scenario
/// demonstrates by staying green).
#[derive(Default)]
struct NodeClocks {
    skews: FxHashMap<NodeId, Skew>,
}

struct Skew {
    since_micros: u64,
    offset_micros: i64,
    drift_ppm: i64,
}

impl NodeClocks {
    fn ramp(&mut self, node: NodeId, drift_ppm: i64) {
        let t = now().as_micros();
        let offset = self.offset_at(node, t);
        self.skews.insert(
            node,
            Skew {
                since_micros: t,
                offset_micros: offset,
                drift_ppm,
            },
        );
    }

    fn offset_at(&self, node: NodeId, t: u64) -> i64 {
        match self.skews.get(&node) {
            Some(s) => {
                s.offset_micros
                    + (t.saturating_sub(s.since_micros) as i64 * s.drift_ppm) / 1_000_000
            }
            None => 0,
        }
    }

    /// The node's local clock reading, in microseconds.
    fn node_now_micros(&self, node: NodeId) -> i64 {
        let t = now().as_micros();
        t as i64 + self.offset_at(node, t)
    }
}

/// Everything the controller task and the final heal pass share.
struct Deployment {
    config: ChaosConfig,
    partitioner: Partitioner,
    net: Rc<geotp_net::Network>,
    sources: Vec<Rc<DataSource>>,
    /// The currently-serving coordinator (replaced on failover).
    active_mw: RefCell<Rc<Middleware>>,
    /// The durable commit log, shared across coordinator generations.
    commit_log: Rc<CommitLog>,
    trace: Rc<EventTrace>,
    clocks: RefCell<NodeClocks>,
}

impl Deployment {
    fn middleware_config(
        config: &ChaosConfig,
        partitioner: Partitioner,
        first_txn_seq: u64,
    ) -> MiddlewareConfig {
        let mut cfg = MiddlewareConfig::new(NodeId::middleware(0), config.protocol, partitioner);
        cfg.analysis_cost = Duration::from_micros(200);
        cfg.log_flush_cost = Duration::from_micros(200);
        cfg.decision_wait_timeout = config.decision_wait_timeout;
        cfg.record_history = true;
        cfg.scheduler.seed = config.seed;
        cfg.first_txn_seq = first_txn_seq;
        cfg.snapshot_reads = config.snapshot_reads;
        cfg
    }

    fn build(
        config: ChaosConfig,
        trace: Rc<EventTrace>,
        schedule: &FaultSchedule,
        workload: &dyn ChaosWorkload,
    ) -> Rc<Self> {
        let dm = NodeId::middleware(0);
        let mut net_builder =
            NetworkBuilder::new(config.seed).default_lan_rtt(Duration::from_micros(500));
        for (i, rtt) in config.ds_rtts_ms.iter().enumerate() {
            net_builder = net_builder.static_link(
                dm,
                NodeId::data_source(i as u32),
                Duration::from_millis(*rtt),
            );
        }
        for i in 0..config.ds_rtts_ms.len() {
            for j in (i + 1)..config.ds_rtts_ms.len() {
                let rtt = config.ds_rtts_ms[i].max(config.ds_rtts_ms[j]);
                net_builder = net_builder.static_link(
                    NodeId::data_source(i as u32),
                    NodeId::data_source(j as u32),
                    Duration::from_millis(rtt),
                );
            }
        }
        let net = net_builder.build();
        net.set_fault_injector(ScheduleInjector::compile(
            schedule,
            config.seed,
            Rc::clone(&trace),
        ));

        let mut sources = Vec::new();
        for i in 0..config.nodes() {
            let mut ds_cfg = DataSourceConfig::new(NodeId::data_source(i));
            ds_cfg.dialect = Dialect::MySql;
            ds_cfg.engine = EngineConfig {
                lock_wait_timeout: config.lock_wait_timeout,
                cost: CostModel::default(),
                // The serializability checker needs the versioned histories.
                record_history: true,
                isolation: config.isolation,
                group_commit_window: config.group_commit_window,
            };
            ds_cfg.agent_lan_rtt = Duration::from_micros(500);
            sources.push(DataSource::new(ds_cfg, Rc::clone(&net)));
        }
        for a in &sources {
            for b in &sources {
                if a.index() != b.index() {
                    a.register_peer(b);
                }
            }
        }
        if let Some(stride) = config.isolation_bug_read_stride {
            for ds in &sources {
                ds.engine().fail_point_bypass_read_locks(stride);
            }
            trace.record(&format!(
                "fail point armed: every {stride}-th read skips its shared lock"
            ));
        }

        let partitioner = workload.partitioner();
        let mw = Middleware::connect(
            Self::middleware_config(&config, partitioner, 1),
            Rc::clone(&net),
            &sources,
            None,
        );
        if config.commit_before_flush_bug {
            mw.fail_point_dispatch_before_flush();
            trace.record("fail point armed: commit dispatch precedes its log flush");
        }
        let commit_log = Rc::clone(mw.commit_log());

        workload.load(&sources);

        Rc::new(Self {
            config,
            partitioner,
            net,
            sources,
            active_mw: RefCell::new(mw),
            commit_log,
            trace,
            clocks: RefCell::new(NodeClocks::default()),
        })
    }

    /// Replace the crashed coordinator: data sources run their disconnect
    /// handling, a successor shares the durable commit log, replays it over
    /// the in-doubt branches and becomes the active instance.
    async fn failover(&self) {
        let old = self.active_mw.borrow().clone();
        if !old.is_crashed() {
            old.crash();
            self.trace
                .record("controller: crash middleware dm0 (implicit before failover)");
        }
        for ds in &self.sources {
            if ds.is_crashed() {
                continue;
            }
            let aborted = ds.coordinator_disconnected().await;
            if !aborted.is_empty() {
                self.trace.record(&format!(
                    "ds{} disconnect handling aborted {} unprepared branch(es)",
                    ds.index(),
                    aborted.len()
                ));
            }
        }
        let successor = Middleware::connect(
            Self::middleware_config(&self.config, self.partitioner, old.next_txn_seq()),
            Rc::clone(&self.net),
            &self.sources,
            Some(Rc::clone(&self.commit_log)),
        );
        let (committed, aborted) = successor.recover().await;
        self.trace.record(&format!(
            "failover: successor dm0 recovered {committed} committed / {aborted} aborted branch(es)"
        ));
        *self.active_mw.borrow_mut() = successor;
    }

    /// Apply one node-level event.
    async fn apply(&self, event: &FaultEvent) {
        match event {
            FaultEvent::CrashDataSource { ds, .. } => {
                let node = NodeId::data_source(*ds);
                let clock = self.clocks.borrow().node_now_micros(node);
                self.sources[*ds as usize].crash();
                self.trace
                    .record(&format!("crash ds{ds} (node clock {clock}us)"));
            }
            FaultEvent::RestartDataSource { ds, .. } => {
                let recovered = self.sources[*ds as usize].restart().await;
                self.trace.record(&format!(
                    "restart ds{ds}: {} prepared branch(es) recovered from the WAL",
                    recovered.len()
                ));
            }
            FaultEvent::CrashMiddleware { .. } => {
                self.active_mw.borrow().crash();
                self.trace.record("crash middleware dm0");
            }
            FaultEvent::CrashMiddlewareAfterFlush { .. } => {
                self.active_mw.borrow().crash_after_next_flush();
                self.trace
                    .record("arm fail point: crash middleware dm0 after next commit-log flush");
            }
            FaultEvent::FailoverMiddleware { .. } => {
                self.failover().await;
            }
            FaultEvent::ClockSkewRamp {
                node, drift_ppm, ..
            } => {
                self.clocks.borrow_mut().ramp(*node, *drift_ppm);
                self.trace.record(&format!(
                    "clock skew ramp on {node}: {drift_ppm:+} ppm (node clock {}us)",
                    self.clocks.borrow().node_now_micros(*node)
                ));
            }
            // Cluster-tier events have no meaning in the single-coordinator
            // harness: record the skip so a replayed cluster timeline is
            // visibly (not silently) incomplete here.
            FaultEvent::CrashCoordinator { .. }
            | FaultEvent::CrashCoordinatorAfterFlush { .. }
            | FaultEvent::RestartCoordinator { .. } => {
                self.trace.record(&format!(
                    "single-coordinator harness: ignoring cluster event {event:?} \
                     (replay it through run_cluster_scenario)"
                ));
            }
            // Link-level events live in the injector.
            _ => {}
        }
    }
}

/// Run `schedule` against a fresh cluster driving the balance-transfer
/// workload described by `config` (the original drill shape; with
/// [`ChaosConfig::interactive_transfers`] the transfers ship one operation
/// per statement round instead).
pub fn run_scenario(config: ChaosConfig, schedule: FaultSchedule) -> ChaosReport {
    let base = TransferWorkload::from_config(&config);
    if config.interactive_transfers {
        run_scenario_with(
            config,
            schedule,
            Rc::new(crate::workload::InteractiveTransferWorkload(base)),
        )
    } else {
        run_scenario_with(config, schedule, Rc::new(base))
    }
}

/// Drive one client transaction through the session front door, honouring
/// the interactive knobs. `crash_client` makes this the *mid-transaction
/// client crash*: begin, execute the first statement round, think, vanish.
/// Returns `None` when the client crashed mid-transaction (no client-side
/// outcome exists — the middleware's connection-loss handling owns the
/// cleanup) and `Some(outcome)` otherwise.
pub(crate) async fn drive_client_txn(
    session: &mut geotp_middleware::Session,
    spec: &geotp_middleware::TransactionSpec,
    think_time: Duration,
    crash_client: bool,
) -> Option<TxnOutcome> {
    if !crash_client {
        return Some(session.run_spec_thinking(spec, think_time).await);
    }
    let mut txn = match session.begin().await {
        Ok(txn) => txn,
        Err(refused) => return Some(refused.outcome),
    };
    let Some(first_round) = spec.rounds.first() else {
        txn.abandon();
        return None;
    };
    if let Err(error) = txn.execute(first_round).await {
        return Some(error.outcome);
    }
    if !think_time.is_zero() {
        txn.think(think_time).await;
    }
    txn.abandon();
    None
}

/// The per-client workload RNG stream. One derivation, used by the seeded
/// client loops of *both* harnesses and by [`client_scripts`]: the workload
/// shrinker's "exact scripts a seeded run would generate" contract depends
/// on these never diverging.
pub fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x5151_7c7c + client as u64 * 0x9e37))
}

/// Materialize the exact per-client transaction scripts a seeded run of
/// `workload` under `config` would generate: one list per client, drawn from
/// the same per-client RNG streams the harness uses. The workload shrinker
/// starts from these and drops clients/transactions while the failure
/// reproduces (see [`crate::shrink_workload`]).
pub fn client_scripts(
    config: &ChaosConfig,
    workload: &dyn ChaosWorkload,
) -> Vec<Vec<geotp_middleware::TransactionSpec>> {
    (0..config.clients)
        .map(|client| {
            let mut rng = client_rng(config.seed, client);
            (0..config.txns_per_client)
                .map(|_| workload.next_spec(&mut rng))
                .collect()
        })
        .collect()
}

/// Run `schedule` with an *explicit* per-client workload instead of seeded
/// generation: client `i` executes exactly `scripts[i]`, in order (retries
/// after a refused connection re-submit the same spec, as always). `workload`
/// still supplies the partitioner, the initial load and the consistency
/// conditions. This is the replay vehicle for minimized workloads.
pub fn run_scenario_scripted(
    config: ChaosConfig,
    schedule: FaultSchedule,
    workload: Rc<dyn ChaosWorkload>,
    scripts: Vec<Vec<geotp_middleware::TransactionSpec>>,
) -> ChaosReport {
    run_scenario_impl(config, schedule, workload, Some(scripts))
}

/// Run `schedule` against a fresh cluster described by `config`, driving
/// `workload`, and return the invariant-checked, replayable report.
pub fn run_scenario_with(
    config: ChaosConfig,
    schedule: FaultSchedule,
    workload: Rc<dyn ChaosWorkload>,
) -> ChaosReport {
    run_scenario_impl(config, schedule, workload, None)
}

/// Build the simulator runtime for a chaos run: the middleware and data
/// sources are declared as topology nodes (links carry the configured WAN
/// RTTs) but pinned to shard 0, because the deployment is one `Rc`-shared
/// object graph. Extra worker shards idle at the barrier, which is exactly
/// the scheduler-independence property the worker-matrix tests pin down.
fn chaos_runtime(config: &ChaosConfig) -> geotp_simrt::Runtime {
    let mut builder = geotp_simrt::RuntimeBuilder::from_env()
        .seed(config.seed)
        .node("mw0")
        .assign("mw0", 0);
    for (i, rtt_ms) in config.ds_rtts_ms.iter().enumerate() {
        let ds = format!("ds{i}");
        builder = builder
            .link("mw0", &ds, Duration::from_millis(*rtt_ms))
            .assign(&ds, 0);
    }
    if let Some(workers) = config.workers {
        builder = builder.workers(workers);
    }
    builder.build()
}

fn run_scenario_impl(
    config: ChaosConfig,
    schedule: FaultSchedule,
    workload: Rc<dyn ChaosWorkload>,
    scripts: Option<Vec<Vec<geotp_middleware::TransactionSpec>>>,
) -> ChaosReport {
    let mut rt = chaos_runtime(&config);
    rt.block_on(async move {
        let trace = EventTrace::new();
        trace.record(&format!(
            "scenario start: workload={} seed={} nodes={} clients={}x{} protocol={}",
            workload.name(),
            config.seed,
            config.nodes(),
            config.clients,
            config.txns_per_client,
            config.protocol.name()
        ));
        let deployment =
            Deployment::build(config.clone(), Rc::clone(&trace), &schedule, &*workload);

        // ---------------- controller task ----------------
        let controller = {
            let deployment = Rc::clone(&deployment);
            let events = schedule.node_events();
            spawn(async move {
                for event in events {
                    sleep_until(SimInstant::ZERO + event.at()).await;
                    deployment.apply(&event).await;
                }
            })
        };

        // ---------------- workload ----------------
        let ledger: Rc<RefCell<Vec<TxnOutcome>>> = Rc::new(RefCell::new(Vec::new()));
        let refused_connections = Rc::new(std::cell::Cell::new(0u64));
        let scripts = scripts.map(Rc::new);
        let client_count = scripts.as_ref().map(|s| s.len()).unwrap_or(config.clients);
        let mut clients = Vec::new();
        for client in 0..client_count {
            let deployment = Rc::clone(&deployment);
            let ledger = Rc::clone(&ledger);
            let refused_connections = Rc::clone(&refused_connections);
            let workload = Rc::clone(&workload);
            let scripts = scripts.clone();
            let config = config.clone();
            clients.push(spawn(async move {
                let mut rng = client_rng(config.seed, client);
                let txns = scripts
                    .as_ref()
                    .map(|s| s[client].len())
                    .unwrap_or(config.txns_per_client);
                for txn in 0..txns {
                    let spec = match &scripts {
                        Some(scripts) => scripts[client][txn].clone(),
                        None => workload.next_spec(&mut rng),
                    };
                    let crash_client = config
                        .client_crash_every
                        .is_some_and(|n| n > 0 && (txn as u64 + 1).is_multiple_of(n));
                    // A crashed coordinator refuses the connection; real
                    // clients reconnect and retry (re-`connect`ing their
                    // session against whatever instance is serving) under
                    // the config's retry policy. Refusals and other transient
                    // non-starts never started a transaction (gtrid 0), so
                    // they are counted separately and kept out of the
                    // per-transaction ledger. Bounded so a schedule without
                    // failover still drains.
                    let retry = config.retry;
                    let mut attempts = 0;
                    loop {
                        let mw = deployment.active_mw.borrow().clone();
                        let mut session =
                            geotp_middleware::SessionService::connect(&mw, client as u64);
                        attempts += 1;
                        let Some(outcome) =
                            drive_client_txn(&mut session, &spec, config.think_time, crash_client)
                                .await
                        else {
                            // The client crashed mid-transaction: nobody is
                            // waiting for an outcome; move on.
                            break;
                        };
                        let transient = outcome.is_refusal()
                            || outcome.is_overloaded()
                            || outcome.abort_reason == Some(AbortReason::SessionExpired);
                        if !transient {
                            ledger.borrow_mut().push(outcome);
                            break;
                        }
                        refused_connections.set(refused_connections.get() + 1);
                        if attempts >= retry.max_attempts {
                            break;
                        }
                        let mut pause = retry.backoff(attempts - 1, &mut rng);
                        if let Some(hint) = outcome.retry_after {
                            pause = pause.max(hint);
                        }
                        sleep(pause).await;
                    }
                }
            }));
        }

        // ---------------- drain, bounded by the liveness horizon ----------------
        let drained = geotp_simrt::timeout(config.horizon, async {
            for client in clients {
                client.await;
            }
            controller.await;
            // Let in-flight notifications / deferred decisions settle.
            sleep(config.decision_wait_timeout * 2 + Duration::from_secs(1)).await;
        })
        .await;
        let workload_drained = drained.is_ok();
        trace.record(&format!(
            "workload drained within horizon: {workload_drained}"
        ));

        // ---------------- heal everything, resolve in-doubt state ----------------
        deployment.net.clear_fault_injector();
        for ds in &deployment.sources {
            if ds.is_crashed() {
                let recovered = ds.restart().await;
                trace.record(&format!(
                    "final heal: restart ds{} ({} prepared branch(es) recovered)",
                    ds.index(),
                    recovered.len()
                ));
            }
        }
        if deployment.active_mw.borrow().is_crashed() {
            deployment.failover().await;
        }
        let final_mw = deployment.active_mw.borrow().clone();
        let (rec_committed, rec_aborted) = final_mw.recover().await;
        trace.record(&format!(
            "final recovery pass: {rec_committed} committed / {rec_aborted} aborted branch(es)"
        ));

        // ---------------- tally + invariants ----------------
        let ledger = ledger.borrow();
        let committed = ledger.iter().filter(|o| o.committed).count() as u64;
        // Indeterminate = transactions that actually started (gtrid
        // assigned) and then lost their coordinator mid-flight; connection
        // refusals were never transactions and are reported separately.
        let indeterminate = ledger
            .iter()
            .filter(|o| o.gtrid != 0 && o.abort_reason == Some(AbortReason::CoordinatorCrashed))
            .count() as u64;
        let aborted = ledger.len() as u64 - committed - indeterminate;
        if refused_connections.get() > 0 {
            trace.record(&format!(
                "coordinator refused {} connection attempt(s) while crashed",
                refused_connections.get()
            ));
        }

        let mut invariants = invariants::check(
            &deployment.sources,
            || workload.consistency_violations(&deployment.sources),
            &ledger,
            |gtrid| deployment.commit_log.decision(gtrid),
            workload_drained,
        );
        // Traced runs also get the trace oracle (fifth checker). Its verdict
        // is deliberately kept out of the event trace: fingerprints must stay
        // byte-identical between traced and untraced replays of one seed.
        if let Some(telemetry) = geotp_telemetry::installed() {
            invariants::trace::apply_with(
                &mut invariants,
                &telemetry,
                &deployment.sources,
                &ledger,
                &deployment.config.trace_rules,
            );
        }
        trace.record(&format!(
            "summary: committed={committed} aborted={aborted} indeterminate={indeterminate}"
        ));
        trace.record(&format!(
            "invariants: atomicity={} durability={} liveness={} serializability={}",
            invariants.atomicity_ok,
            invariants.durability_ok,
            invariants.liveness_ok,
            invariants.serializability_ok
        ));

        ChaosReport {
            committed,
            aborted,
            indeterminate,
            invariants,
            fingerprint: trace.fingerprint(),
            trace: trace.lines(),
            mvcc: mvcc_totals(&deployment.sources),
        }
    })
}
