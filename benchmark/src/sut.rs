//! The system-under-test adapter: the only file of the benchmark that names
//! the repository's crates.
//!
//! Everything the drivers, workloads, ledger and probes need from the system
//! is either re-exported here or wrapped here, so the list of public items
//! the benchmark depends on is this file's `use` block (mirrored in the
//! README for the refactors that want to move those entry points).

use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

pub use geotp_cluster::AdmissionPolicy;
use geotp_cluster::{
    build_tier, ClusterConfig, CoordinatorCluster, MembershipConfig, MembershipTable,
    SessionRouter, TierLayout,
};
pub use geotp_datasource::{DataSource, DsConnection, DsOperation, StatementRequest};
use geotp_middleware::{
    AbortReason, Middleware, MiddlewareConfig, MiddlewareStats, SessionService,
};
pub use geotp_middleware::{
    BranchPlan, ClientOp, GeoScheduler, GlobalKey, Partitioner, Protocol, Session, SqlParser,
    TransactionSpec, TxnOutcome,
};
use geotp_net::{Network, NetworkBuilder, NodeId};
pub use geotp_simrt::sync::mpsc;
use geotp_simrt::RuntimeBuilder;
pub use geotp_simrt::{
    now, sleep, sleep_until, spawn, JoinHandle, RunMetrics, Runtime, SimInstant,
};
pub use geotp_storage::{
    CostModel, EngineConfig, IsolationLevel, Key, LockManager, LockMode, Row, StorageEngine,
    TableId, Xid,
};
use geotp_telemetry::{critical_path, write_chrome_trace, Span, Telemetry, SPAN_KINDS};
pub use geotp_workloads::tpcc::consistency_violations as tpcc_consistency_violations;
pub use geotp_workloads::ycsb::USERTABLE;
pub use geotp_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, ZipfianGenerator};
pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};

/// Seed of everything random inside the deployment (network sampling, the
/// O3 admission lottery). The benchmark's `--seed` never reaches the system:
/// it feeds the generators only.
pub const DEPLOY_SEED: u64 = 42;

/// The middleware tier in front of the data sources.
#[derive(Debug, Clone, Copy)]
pub enum FrontDoorSpec {
    /// One middleware, sessions connected to it directly (the paper's shape).
    Single,
    /// A `CoordinatorCluster` behind its session router.
    Tier {
        coordinators: usize,
        /// Worker permits per coordinator; 0 = unbounded.
        workers_per_coordinator: usize,
        admission: AdmissionPolicy,
        snapshot_reads: bool,
    },
}

/// What to deploy for one pass.
#[derive(Debug, Clone, Copy)]
pub struct DeploySpec {
    pub ds_rtts_ms: &'static [u64],
    pub partitioner: Partitioner,
    pub protocol: Protocol,
    pub engine: EngineConfig,
    pub front_door: FrontDoorSpec,
}

impl DeploySpec {
    fn coordinators(&self) -> usize {
        match self.front_door {
            FrontDoorSpec::Single => 1,
            FrontDoorSpec::Tier { coordinators, .. } => coordinators,
        }
    }

    /// A runtime whose declared topology matches the deployment. Every node
    /// is pinned to shard 0 (the object graph is `Rc`-shared), so virtual
    /// time is identical at any `GEOTP_WORKERS`.
    pub fn runtime(&self) -> Runtime {
        let mut builder = RuntimeBuilder::from_env().seed(DEPLOY_SEED);
        for coord in 0..self.coordinators() {
            let mw = format!("mw{coord}");
            builder = builder.assign(&mw, 0);
            for (i, rtt) in self.ds_rtts_ms.iter().enumerate() {
                let ds = format!("ds{i}");
                builder = builder
                    .link(&mw, &ds, Duration::from_millis(*rtt))
                    .assign(&ds, 0);
            }
        }
        builder.build()
    }
}

enum FrontDoor {
    Single(Rc<Middleware>),
    Tier(Rc<CoordinatorCluster>),
}

/// A wired deployment: network, data sources and the front door.
pub struct Deployment {
    spec: DeploySpec,
    net: Rc<Network>,
    sources: Vec<Rc<DataSource>>,
    door: FrontDoor,
}

impl Deployment {
    /// Wire the deployment (must run inside `Runtime::block_on`). A tier's
    /// heartbeat and supervisor tasks are started; [`Deployment::stop`] ends
    /// them.
    pub fn build(spec: DeploySpec) -> Self {
        let (net, sources) = build_tier(&TierLayout {
            seed: DEPLOY_SEED,
            coordinators: spec.coordinators(),
            ds_rtts_ms: spec.ds_rtts_ms.to_vec(),
            control_rtt_ms: 2,
            engine: spec.engine,
            agent_lan_rtt: Duration::from_micros(500),
        });
        let door = match spec.front_door {
            FrontDoorSpec::Single => {
                let mut config =
                    MiddlewareConfig::new(NodeId::middleware(0), spec.protocol, spec.partitioner);
                config.scheduler.seed = DEPLOY_SEED;
                FrontDoor::Single(Middleware::connect(config, Rc::clone(&net), &sources, None))
            }
            FrontDoorSpec::Tier {
                coordinators,
                workers_per_coordinator,
                admission,
                snapshot_reads,
            } => {
                let mut config = ClusterConfig::new(coordinators, spec.protocol, spec.partitioner);
                config.max_inflight = workers_per_coordinator;
                config.admission = admission;
                config.snapshot_reads = snapshot_reads;
                config.seed = DEPLOY_SEED;
                let cluster = CoordinatorCluster::build(config, Rc::clone(&net), &sources);
                cluster.start();
                FrontDoor::Tier(cluster)
            }
        };
        Self {
            spec,
            net,
            sources,
            door,
        }
    }

    pub fn sources(&self) -> &[Rc<DataSource>] {
        &self.sources
    }

    /// Open a client session on the front door.
    pub fn connect(&self, session_id: u64) -> Session {
        match &self.door {
            FrontDoor::Single(mw) => mw.connect(session_id),
            FrontDoor::Tier(cluster) => cluster.connect(session_id),
        }
    }

    /// Ask a tier's background tasks to exit at their next tick.
    pub fn stop(&self) {
        if let FrontDoor::Tier(cluster) = &self.door {
            cluster.stop();
        }
    }

    fn middlewares(&self) -> Vec<Rc<Middleware>> {
        match &self.door {
            FrontDoor::Single(mw) => vec![Rc::clone(mw)],
            FrontDoor::Tier(cluster) => (0..self.spec.coordinators() as u32)
                .map(|c| cluster.middleware(c))
                .collect(),
        }
    }

    /// Sum of column 0 over `rows` consecutive rows of `table` starting at
    /// global row 0, per data source.
    pub fn int_sums(&self, table: TableId, rows: u64) -> Vec<i64> {
        let mut sums = vec![0i64; self.sources.len()];
        for row in 0..rows {
            let key = GlobalKey::new(table, row);
            let ds = self.spec.partitioner.route(key) as usize;
            sums[ds] += self.sources[ds]
                .engine()
                .peek(key.storage_key())
                .and_then(|r| r.int_value())
                .unwrap_or(0);
        }
        sums
    }

    /// What must hold once every client has its outcome and the stragglers
    /// have drained: no branch left open or in doubt, no lock entry left, no
    /// takeover. Returns one line per violation.
    pub fn quiescence_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for ds in &self.sources {
            let engine = ds.engine();
            let unfinished = engine.unfinished_xids().len();
            let prepared = engine.prepared_xids().len();
            let locks = engine.lock_manager().active_entries();
            if unfinished + prepared + locks > 0 {
                violations.push(format!(
                    "ds{}: {unfinished} unfinished xids, {prepared} prepared xids, \
                     {locks} lock entries after drain",
                    ds.index()
                ));
            }
        }
        if let FrontDoor::Tier(cluster) = &self.door {
            if cluster.takeover_count() > 0 {
                violations.push(format!("{} takeovers", cluster.takeover_count()));
            }
        }
        violations
    }

    /// Raw layer counters through the layers' public accessors, summed over
    /// sources and coordinators.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        let n = self.sources.len() as u32;
        let mut link = |a: NodeId, b: NodeId| {
            let stats = self.net.link_stats(a, b);
            c.net_messages += stats.messages;
            c.net_latency_us += stats.total_latency_micros;
        };
        for coord in 0..self.spec.coordinators() as u32 {
            for ds in 0..n {
                link(NodeId::middleware(coord), NodeId::data_source(ds));
            }
            link(NodeId::middleware(coord), NodeId::control(0));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                link(NodeId::data_source(i), NodeId::data_source(j));
            }
        }
        for ds in &self.sources {
            let engine = ds.engine();
            let s = engine.stats();
            c.reads += s.reads;
            c.writes += s.writes;
            c.branch_prepares += s.prepares;
            c.branch_commits += s.commits;
            c.branch_aborts += s.aborts;
            c.contention_span_us += s.total_contention_span_micros;
            c.contention_span_samples += s.contention_span_samples;
            c.snapshot_reads += s.snapshot_reads;
            let l = engine.lock_stats();
            c.lock_immediate += l.immediate_grants;
            c.lock_waited += l.waited_grants;
            c.lock_timeouts += l.timeouts;
            c.lock_wait_us += l.total_wait_micros;
            c.wal_flushes += engine.wal().flush_count();
            c.wal_live_records += engine.wal().len() as u64;
            let v = engine.version_store().stats();
            c.versions_installed += v.versions_installed;
            c.versions_gced += v.versions_gced;
            c.gc_passes += v.gc_passes;
            c.record_count += engine.record_count() as u64;
            let d = ds.stats();
            c.statements += d.statements;
            c.ds_decentralized_prepares += d.decentralized_prepares;
            c.early_aborts += d.early_aborts_sent;
            c.peer_rollbacks += d.peer_rollbacks;
            c.failed_statements += d.failed_statements;
        }
        for mw in self.middlewares() {
            let s: MiddlewareStats = mw.stats();
            c.mw_committed += s.committed;
            c.mw_aborted += s.aborted;
            c.admission_rejections += s.admission_rejections;
            c.execution_failures += s.execution_failures;
            c.prepare_failures += s.prepare_failures;
            c.distributed_committed += s.distributed_committed;
            c.postpone_us += s.total_postpone_micros;
            c.mw_decentralized_prepares += s.decentralized_prepares;
            c.commit_log_flushes += mw.commit_log().flush_count();
        }
        if let FrontDoor::Tier(cluster) = &self.door {
            for coord in 0..self.spec.coordinators() as u32 {
                let load = cluster.load(coord);
                c.cluster_admitted += load.admitted;
                c.cluster_sheds += load.shed();
            }
            c.takeovers = cluster.takeover_count();
            c.reaped_sessions = cluster.reaped_sessions();
        }
        c
    }
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Raw counter sums read after a pass. All are exact and repeat bit
        /// for bit for a given seed.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// `(name, value)` of every counter, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

counters! {
    net_messages,
    net_latency_us,
    reads,
    writes,
    branch_prepares,
    branch_commits,
    branch_aborts,
    contention_span_us,
    contention_span_samples,
    snapshot_reads,
    lock_immediate,
    lock_waited,
    lock_timeouts,
    lock_wait_us,
    wal_flushes,
    wal_live_records,
    versions_installed,
    versions_gced,
    gc_passes,
    record_count,
    statements,
    ds_decentralized_prepares,
    early_aborts,
    peer_rollbacks,
    failed_statements,
    mw_committed,
    mw_aborted,
    admission_rejections,
    execution_failures,
    prepare_failures,
    distributed_committed,
    postpone_us,
    mw_decentralized_prepares,
    commit_log_flushes,
    cluster_admitted,
    cluster_sheds,
    takeovers,
    reaped_sessions,
}

/// How the benchmark classifies one client-observed outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    Committed,
    /// A definite abort the system is designed to return under contention or
    /// overload: lock timeout, no-vote, O3 admission rejection, shed.
    Aborted,
    /// Anything a healthy deployment must never return: refusal, coordinator
    /// crash or fence, expired or disconnected session, client rollback.
    Error,
}

pub fn classify(outcome: &TxnOutcome) -> OutcomeClass {
    if outcome.committed {
        return OutcomeClass::Committed;
    }
    match outcome.abort_reason {
        Some(
            AbortReason::AdmissionRejected
            | AbortReason::ExecutionFailed
            | AbortReason::PrepareFailed
            | AbortReason::Overloaded,
        ) => OutcomeClass::Aborted,
        _ => OutcomeClass::Error,
    }
}

/// Virtual-time critical path per committed transaction, from the span tree
/// of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    pub spans: u64,
    pub traced_txns: u64,
    /// Critical-path micros per span kind, summed over `traced_txns`.
    by_kind: [u64; SPAN_KINDS.len()],
}

impl TraceSummary {
    /// Mean critical-path milliseconds per traced committed transaction.
    /// Panics on a label the telemetry taxonomy does not have, so a renamed
    /// span kind fails loudly instead of reading zero.
    pub fn cp_ms(&self, kind: &str) -> f64 {
        let idx = SPAN_KINDS
            .iter()
            .position(|k| k.label() == kind)
            .expect("known span kind");
        if self.traced_txns == 0 {
            0.0
        } else {
            self.by_kind[idx] as f64 / 1e3 / self.traced_txns as f64
        }
    }
}

/// Install a fresh span collector on this thread (the traced pass).
pub fn trace_install() -> Rc<Telemetry> {
    geotp_telemetry::install()
}

/// Remove the collector, fold the span tree into a per-kind critical path
/// over the `committed` gtrids, and write the spans of the first
/// `trace_file_txns` of them to `trace_path` as a Chrome trace.
pub fn trace_finish(
    telemetry: Rc<Telemetry>,
    committed: &mut [u64],
    trace_path: &Path,
    trace_file_txns: usize,
) -> std::io::Result<TraceSummary> {
    geotp_telemetry::uninstall();
    let mut spans: Vec<Span> = telemetry.tracer.spans().clone();
    let mut summary = TraceSummary {
        spans: spans.len() as u64,
        ..TraceSummary::default()
    };
    // `critical_path` scans the slice it is given, so hand it one
    // transaction's spans at a time.
    spans.sort_by_key(|s| s.id.gtrid);
    let head: Vec<u64> = committed.iter().copied().take(trace_file_txns).collect();
    committed.sort_unstable();
    let mut sample = Vec::new();
    for group in spans.chunk_by(|a, b| a.id.gtrid == b.id.gtrid) {
        let gtrid = group[0].id.gtrid;
        if committed.binary_search(&gtrid).is_err() {
            continue;
        }
        if let Some(path) = critical_path(group, gtrid) {
            summary.traced_txns += 1;
            for (acc, v) in summary.by_kind.iter_mut().zip(path.by_kind) {
                *acc += v;
            }
        }
        if head.contains(&gtrid) {
            sample.extend_from_slice(group);
        }
    }
    write_chrome_trace(trace_path, &sample)?;
    Ok(summary)
}

/// The fixture of the isolated probes: one big and one small source at zero
/// RTT, reachable at every stack depth — engine, geo-agent connection, a
/// single middleware (`dm1`) and a one-coordinator tier (`dm0`) — so the
/// same transaction can be timed through each layer in turn.
pub struct ProbeRig {
    sources: Vec<Rc<DataSource>>,
    connection: DsConnection,
    middleware: Rc<Middleware>,
    tier: Rc<CoordinatorCluster>,
}

impl ProbeRig {
    /// Must run inside `Runtime::block_on`. The partitioner decides which
    /// keys the caller should load on which source.
    pub fn build(partitioner: Partitioner, engine: EngineConfig) -> Self {
        let (net, sources) = build_tier(&TierLayout {
            seed: DEPLOY_SEED,
            coordinators: 2,
            ds_rtts_ms: vec![0, 0],
            control_rtt_ms: 2,
            engine,
            agent_lan_rtt: Duration::from_micros(500),
        });
        let tier = CoordinatorCluster::build(
            ClusterConfig::new(1, Protocol::geotp(), partitioner),
            Rc::clone(&net),
            &sources,
        );
        let dm1 = NodeId::middleware(1);
        let middleware = Middleware::connect(
            MiddlewareConfig::new(dm1, Protocol::geotp(), partitioner),
            Rc::clone(&net),
            &sources,
            None,
        );
        let connection = DsConnection::new(dm1, Rc::clone(&sources[0]), net);
        Self {
            sources,
            connection,
            middleware,
            tier,
        }
    }

    pub fn sources(&self) -> &[Rc<DataSource>] {
        &self.sources
    }

    /// The first source's engine (storage depth).
    pub fn engine(&self) -> &Rc<StorageEngine> {
        self.sources[0].engine()
    }

    /// A coordinator-side connection to the first source (datasource depth).
    pub fn connection(&self) -> &DsConnection {
        &self.connection
    }

    /// A session on the single middleware (middleware depth).
    pub fn middleware_session(&self, id: u64) -> Session {
        self.middleware.connect(id)
    }

    /// A session on the one-coordinator tier (cluster depth).
    pub fn tier_session(&self, id: u64) -> Session {
        self.tier.connect(id)
    }

    pub fn scheduler(&self) -> &Rc<GeoScheduler> {
        self.middleware.scheduler()
    }

    /// Run a SQL script through the single middleware's plan cache.
    pub async fn run_sql(&self, script: &str) -> bool {
        self.middleware
            .run_sql(script)
            .await
            .is_ok_and(|outcome| outcome.committed)
    }
}

/// A two-coordinator session router with `sessions` affinities already
/// placed, for the routing probe.
pub fn warmed_router(sessions: u64) -> impl Fn(u64) -> Option<u32> {
    let membership = Rc::new(MembershipTable::new(2, MembershipConfig::default()));
    membership.register(0);
    membership.register(1);
    let router = SessionRouter::new(membership);
    for session in 0..sessions {
        router.route(session);
    }
    move |session| router.route(session)
}

/// A one-link network for the transfer probe.
pub fn probe_link(rtt: Duration) -> (Rc<Network>, NodeId, NodeId) {
    let (a, b) = (NodeId::middleware(0), NodeId::data_source(0));
    let net = NetworkBuilder::new(DEPLOY_SEED)
        .static_link(a, b, rtt)
        .build();
    (net, a, b)
}
