//! The transaction manager / coordinator of the middleware layer.
//!
//! One [`Middleware`] instance plays the role the paper assigns to the
//! enhanced ShardingSphere proxy: it parses and routes client transactions,
//! coordinates the XA protocol across the geo-distributed data sources, runs
//! the geo-scheduler, and recovers in-doubt transactions after failures.
//!
//! The same coordinator implements every protocol the paper evaluates, chosen
//! by [`Protocol`]:
//!
//! | Protocol        | prepare                    | scheduling                 |
//! |-----------------|----------------------------|----------------------------|
//! | `SspXa`         | explicit WAN prepare round | none                       |
//! | `SspLocal`      | none (1PC, no atomicity)   | none                       |
//! | `Quro`          | explicit WAN prepare round | writes reordered last      |
//! | `Chiller`       | merged into execution      | remote-first sequencing    |
//! | `GeoTp{..}`     | decentralized (geo-agent)  | O2 latency-aware, O3 heuristics |
//!
//! ## The commit path
//!
//! `commit_phase` runs votes → decision → flush → dispatch, and the
//! [`Protocol`] predicates pick each branch of it. With no votes to collect
//! (one branch, or `one_phase_everywhere` — SSP(local)) it flushes Commit and
//! dispatches one-phase commits. Otherwise the votes are the ones the
//! geo-agents pushed, when a `decentralized_prepare` protocol saw the
//! `/*+ last */` annotation, or the result of an explicit prepare round.
//! The decision is Commit iff every branch voted yes; it is flushed to the
//! commit log, then the commits are dispatched (a branch that fails its
//! commit is left to recovery) or the branches that voted yes are rolled
//! back. Each step is one `Phase`: a span plus the stopwatch behind its
//! [`LatencyBreakdown`] slice. Rounds go through one `dispatch_round`, where
//! `inner_region_last` (Chiller) holds the lowest-RTT branch back until the
//! others finished.

use geotp_simrt::hash::FxHashMap;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use geotp_datasource::{
    DataSource, DsConnection, DsOperation, PrepareVote, StatementOutcome, StatementRequest,
    StatementResponse,
};
use geotp_net::{LatencyMonitor, Network, NodeId};
use geotp_simrt::{join_all, now, sleep, spawn, SimInstant};
use geotp_storage::Xid;
use geotp_telemetry::{SpanId, SpanKind, TraceNode};

use crate::commit_log::{CommitLog, Decision};
use crate::metrics::{AbortReason, LatencyBreakdown, MiddlewareStats, TxnOutcome};
use crate::notify_hub::{NotifyHub, Votes};
use crate::ops::{ClientOp, GlobalKey, TransactionSpec};
use crate::parser::{SqlParser, TxnControl};
use crate::router::{Partitioner, RoundGroups};
use crate::scheduler::{
    AdmissionDecision, BranchPlan, GeoScheduler, SchedulerConfig, ADMISSION_RETRY_BACKOFF,
};
use crate::session::{SqlScript, TxnError};

/// The server-side state of one live transaction — what the session front
/// door's [`crate::session::Txn`] handle points at, and what
/// [`Middleware::run_transaction`] drives for a whole submitted spec. For a
/// statement stream, involvement, peer lists and the latency breakdown grow
/// round by round; a declared plan fixes them before the first round.
pub struct LiveTxn {
    gtrid: u64,
    /// The session streaming this transaction's statements; `None` when a
    /// whole spec was submitted (nothing is tracked in the session registry).
    session: Option<u64>,
    plan: Option<DeclaredPlan>,
    started: SimInstant,
    breakdown: LatencyBreakdown,
    scratch: TxnScratch,
    distributed: bool,
    /// Whether the decentralized prepare was triggered: a decentralized-
    /// prepare protocol saw the `/*+ last */` annotation, so the commit
    /// phase waits for pushed votes instead of driving a prepare round.
    annotated: bool,
    /// True until the transaction issues anything besides a plain read; a
    /// still-read-only transaction qualifies for the snapshot-read commit
    /// fast path ([`MiddlewareConfig::snapshot_reads`]).
    read_only: bool,
    rounds: usize,
    concluded: bool,
}

/// What a client that submits a whole [`TransactionSpec`] has told the
/// coordinator before the first round runs — the knowledge the paper's
/// `/*+ last */` annotation stands for, per branch. The key set, the
/// involvement, the peer lists and each branch's final round it also implies
/// are written straight into the transaction's scratch buffers by
/// [`Middleware::declare_plan`]. A statement stream has no plan: the
/// coordinator learns the same facts one round at a time and only the
/// client's annotation ends a branch.
struct DeclaredPlan {
    /// The spec's `/*+ last */` annotation flag.
    annotate_last: bool,
}

/// One traced slice of a transaction's latency breakdown: a stopwatch and
/// the span covering the same work, opened together (by `Middleware::phase`
/// for a leaf span) and closed together by [`Phase::end`].
#[must_use = "a phase must be ended to close its span"]
struct Phase {
    started: SimInstant,
    span: Option<SpanId>,
}

impl Phase {
    /// Close the span and return the elapsed time — the breakdown slice.
    fn end(self) -> Duration {
        geotp_telemetry::span_end(self.span);
        now().duration_since(self.started)
    }
}

impl LiveTxn {
    /// The global transaction id.
    pub fn gtrid(&self) -> u64 {
        self.gtrid
    }

    /// Whether the transaction has concluded (committed, rolled back,
    /// aborted or abandoned).
    pub fn concluded(&self) -> bool {
        self.concluded
    }

    /// Whether round `round` carries `ds`'s last statement — the per-branch
    /// `is_last` oracle. A declared plan knows each branch's final round; a
    /// statement stream knows only the client's annotation on the current
    /// round (`last`), which ends every branch at once.
    fn branch_ends(&self, ds: u32, round: usize, last: bool) -> bool {
        match &self.plan {
            Some(_) => self.scratch.final_round.contains(&(ds, round)),
            None => last,
        }
    }

    /// Move the transaction's latency origin back to `connected` (the
    /// instant the client issued `begin`, before the client→middleware hop).
    pub(crate) fn backdate(&mut self, connected: SimInstant) {
        self.started = connected;
    }

    /// Account one client↔middleware hop.
    pub(crate) fn note_client_rtt(&mut self, hop: Duration) {
        self.breakdown.client_rtt += hop;
    }

    /// Account client think time (already slept by the session layer).
    pub(crate) fn note_think(&mut self, thought: Duration) {
        self.breakdown.think_time += thought;
    }

    /// Account admission-queue wait (already elapsed at an outer layer before
    /// `begin` reached this coordinator): the latency origin moves back so
    /// the end-to-end latency covers the queue, and the wait lands in
    /// [`LatencyBreakdown::queue_time`].
    pub(crate) fn note_queue_time(&mut self, queued: Duration) {
        self.breakdown.queue_time += queued;
        self.started = self.started - queued;
    }
}

/// The commit protocol / optimization set the coordinator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Apache ShardingSphere baseline: classic XA with explicit prepare and
    /// commit WAN round trips.
    SspXa,
    /// ShardingSphere "local" mode: one-phase commit on every branch, no
    /// atomicity guarantee (the paper's peak-performance reference).
    SspLocal,
    /// QURO: write operations are reordered to the end of the execution phase
    /// to delay exclusive lock acquisition; commit is classic XA.
    Quro,
    /// Chiller: the prepare phase is merged into execution and the lowest-RTT
    /// ("inner region") subtransaction runs after the others complete.
    Chiller,
    /// GeoTP. O1 (decentralized prepare + early abort) is always on;
    /// `latency_scheduling` enables O2 and `advanced` enables O3.
    GeoTp {
        /// O2: latency-aware postponing of subtransactions.
        latency_scheduling: bool,
        /// O3: hotspot forecasting and late transaction scheduling.
        advanced: bool,
    },
}

impl Protocol {
    /// GeoTP with every optimization enabled (O1–O3).
    pub fn geotp() -> Self {
        Protocol::GeoTp {
            latency_scheduling: true,
            advanced: true,
        }
    }

    /// GeoTP with only the decentralized prepare (O1).
    pub fn geotp_o1() -> Self {
        Protocol::GeoTp {
            latency_scheduling: false,
            advanced: false,
        }
    }

    /// GeoTP with decentralized prepare and latency-aware scheduling (O1–O2).
    pub fn geotp_o1_o2() -> Self {
        Protocol::GeoTp {
            latency_scheduling: true,
            advanced: false,
        }
    }

    /// Whether branches prepare themselves at the geo-agent (O1 / Chiller).
    pub fn decentralized_prepare(&self) -> bool {
        matches!(self, Protocol::GeoTp { .. } | Protocol::Chiller)
    }

    /// Whether geo-agents proactively abort sibling branches on failure.
    pub fn early_abort(&self) -> bool {
        matches!(self, Protocol::GeoTp { .. })
    }

    /// Whether the geo-scheduler postpones subtransactions (O2).
    pub fn latency_scheduling(&self) -> bool {
        matches!(
            self,
            Protocol::GeoTp {
                latency_scheduling: true,
                ..
            }
        )
    }

    /// Whether the high-contention heuristics are enabled (O3).
    pub fn advanced(&self) -> bool {
        matches!(self, Protocol::GeoTp { advanced: true, .. })
    }

    /// QURO: whether each branch's writes move behind its reads, delaying
    /// exclusive-lock acquisition.
    fn reorders_writes_last(&self) -> bool {
        matches!(self, Protocol::Quro)
    }

    /// Whether every round is planned by the geo-scheduler (which O2/O3
    /// then make postpone or refuse; with O1 alone it postpones nothing).
    fn geo_scheduled(&self) -> bool {
        matches!(self, Protocol::GeoTp { .. })
    }

    /// Chiller: whether the lowest-RTT ("inner region") branch of a round
    /// runs only after the others finished.
    fn inner_region_last(&self) -> bool {
        matches!(self, Protocol::Chiller)
    }

    /// SSP(local): whether a distributed transaction commits one-phase on
    /// every branch with no vote collection (and no atomicity).
    fn one_phase_everywhere(&self) -> bool {
        matches!(self, Protocol::SspLocal)
    }

    /// Short display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::SspXa => "SSP",
            Protocol::SspLocal => "SSP(local)",
            Protocol::Quro => "QURO",
            Protocol::Chiller => "Chiller",
            Protocol::GeoTp {
                latency_scheduling: false,
                advanced: false,
            } => "GeoTP(O1)",
            Protocol::GeoTp {
                latency_scheduling: true,
                advanced: false,
            } => "GeoTP(O1-O2)",
            Protocol::GeoTp { .. } => "GeoTP",
        }
    }
}

/// Middleware configuration.
#[derive(Debug, Clone)]
pub struct MiddlewareConfig {
    /// The middleware's node identity.
    pub node: NodeId,
    /// Commit protocol / optimization set.
    pub protocol: Protocol,
    /// Data partitioning scheme.
    pub partitioner: Partitioner,
    /// Whether to spawn the background ping tasks (disable in unit tests that
    /// want a perfectly quiet network).
    pub background_monitor: bool,
    /// The geo-scheduler's admission-lottery seed. O2 and O3 are switched by
    /// [`MiddlewareConfig::protocol`].
    pub scheduler: SchedulerConfig,
    /// Virtual-time cost of parsing/routing/scheduling one transaction
    /// (the "Analysis" slice of Fig. 6c).
    pub analysis_cost: Duration,
    /// Virtual-time cost of flushing the commit/abort log.
    pub log_flush_cost: Duration,
    /// How long the coordinator waits for prepare votes / rollback
    /// confirmations before giving up on the missing participants (they
    /// crashed, or their notification was lost). Missing votes count as
    /// no-votes; missing rollback confirmations are left to recovery. In a
    /// healthy cluster votes arrive within ~1 WAN RTT, so the generous
    /// default never fires outside failure drills.
    pub decision_wait_timeout: Duration,
    /// The coordinator's membership epoch. Every decision flush and every
    /// data-source command is stamped with it; once a cluster peer fences
    /// this epoch (lease expiry + takeover), the commit log and the data
    /// sources reject everything this instance tries to decide. `0` (the
    /// default) is the unfenced single-coordinator world.
    pub epoch: u64,
    /// Snapshot-read fast path: a live transaction that issued only plain
    /// reads (no writes, no `FOR UPDATE`, no `/*+ last */` annotation)
    /// commits read-only — one parallel `commit_read_only` per started
    /// branch, no prepare round, no decision flush. Only meaningful when the
    /// data sources run an MVCC isolation level; off by default.
    pub snapshot_reads: bool,
}

/// The coordinator that allocated a gtrid (see `Middleware::alloc_gtrid` and
/// [`Xid::OWNER_SHIFT`], the layout's single source of truth). Peer recovery
/// uses this to scope `XA RECOVER` results to the dead coordinator's
/// transactions.
pub const fn gtrid_owner(gtrid: u64) -> u32 {
    Xid::new(gtrid, 0).owner()
}

impl MiddlewareConfig {
    /// Reasonable defaults for the given node, protocol and partitioner.
    pub fn new(node: NodeId, protocol: Protocol, partitioner: Partitioner) -> Self {
        Self {
            node,
            protocol,
            partitioner,
            background_monitor: false,
            scheduler: SchedulerConfig::default(),
            analysis_cost: Duration::from_micros(1000),
            log_flush_cost: Duration::from_micros(500),
            decision_wait_timeout: Duration::from_secs(30),
            epoch: 0,
            snapshot_reads: false,
        }
    }
}

/// Upper bound on distinct scripts kept in the parsed-SQL plan cache.
const SQL_CACHE_MAX: usize = 4_096;

/// The parsed-SQL plan cache behind [`Middleware::run_sql`] and
/// [`crate::session::Session::run_sql`], bounded by cheap second-chance
/// (clock) eviction: the clock gives every entry that was hit since its last
/// inspection one more pass, so hot scripts survive a distinct-script count
/// above capacity instead of being thrown out with the cold ones.
struct SqlCache {
    capacity: usize,
    map: FxHashMap<Rc<str>, CachedScript>,
    /// Clock order: the front is the next eviction candidate.
    clock: std::collections::VecDeque<Rc<str>>,
}

struct CachedScript {
    plan: SqlScript,
    /// Set on every hit, cleared when the clock hand passes over the entry.
    referenced: bool,
}

impl SqlCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: FxHashMap::default(),
            clock: std::collections::VecDeque::new(),
        }
    }

    fn get(&mut self, script: &str) -> Option<SqlScript> {
        let slot = self.map.get_mut(script)?;
        slot.referenced = true;
        Some(slot.plan.clone())
    }

    fn insert(&mut self, script: &str, plan: SqlScript) {
        if self.map.contains_key(script) {
            return;
        }
        // Second chance: advance the clock hand until an unreferenced entry
        // falls out. Bounded: one full revolution clears every flag, so the
        // loop inspects at most 2×len entries.
        while self.map.len() >= self.capacity {
            let Some(key) = self.clock.pop_front() else {
                break;
            };
            match self.map.get_mut(&*key) {
                Some(slot) if slot.referenced => {
                    slot.referenced = false;
                    self.clock.push_back(key);
                }
                Some(_) => {
                    self.map.remove(&*key);
                }
                None => {}
            }
        }
        let key: Rc<str> = Rc::from(script);
        self.clock.push_back(Rc::clone(&key));
        self.map.insert(
            key,
            CachedScript {
                plan,
                referenced: false,
            },
        );
    }
}

/// Reusable per-transaction working memory. Each in-flight transaction pops
/// one from the middleware's pool and returns it on completion, so the
/// steady-state hot path performs no `Vec` allocations for key/routing
/// bookkeeping, round planning, statement requests or votes regardless of
/// how many transactions have run. The per-round buffers are sized by the
/// widest round seen, and hold nothing between rounds.
#[derive(Default)]
struct TxnScratch {
    keys: Vec<GlobalKey>,
    involved: Vec<u32>,
    started_branches: Vec<u32>,
    branch_keys: Vec<GlobalKey>,
    /// A declared plan's `(data source, index of the last round touching
    /// it)`.
    final_round: Vec<(u32, usize)>,
    /// The current round split per data source.
    groups: RoundGroups,
    /// The geo-scheduler's input: one plan per group (key lists reused).
    plans: Vec<BranchPlan>,
    /// The schedule: one postpone per group (empty: postpone nothing).
    postpone: Vec<Duration>,
    /// One request per group; their operation and peer lists are reused.
    requests: Vec<StatementRequest>,
    /// One response per group, drained after the round.
    responses: Vec<StatementResponse>,
    /// Data sources whose statement failed this round.
    failed: Vec<u32>,
    votes: Votes,
}

/// The database middleware instance.
pub struct Middleware {
    config: MiddlewareConfig,
    net: Rc<Network>,
    connections: FxHashMap<u32, DsConnection>,
    monitor: Rc<LatencyMonitor>,
    scheduler: Rc<GeoScheduler>,
    hub: Rc<NotifyHub>,
    commit_log: Rc<CommitLog>,
    next_txn: Cell<u64>,
    /// Set by [`Middleware::crash`]: the instance stops coordinating. Every
    /// in-flight transaction bails out at its next step with
    /// [`AbortReason::CoordinatorCrashed`], leaving its branches in-doubt for
    /// recovery — exactly what a real process kill does.
    crashed: Cell<bool>,
    /// One-shot fail point: crash immediately after the *next* commit-log
    /// flush (the paper's §V-A window — decision durable, not dispatched).
    crash_after_flush: Cell<bool>,
    /// Checker-validation fail point: dispatch commits *before* flushing the
    /// decision in the voted-2PC path, violating the write-ahead rule of the
    /// commit point. Leaves durably correct state as long as nothing crashes
    /// in the gap — only the trace oracle can convict it.
    dispatch_before_flush: Cell<bool>,
    stats: RefCell<MiddlewareStats>,
    /// The SQL front door's parser; its catalog assigns table ids in the
    /// order scripts first name the tables.
    parser: RefCell<SqlParser>,
    /// Parsed-statement cache for [`Middleware::run_sql`], keyed by script
    /// text, bounded by second-chance eviction.
    sql_cache: RefCell<SqlCache>,
    /// Pool of reusable per-transaction buffers.
    scratch_pool: RefCell<Vec<TxnScratch>>,
    /// Per-session front-door state (the session API's server side): which
    /// sessions are connected and which transaction each has in flight.
    sessions: RefCell<FxHashMap<u64, SessionState>>,
    /// The footprint's `(len, unlinked_in_use, evictions)` as last mirrored
    /// into the metrics registry.
    hotspot_depth_traced: Cell<(usize, usize, u64)>,
}

/// Per-session state the coordinator keeps for the session front door.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionState {
    /// Transactions begun on this session.
    pub txns_begun: u64,
    /// The gtrid of the session's in-flight transaction, if any. Sessions are
    /// single-statement-stream entities: at most one live transaction each.
    pub live_gtrid: Option<u64>,
    /// Last instant this session connected, began or concluded a transaction.
    /// The idle-session reaper evicts sessions whose `last_active` is older
    /// than its deadline, keeping the registry memory-lean at 10^6 sessions.
    pub last_active: SimInstant,
}

impl Middleware {
    /// Connect a middleware to a set of data sources over the simulated
    /// network. `commit_log` may be shared across restarts to exercise the
    /// recovery path; pass `None` to create a fresh log.
    pub fn connect(
        config: MiddlewareConfig,
        net: Rc<Network>,
        data_sources: &[Rc<DataSource>],
        commit_log: Option<Rc<CommitLog>>,
    ) -> Rc<Self> {
        let hub = NotifyHub::start();
        let mut connections = FxHashMap::default();
        let mut targets = Vec::new();
        for ds in data_sources {
            ds.register_middleware(config.node, hub.sender());
            connections.insert(
                ds.index(),
                DsConnection::new(config.node, Rc::clone(ds), Rc::clone(&net))
                    .with_epoch(config.epoch),
            );
            targets.push(ds.node());
        }
        let monitor = if config.background_monitor {
            LatencyMonitor::start(Rc::clone(&net), config.node, &targets)
        } else {
            LatencyMonitor::new(&net, config.node, &targets)
        };
        let scheduler = Rc::new(GeoScheduler::new(
            config.scheduler,
            Rc::clone(&monitor),
            config.protocol.latency_scheduling(),
            config.protocol.advanced(),
        ));
        let commit_log = commit_log.unwrap_or_else(|| CommitLog::new(config.log_flush_cost));
        Rc::new(Self {
            config,
            net,
            connections,
            monitor,
            scheduler,
            hub,
            commit_log,
            next_txn: Cell::new(1),
            crashed: Cell::new(false),
            crash_after_flush: Cell::new(false),
            dispatch_before_flush: Cell::new(false),
            stats: RefCell::new(MiddlewareStats::default()),
            parser: RefCell::new(SqlParser::new()),
            sql_cache: RefCell::new(SqlCache::new(SQL_CACHE_MAX)),
            scratch_pool: RefCell::new(Vec::new()),
            sessions: RefCell::new(FxHashMap::default()),
            hotspot_depth_traced: Cell::new((0, 0, 0)),
        })
    }

    fn take_scratch(&self) -> TxnScratch {
        self.scratch_pool.borrow_mut().pop().unwrap_or_default()
    }

    fn return_scratch(&self, scratch: TxnScratch) {
        self.scratch_pool.borrow_mut().push(scratch);
    }

    /// The middleware's node identity.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// The protocol this middleware runs.
    pub fn protocol(&self) -> Protocol {
        self.config.protocol
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MiddlewareStats {
        *self.stats.borrow()
    }

    /// The RTT monitor.
    pub fn monitor(&self) -> &Rc<LatencyMonitor> {
        &self.monitor
    }

    /// The geo-scheduler.
    pub fn scheduler(&self) -> &Rc<GeoScheduler> {
        &self.scheduler
    }

    /// The durable commit/abort log, shared with every
    /// [`Middleware::successor`].
    pub fn commit_log(&self) -> &Rc<CommitLog> {
        &self.commit_log
    }

    /// Simulate a crash of this coordinator: it stops making progress on
    /// every in-flight transaction (each bails out at its next step with
    /// [`AbortReason::CoordinatorCrashed`]) and refuses new ones. The commit
    /// log survives: [`Middleware::fail_over`] hands it to a successor that
    /// finishes the in-doubt branches.
    pub fn crash(&self) {
        self.crashed.set(true);
    }

    /// Whether this instance has crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed.get()
    }

    /// One-shot fail point: crash immediately after the next commit-log
    /// flush, i.e. with a decision durable but not yet dispatched — the
    /// paper's §V-A recovery window, hit deterministically.
    pub fn crash_after_next_flush(&self) {
        self.crash_after_flush.set(true);
    }

    /// Checker-validation fail point: from now on, voted-2PC commits are
    /// dispatched *before* their decision is flushed to the commit log. The
    /// durable end state is indistinguishable from a correct run (the flush
    /// still happens), so the state-based invariant checkers stay green —
    /// this exists to prove the trace oracle's flush-before-dispatch rule
    /// has teeth.
    pub fn fail_point_dispatch_before_flush(&self) {
        self.dispatch_before_flush.set(true);
    }

    /// The next transaction sequence number this coordinator would assign;
    /// a [`Middleware::successor`] starts from it, so gtrids never collide
    /// across a failover.
    pub fn next_txn_seq(&self) -> u64 {
        self.next_txn.get()
    }

    /// The simulated network this middleware is attached to.
    pub fn network(&self) -> &Rc<Network> {
        &self.net
    }

    pub(crate) fn alloc_gtrid(&self) -> u64 {
        let seq = self.next_txn.get();
        self.next_txn.set(seq + 1);
        ((self.config.node.index() as u64) << Xid::OWNER_SHIFT) | seq
    }

    /// This coordinator's identity in the span tree.
    fn dm(&self) -> TraceNode {
        TraceNode::middleware(self.config.node.index())
    }

    fn conn(&self, ds: u32) -> &DsConnection {
        self.connections
            .get(&ds)
            .unwrap_or_else(|| panic!("no connection to data source {ds}"))
    }

    fn to_ds_op(op: &ClientOp) -> DsOperation {
        match op {
            ClientOp::Read(k) => DsOperation::Read {
                key: k.storage_key(),
            },
            ClientOp::ReadForUpdate(k) => DsOperation::ReadForUpdate {
                key: k.storage_key(),
            },
            ClientOp::AddInt { key, col, delta } => DsOperation::AddInt {
                key: key.storage_key(),
                col: *col,
                delta: *delta,
            },
            ClientOp::Write { key, row } => DsOperation::Write {
                key: key.storage_key(),
                row: row.clone(),
            },
            ClientOp::Insert { key, row } => DsOperation::Insert {
                key: key.storage_key(),
                row: row.clone(),
            },
            ClientOp::Delete(k) => DsOperation::Delete {
                key: k.storage_key(),
            },
        }
    }

    /// Execute a SQL script (BEGIN ... COMMIT) as a single transaction.
    /// Statements between BEGIN and COMMIT become one interactive round each;
    /// the `/*+ last */` annotation is honoured.
    ///
    /// Parses are cached by script text, so a repeated script skips the
    /// parser and reuses its prepared [`TransactionSpec`]. The cache's users
    /// are the benchmark's `middleware.probe_sql_cached_ns` probe, which
    /// replays one script here, and the examples, which go through
    /// [`crate::session::Session::run_sql`] and share this cache.
    pub async fn run_sql(
        self: &Rc<Self>,
        script: &str,
    ) -> Result<TxnOutcome, crate::parser::ParseError> {
        match self.parsed_sql(script)? {
            SqlScript::Rollback => Ok(TxnOutcome::aborted(
                AbortReason::ClientRollback,
                Duration::ZERO,
                false,
            )),
            SqlScript::Run(spec) => Ok(self.run_transaction(&spec).await),
        }
    }

    /// Look the script's plan up in the bounded cache, parsing on a miss.
    pub(crate) fn parsed_sql(&self, script: &str) -> Result<SqlScript, crate::parser::ParseError> {
        if let Some(plan) = self.sql_cache.borrow_mut().get(script) {
            return Ok(plan);
        }
        let plan = self.parse_script(script)?;
        self.sql_cache.borrow_mut().insert(script, plan.clone());
        Ok(plan)
    }

    /// Parse a single SQL statement against the middleware's catalog (the
    /// session front door's per-statement path).
    pub(crate) fn parse_statement(
        &self,
        statement: &str,
    ) -> Result<crate::parser::ParsedStatement, crate::parser::ParseError> {
        self.parser.borrow_mut().parse_statement(statement)
    }

    /// Parse a SQL script into its executable plan (the slow path behind the
    /// statement cache).
    fn parse_script(&self, script: &str) -> Result<SqlScript, crate::parser::ParseError> {
        let statements = self.parser.borrow_mut().parse_script(script)?;
        let mut rounds: Vec<Vec<ClientOp>> = Vec::new();
        let mut annotate_last = false;
        let mut rollback = false;
        for stmt in statements {
            if let Some(ctrl) = stmt.control {
                match ctrl {
                    TxnControl::Begin => {}
                    TxnControl::Commit => break,
                    TxnControl::Rollback => {
                        rollback = true;
                        break;
                    }
                }
                continue;
            }
            if let Some(op) = stmt.op {
                rounds.push(vec![op]);
                if stmt.is_last {
                    annotate_last = true;
                }
            }
        }
        if rollback || rounds.is_empty() {
            return Ok(SqlScript::Rollback);
        }
        let mut spec = TransactionSpec::multi_round(rounds);
        spec.annotate_last = annotate_last || spec.rounds.len() == 1;
        Ok(SqlScript::Run(Rc::new(spec)))
    }

    /// Telemetry hook shared by every transaction exit path: close whatever
    /// spans are still open for this transaction on this coordinator (the
    /// root `Txn` span on the happy path; a dangling `Round` too on crash and
    /// abandon paths) and mirror the outcome, and under O3 the depth of the
    /// hotspot footprint, into the metrics registry.
    fn trace_txn_exit(&self, gtrid: u64, outcome: &TxnOutcome) {
        if !geotp_telemetry::enabled() {
            return;
        }
        let idx = self.config.node.index();
        geotp_telemetry::span_end_all(gtrid, TraceNode::middleware(idx));
        if outcome.committed {
            geotp_telemetry::counter_add("mw.committed", "", idx, 1);
        } else if let Some(reason) = outcome.abort_reason {
            geotp_telemetry::counter_add("mw.aborts", reason.label(), idx, 1);
        }
        if self.config.protocol.advanced() {
            // Only what moved since the last exit is written: a registry
            // update costs about as much as a span, and a footprint at
            // capacity keeps its depth from one transaction to the next.
            let footprint = self.scheduler.footprint().borrow();
            let (records, unlinked, evictions) = (
                footprint.len(),
                footprint.unlinked_in_use(),
                footprint.evictions(),
            );
            let (traced_records, traced_unlinked, traced_evictions) = self
                .hotspot_depth_traced
                .replace((records, unlinked, evictions));
            if records != traced_records {
                geotp_telemetry::gauge_set("mw.hotspot_records", "", idx, records as i64);
            }
            if unlinked != traced_unlinked {
                geotp_telemetry::gauge_set("mw.hotspot_unlinked_in_use", "", idx, unlinked as i64);
            }
            if evictions != traced_evictions {
                let delta = evictions - traced_evictions;
                geotp_telemetry::counter_add("mw.hotspot_evictions", "", idx, delta);
            }
        }
    }

    /// Dispatch a round's requests concurrently, honouring the scheduler's
    /// postpone amounts (none when `postpone` is empty), and leave their
    /// responses in `responses` (empty on entry) in request order. Chiller
    /// holds the lowest-RTT ("inner region") branch back until the others
    /// finished, shrinking its lock span.
    async fn dispatch_round(
        &self,
        requests: &[StatementRequest],
        postpone: &[Duration],
        responses: &mut Vec<StatementResponse>,
    ) {
        // Each branch writes its own response slot, so the join needs no
        // output buffer.
        responses.resize_with(requests.len(), || StatementResponse {
            outcome: StatementOutcome::Ok { rows: Vec::new() },
            local_execution_latency: Duration::ZERO,
        });
        let slots = Cell::from_mut(&mut responses[..]).as_slice_of_cells();
        let send = |idx: usize| {
            let (request, slot) = (&requests[idx], &slots[idx]);
            let postpone = postpone.get(idx).copied().unwrap_or_default();
            async move {
                if !postpone.is_zero() {
                    sleep(postpone).await;
                }
                slot.set(self.conn(request.xid.bqual).execute(request).await);
            }
        };
        // Fast path: centralized transactions (the overwhelming majority at
        // the paper's 20% distributed ratio) have exactly one branch — await
        // it directly instead of paying `join_all`'s boxing and re-polling.
        if requests.len() == 1 {
            return send(0).await;
        }
        let rtt = |idx: &usize| {
            self.monitor
                .rtt(NodeId::data_source(requests[*idx].xid.bqual))
        };
        let held_back = if self.config.protocol.inner_region_last() {
            (0..requests.len()).min_by_key(rtt)
        } else {
            None
        };
        // Every branch but the held-back one, in request order.
        let skip = held_back.unwrap_or(requests.len());
        let joined = requests.len() - usize::from(held_back.is_some());
        join_all((0..joined).map(|i| send(if i < skip { i } else { i + 1 }))).await;
        if let Some(idx) = held_back {
            send(idx).await;
        }
    }

    /// Roll `branches` back concurrently. Failures are ignored: rolling back
    /// an already-finished branch is a no-op on the data source, and a
    /// branch that cannot be reached is finished by recovery.
    fn rollback_branches(
        &self,
        gtrid: u64,
        branches: impl IntoIterator<Item = u32>,
    ) -> impl Future<Output = ()> + 'static {
        let rollbacks: Vec<_> = branches
            .into_iter()
            .map(|ds| {
                let conn = self.conn(ds).clone();
                async move {
                    let _ = conn.rollback(Xid::new(gtrid, ds)).await;
                }
            })
            .collect();
        async move {
            join_all(rollbacks).await;
        }
    }

    /// Abort path after an execution failure. `failed_here` names the
    /// branches whose own statement failed — those have already been rolled
    /// back by their geo-agent.
    async fn abort_started_branches(&self, gtrid: u64, started: &[u32], failed_here: &[u32]) {
        let mut confirmed = Vec::new();
        if self.config.protocol.early_abort() {
            // The failing geo-agent has notified its peers directly; the
            // middleware only waits for the rollback confirmations. Bounded
            // wait: a crashed peer (or a lost confirmation) must not park
            // this transaction forever.
            if started.is_empty()
                || geotp_simrt::timeout(
                    self.config.decision_wait_timeout,
                    self.hub.wait_for_rollbacks(gtrid, started),
                )
                .await
                .is_ok()
            {
                return;
            }
            self.stats.borrow_mut().decision_wait_timeouts += 1;
            // Give up on the notifications and roll the stragglers back
            // explicitly, like a real XA coordinator. Without this, a
            // branch whose sibling died *at XA START* (a crashed
            // participant sends no early aborts) is abandoned ACTIVE on a
            // healthy data source: locks held forever, uncommitted writes
            // visible to `peek`, invisible to `XA RECOVER` — the TPC-C
            // chaos drills caught exactly that via the district order-id
            // consistency condition.
            confirmed = self.hub.rollbacked(gtrid);
        }
        // Classic path (and the stragglers above): the middleware dispatches
        // the rollbacks itself.
        let unconfirmed = |ds: &u32| !confirmed.contains(ds) && !failed_here.contains(ds);
        self.rollback_branches(gtrid, started.iter().copied().filter(unconfirmed))
            .await;
    }

    /// Open a [`Phase`]: start its stopwatch, then its leaf span.
    fn phase(&self, gtrid: u64, kind: SpanKind, branches: usize) -> Phase {
        Phase {
            started: now(),
            span: geotp_telemetry::span_leaf(gtrid, self.dm(), kind, branches as u64),
        }
    }

    /// Commit phase: votes → decision → flush → dispatch. Returns `Ok(())`
    /// on commit or the abort reason.
    async fn commit_phase(&self, txn: &mut LiveTxn) -> Result<(), AbortReason> {
        let (gtrid, annotated) = (txn.gtrid, txn.annotated);
        let (involved, breakdown) = (&txn.scratch.involved[..], &mut txn.breakdown);
        let votes = &mut txn.scratch.votes;
        if involved.len() == 1 || self.config.protocol.one_phase_everywhere() {
            // No votes to collect: the centralized transaction's one-phase
            // commit, and SSP(local)'s on every branch.
            self.flush_decision(gtrid, Decision::Commit, breakdown)
                .await?;
            let commit = self.phase(gtrid, SpanKind::CommitDispatch, involved.len());
            let committed = self.dispatch_commits(gtrid, involved, |_| true).await;
            breakdown.commit = commit.end();
            // No atomicity guarantee: report commit if any branch made it.
            return if committed > 0 {
                Ok(())
            } else {
                Err(AbortReason::PrepareFailed)
            };
        }
        let kind = if annotated {
            self.stats.borrow_mut().decentralized_prepares += 1;
            SpanKind::VoteWait
        } else {
            SpanKind::Prepare
        };
        let wait = self.phase(gtrid, kind, involved.len());
        if annotated {
            self.pushed_votes(gtrid, involved, votes).await;
        } else {
            self.prepare_round(gtrid, involved, votes).await;
        }
        let votes = &*votes;
        breakdown.prepare_wait = wait.end();

        let voted_yes = |ds: &u32| votes.get(*ds).is_some_and(|vote| vote.is_yes());
        if !involved.iter().all(voted_yes) {
            self.flush_decision(gtrid, Decision::Abort, breakdown)
                .await?;
            // Branches that already rolled back (no-vote / rollbacked) need
            // nothing; the rest are told to roll back.
            let to_rollback: Vec<u32> = involved.iter().copied().filter(voted_yes).collect();
            let rollback = self.phase(gtrid, SpanKind::RollbackDispatch, to_rollback.len());
            self.rollback_branches(gtrid, to_rollback).await;
            breakdown.commit = rollback.end();
            return Err(AbortReason::PrepareFailed);
        }
        // Fail point: the commit reaches the branches before the decision is
        // durable. See [`Middleware::fail_point_dispatch_before_flush`].
        let dispatched_early = self.dispatch_before_flush.get();
        if !dispatched_early {
            self.flush_decision(gtrid, Decision::Commit, breakdown)
                .await?;
        }
        let commit = self.phase(gtrid, SpanKind::CommitDispatch, involved.len());
        let one_phase = |ds| votes.get(ds) == Some(PrepareVote::Idle);
        let committed = self.dispatch_commits(gtrid, involved, one_phase).await;
        breakdown.commit = commit.end();
        // The decision is durable, so the transaction *is* committed whatever
        // the dispatch returned. A branch whose commit failed (its data source
        // crashed between prepare and commit) is finished later by failure
        // recovery — count it, but do not lie to the client.
        let deferred = (involved.len() - committed) as u64;
        if deferred > 0 {
            self.stats.borrow_mut().commits_deferred_to_recovery += deferred;
        }
        if dispatched_early {
            self.flush_decision(gtrid, Decision::Commit, breakdown)
                .await?;
        }
        Ok(())
    }

    /// The votes the geo-agents pushed (decentralized prepare: no extra WAN
    /// round trip). The wait is bounded: a crashed participant (or a lost
    /// vote notification) must not park the coordinator forever — after the
    /// decision-wait timeout the missing votes count as no-votes and the
    /// transaction aborts, exactly like a real XA coordinator giving up on a
    /// dead participant.
    async fn pushed_votes(&self, gtrid: u64, involved: &[u32], votes: &mut Votes) {
        let wait = self.hub.wait_for_votes(gtrid, involved, votes);
        let pushed = geotp_simrt::timeout(self.config.decision_wait_timeout, wait).await;
        if pushed.is_err() {
            self.stats.borrow_mut().decision_wait_timeouts += 1;
            self.hub.votes_into(gtrid, votes);
        }
    }

    /// Classic XA: an explicit prepare round trip (SSP, QURO, and any
    /// transaction the client did not annotate).
    async fn prepare_round(&self, gtrid: u64, involved: &[u32], votes: &mut Votes) {
        let prepares = involved.iter().map(|&ds| {
            let xid = Xid::new(gtrid, ds);
            async move { (ds, self.conn(ds).prepare(xid).await) }
        });
        votes.clear();
        for (ds, vote) in join_all(prepares).await {
            votes.set(ds, vote);
        }
    }

    /// Flush the decision (the `LogFlush` slice), honouring the
    /// [`Middleware::crash_after_next_flush`] fail point: the crash lands
    /// exactly between the durable flush and the decision dispatch. An `Err`
    /// means nothing may be dispatched.
    async fn flush_decision(
        &self,
        gtrid: u64,
        decision: Decision,
        breakdown: &mut LatencyBreakdown,
    ) -> Result<(), AbortReason> {
        let flush = self.phase(gtrid, SpanKind::LogFlush, 0);
        let flushed = self
            .commit_log
            .try_flush_decision(gtrid, decision, self.config.epoch)
            .await
            .is_ok();
        breakdown.log_flush = flush.end();
        if !flushed {
            // Fenced mid-transaction: the commit log rejected the write, so
            // the decision never became durable. The branches belong to the
            // adopting peer now, which resolves them from the sealed log
            // (no record ⇒ abort) — exactly the outcome we report. The fail
            // point stays armed for a real flush: a fence-rejected one wrote
            // nothing, so firing on it would stage a crash without the
            // durable decision the drill exists to exercise.
            return Err(AbortReason::CoordinatorFenced);
        }
        if self.crash_after_flush.replace(false) {
            self.crashed.set(true);
        }
        if self.crashed.get() {
            // The §V-A window: decision durable, dispatch never happens.
            // Prepared branches stay in doubt until a successor replays the
            // commit log through `recover()`; a one-phase branch never
            // prepared, so its data source's disconnect handling rolls it
            // back. The client sees no outcome.
            return Err(AbortReason::CoordinatorCrashed);
        }
        Ok(())
    }

    /// Send the commit to every involved branch (`one_phase` picks the
    /// branches that never prepared) and return how many committed.
    async fn dispatch_commits(
        &self,
        gtrid: u64,
        involved: &[u32],
        one_phase: impl Fn(u32) -> bool,
    ) -> usize {
        if let [ds] = involved {
            // Centralized transactions are the overwhelming majority at the
            // paper's 20% distributed ratio: await the one branch directly
            // instead of paying `join_all`'s boxing and re-polling.
            let committed = self.conn(*ds).commit(Xid::new(gtrid, *ds), one_phase(*ds));
            return committed.await.is_ok() as usize;
        }
        // Counted as they land: the join's output is `()`, which needs no
        // output buffer.
        let committed = Cell::new(0);
        let commits = involved.iter().map(|&ds| {
            let (xid, one_phase, committed) = (Xid::new(gtrid, ds), one_phase(ds), &committed);
            async move {
                if self.conn(ds).commit(xid, one_phase).await.is_ok() {
                    committed.set(committed.get() + 1);
                }
            }
        });
        join_all(commits).await;
        committed.get()
    }

    /// The data sources this coordinator is connected to, in source order.
    fn data_sources(&self) -> Vec<Rc<DataSource>> {
        let mut sources: Vec<Rc<DataSource>> = self
            .connections
            .values()
            .map(|conn| Rc::clone(conn.data_source()))
            .collect();
        sources.sort_by_key(|ds| ds.index());
        sources
    }

    /// Disconnect handling for this coordinator's gtrid space (§V-A, setting
    /// ❶): every live data source aborts the unprepared branches of this
    /// instance and its predecessors, which nobody will ever finish and
    /// which hold their locks. Their gtrids are the ones below
    /// [`next_txn_seq`](Middleware::next_txn_seq), so a successor's are
    /// spared. Prepared branches stay in doubt for [`Middleware::recover`].
    /// Sources are visited in source order; `aborted(source, n)` is called
    /// as each live one finishes. A crashed engine's unprepared branches
    /// died with it.
    pub async fn abort_unprepared(&self, mut aborted: impl FnMut(u32, usize)) {
        let (owner, below) = (self.config.node.index(), self.next_txn_seq());
        for ds in self.data_sources() {
            if !ds.is_crashed() {
                aborted(ds.index(), ds.abort_unprepared_of(owner, below).await.len());
            }
        }
    }

    /// The instance that replaces this one once it died: this configuration
    /// at membership `epoch`, with the gtrid sequence continuing past this
    /// instance's, connected to the same data sources and sharing this
    /// instance's durable commit log. It resolves nothing by itself: call
    /// [`Middleware::recover`] on it.
    pub fn successor(&self, epoch: u64) -> Rc<Self> {
        let mut config = self.config.clone();
        config.epoch = epoch;
        let successor = Self::connect(
            config,
            Rc::clone(&self.net),
            &self.data_sources(),
            Some(Rc::clone(&self.commit_log)),
        );
        successor.next_txn.set(self.next_txn_seq());
        successor
    }

    /// Single-coordinator failover (§V-A): crash this instance if nobody
    /// has, [`abort_unprepared`](Middleware::abort_unprepared) its branches
    /// (reporting each live source to `aborted`), then let its
    /// [`successor`](Middleware::successor) at the same epoch
    /// [`recover`](Middleware::recover) the in-doubt ones from the shared
    /// commit log. Returns the successor, to be installed as the serving
    /// instance now that recovery is done, and its `(committed, aborted)`
    /// recovery counts.
    pub async fn fail_over(&self, aborted: impl FnMut(u32, usize)) -> (Rc<Self>, (usize, usize)) {
        self.crash();
        self.abort_unprepared(aborted).await;
        let successor = self.successor(self.config.epoch);
        let recovered = successor.recover().await;
        (successor, recovered)
    }

    /// Middleware failure recovery (§V-A): query every data source for
    /// prepared-but-undecided branches in *this coordinator's own gtrid
    /// space* and finish them according to the durable commit log — commit if
    /// a commit decision was flushed, abort otherwise. Returns
    /// `(committed, aborted)` branch counts.
    ///
    /// Scoped by gtrid owner: in a multi-coordinator deployment the data
    /// sources hold in-doubt branches from every coordinator, and finishing a
    /// *peer's* branch against the wrong commit log would abort transactions
    /// the peer durably committed. Adopting a dead peer's space is the
    /// explicit [`Middleware::recover_owned_by`].
    pub async fn recover(&self) -> (usize, usize) {
        // Unbounded by sequence, so a cold restart's recovery also reaches
        // branches its successor began meanwhile. Bounding it by
        // `next_txn_seq()` spares them but changes the recorded outcome of
        // the cold-restart drill, so it waits for a deliberate re-record.
        let owner = self.config.node.index();
        self.recover_owned_by(owner, u64::MAX, &Rc::clone(&self.commit_log))
            .await
    }

    /// Peer recovery: finish the in-doubt branches whose gtrids coordinator
    /// `owner` allocated below sequence number `below` (a dead incarnation's
    /// [`next_txn_seq`](Middleware::next_txn_seq)) according to
    /// `decision_log` (the dead peer's sealed commit log). Drives this
    /// instance's own connections, so the commands carry *this*
    /// coordinator's (live) epoch and pass the data sources' fences.
    pub async fn recover_owned_by(
        &self,
        owner: u32,
        below: u64,
        decision_log: &Rc<CommitLog>,
    ) -> (usize, usize) {
        let mut committed = 0;
        let mut aborted = 0;
        let dm = self.dm();
        for conn in self.connections.values() {
            let prepared = conn.recover_prepared_owned_by(owner, below).await;
            for xid in prepared {
                // Recovery spans attach to the *original* transaction's trace
                // (keyed by its gtrid), even when this coordinator is a peer
                // adopting a dead owner's space — the trace of an in-doubt
                // transaction shows who finished it, and how.
                let rec_span =
                    geotp_telemetry::span_root(xid.gtrid, dm, SpanKind::Recovery, xid.bqual as u64);
                let label = match decision_log.decision(xid.gtrid) {
                    Some(Decision::Commit) => {
                        committed += conn.commit(xid, false).await.is_ok() as usize;
                        "commit"
                    }
                    Some(Decision::Abort) | None => {
                        let _ = conn.rollback(xid).await;
                        aborted += 1;
                        "abort"
                    }
                };
                geotp_telemetry::counter_add("mw.recovered", label, self.config.node.index(), 1);
                geotp_telemetry::span_end(rec_span);
            }
        }
        (committed, aborted)
    }

    // ------------------------------------------------------------------
    // Session front door: the per-session registry.
    // ------------------------------------------------------------------

    /// Register a session (idempotent). Called by the session front door on
    /// `connect`; refreshes the session's idle clock, so reconnecting after a
    /// reap simply re-creates the registry entry.
    pub fn register_session(&self, session: u64) {
        let at = now();
        self.sessions
            .borrow_mut()
            .entry(session)
            .or_default()
            .last_active = at;
    }

    /// Evict every session that has no transaction in flight and has been
    /// idle for at least `idle_for`. Returns the reaped session ids (sorted,
    /// for deterministic traces). A reaped session's next `begin` fails with
    /// a clean retryable [`AbortReason::SessionExpired`]; reconnecting
    /// re-registers it.
    pub fn reap_idle_sessions(&self, idle_for: Duration) -> Vec<u64> {
        let cutoff = now();
        let mut reaped = Vec::new();
        self.sessions.borrow_mut().retain(|&id, state| {
            let idle =
                state.live_gtrid.is_none() && cutoff.duration_since(state.last_active) >= idle_for;
            if idle {
                reaped.push(id);
            }
            !idle
        });
        reaped.sort_unstable();
        reaped
    }

    /// This session's front-door state, if it ever connected.
    pub fn session_state(&self, session: u64) -> Option<SessionState> {
        self.sessions.borrow().get(&session).copied()
    }

    /// Number of sessions that have connected to this coordinator.
    pub fn active_sessions(&self) -> usize {
        self.sessions.borrow().len()
    }

    /// Number of live (in-flight) session transactions.
    pub fn live_transactions(&self) -> usize {
        self.sessions
            .borrow()
            .values()
            .filter(|s| s.live_gtrid.is_some())
            .count()
    }

    fn note_txn_begin(&self, session: u64, gtrid: u64) {
        let at = now();
        let mut sessions = self.sessions.borrow_mut();
        let state = sessions.entry(session).or_default();
        state.txns_begun += 1;
        state.live_gtrid = Some(gtrid);
        state.last_active = at;
    }

    fn note_txn_end(&self, session: u64, gtrid: u64) {
        if let Some(state) = self.sessions.borrow_mut().get_mut(&session) {
            if state.live_gtrid == Some(gtrid) {
                state.live_gtrid = None;
            }
            state.last_active = now();
        }
    }

    // ------------------------------------------------------------------
    // The one transaction body. Two doors lead into it and differ only in
    // what the client has told the coordinator: a session streams statement
    // rounds (`begin_live`), a one-shot caller submits the whole spec
    // (`run_transaction`, which declares a plan first).
    // ------------------------------------------------------------------

    /// Run one client transaction end to end and return its outcome: declare
    /// the whole spec to the coordinator (its declared plan), then drive it
    /// round by round through the live path.
    pub async fn run_transaction(self: &Rc<Self>, spec: &TransactionSpec) -> TxnOutcome {
        if self.crashed.get() {
            // A crashed coordinator accepts nothing; the client's connection
            // is refused before any state is created.
            return TxnOutcome::aborted(AbortReason::CoordinatorCrashed, Duration::ZERO, false);
        }
        let mut txn = self.begin_txn(None, spec.rounds.len() as u64).await;
        self.declare_plan(&mut txn, spec);
        let mut rows = Vec::new();
        for round in &spec.rounds {
            match self.execute_live(&mut txn, round, false).await {
                Ok(round_rows) => append_rows(&mut rows, round_rows),
                Err(error) => return error.outcome,
            }
        }
        let mut outcome = self.commit_live(&mut txn).await;
        outcome.rows = rows;
        outcome
    }

    /// Begin a live transaction for `session`. Fails with a retryable
    /// refusal on a crashed coordinator.
    pub(crate) async fn begin_live(self: &Rc<Self>, session: u64) -> Result<LiveTxn, TxnError> {
        if self.crashed.get() {
            return Err(TxnError::refused());
        }
        if !self.sessions.borrow().contains_key(&session) {
            // The idle-session reaper evicted this session: reject cleanly
            // (retryable) instead of silently resurrecting registry state.
            return Err(TxnError::session_expired());
        }
        let txn = self.begin_txn(Some(session), session).await;
        self.note_txn_begin(session, txn.gtrid);
        Ok(txn)
    }

    /// Charge the analysis slice (Fig. 6c "Analysis": parse/route/plan),
    /// allocate a gtrid and start tracking the transaction. `trace_attr`
    /// labels the root span: the session id for a statement stream, the
    /// round count for a declared spec.
    async fn begin_txn(&self, session: Option<u64>, trace_attr: u64) -> LiveTxn {
        let started = now();
        sleep(self.config.analysis_cost).await;
        let gtrid = self.alloc_gtrid();
        self.hub.register(gtrid);
        // Trace root + the analysis slice (backdated: the gtrid only exists
        // now, after the analysis already ran).
        geotp_telemetry::span_root_at(gtrid, self.dm(), SpanKind::Txn, trace_attr, started);
        geotp_telemetry::span_leaf_closed(gtrid, self.dm(), SpanKind::Analysis, 0, started);
        let mut scratch = self.take_scratch();
        scratch.keys.clear();
        scratch.involved.clear();
        scratch.started_branches.clear();
        scratch.final_round.clear();
        LiveTxn {
            gtrid,
            session,
            plan: None,
            started,
            breakdown: LatencyBreakdown {
                analysis: self.config.analysis_cost,
                ..LatencyBreakdown::default()
            },
            scratch,
            distributed: false,
            annotated: false,
            read_only: true,
            rounds: 0,
            concluded: false,
        }
    }

    /// Record what submitting the whole `spec` tells the coordinator before
    /// the first round: the sorted, deduped key set (the hotspot footprint
    /// sees all of it at once), hence the full involvement — `distributed`,
    /// early abort and every peer list are right from round 0 — and each
    /// branch's final round.
    fn declare_plan(&self, txn: &mut LiveTxn, spec: &TransactionSpec) {
        let partitioner = &self.config.partitioner;
        spec.collect_keys_into(&mut txn.scratch.keys);
        partitioner.involved_nodes_into(&txn.scratch.keys, &mut txn.scratch.involved);
        txn.distributed = txn.scratch.involved.len() > 1;
        if self.config.protocol.advanced() {
            let mut footprint = self.scheduler.footprint().borrow_mut();
            footprint.on_access_start(&txn.scratch.keys);
        }
        let final_round = &mut txn.scratch.final_round;
        for (round, ops) in spec.rounds.iter().enumerate() {
            for op in ops {
                let ds = partitioner.route(op.key());
                match final_round.iter_mut().find(|(branch, _)| *branch == ds) {
                    Some(entry) => entry.1 = round,
                    None => final_round.push((ds, round)),
                }
            }
        }
        txn.plan = Some(DeclaredPlan {
            annotate_last: spec.annotate_last,
        });
    }

    /// Execute one statement round of a live transaction — the only place
    /// that splits a round, schedules it, builds the per-branch requests,
    /// dispatches and folds the feedback. `last` is a streaming client's
    /// `/*+ last */` annotation on this round (a declared plan carries its
    /// own): with a decentralized-prepare protocol it triggers the implicit
    /// prepare on every branch it ends.
    ///
    /// The steps between the awaits are plain functions, so their locals
    /// never take space in this future (boxed once per round by the session
    /// door).
    pub(crate) async fn execute_live(
        self: &Rc<Self>,
        txn: &mut LiveTxn,
        ops: &[ClientOp],
        last: bool,
    ) -> Result<Vec<geotp_storage::Row>, TxnError> {
        debug_assert!(!txn.concluded, "round on a concluded transaction");
        if let Some(error) = self.conclude_if_crashed(txn) {
            return Err(error);
        }
        let round_idx = txn.rounds;
        txn.rounds += 1;
        // The round's span is scoped: the data sources' spans nest under it.
        let round = Phase {
            started: now(),
            span: geotp_telemetry::span_scoped(
                txn.gtrid,
                self.dm(),
                SpanKind::Round,
                round_idx as u64,
            ),
        };
        if let Some(attempts) = self.plan_round(txn, ops, round_idx) {
            // Late transaction scheduling kept this transaction back; charge
            // the backoff and abort it.
            sleep(ADMISSION_RETRY_BACKOFF * attempts).await;
            return Err(self.conclude_aborted(txn, AbortReason::AdmissionRejected, false));
        }
        let branches = self.build_requests(txn, ops, round_idx, last, round.span);

        let scratch = &mut txn.scratch;
        let requests = &scratch.requests[..branches];
        self.dispatch_round(requests, &scratch.postpone, &mut scratch.responses)
            .await;
        // The requests' operations hold row values: drop them now rather
        // than keep them alive in the pool.
        for request in &mut txn.scratch.requests[..branches] {
            request.ops.clear();
        }
        if let Some(error) = self.conclude_if_crashed(txn) {
            txn.scratch.responses.clear();
            return Err(error);
        }
        self.round_feedback(txn, ops);
        txn.breakdown.execution += round.end();

        if !txn.scratch.failed.is_empty() {
            txn.scratch.responses.clear();
            let (started, failed) = (&txn.scratch.started_branches, &txn.scratch.failed);
            let rollback = self.phase(txn.gtrid, SpanKind::RollbackDispatch, started.len());
            self.abort_started_branches(txn.gtrid, started, failed)
                .await;
            rollback.end();
            return Err(self.conclude_aborted(txn, AbortReason::ExecutionFailed, false));
        }

        // Move the result rows out of the responses (no clones).
        let mut rows = Vec::new();
        for response in txn.scratch.responses.drain(..) {
            if let StatementOutcome::Ok { rows: round_rows } = response.outcome {
                append_rows(&mut rows, round_rows);
            }
        }
        Ok(rows)
    }

    /// Fold round `round_idx`'s operations into the transaction (key set and
    /// involvement for a statement stream, the read-only flag), split them
    /// per data source and schedule the branches. Returns the admission
    /// attempts when late transaction scheduling refuses the transaction.
    fn plan_round(&self, txn: &mut LiveTxn, ops: &[ClientOp], round_idx: usize) -> Option<u32> {
        let protocol = self.config.protocol;
        let advanced = protocol.advanced();
        // A statement stream grows its key set and involvement one round at
        // a time; a declared plan fixed both before the first round.
        let streaming = txn.plan.is_none();
        let known = txn.scratch.keys.len();
        for op in ops {
            // Anything besides a plain read (writes, but also FOR UPDATE —
            // it takes an exclusive lock) disqualifies the transaction from
            // the read-only snapshot commit fast path.
            if !matches!(op, ClientOp::Read(_)) {
                txn.read_only = false;
            }
            if streaming && !txn.scratch.keys.contains(&op.key()) {
                txn.scratch.keys.push(op.key());
            }
        }
        let scratch = &mut txn.scratch;
        if streaming {
            let partitioner = &self.config.partitioner;
            partitioner.involved_nodes_into(&scratch.keys, &mut scratch.involved);
            txn.distributed = scratch.involved.len() > 1;
            let fresh = &scratch.keys[known..];
            if advanced && !fresh.is_empty() {
                let mut footprint = self.scheduler.footprint().borrow_mut();
                footprint.on_access_start(fresh);
            }
        }

        // Per-branch operation groups index the caller's round — nothing is
        // cloned for routing.
        let groups = &mut scratch.groups;
        self.config.partitioner.split_into(ops, groups);
        if protocol.reorders_writes_last() {
            groups.sort_each_by_key(|op| ops[op].is_write());
        }
        // Only the geo-scheduler plans a round; everyone else postpones
        // nothing (an empty schedule).
        scratch.postpone.clear();
        if protocol.geo_scheduled() {
            let plans = &mut scratch.plans;
            for (idx, (ds, members)) in groups.iter().enumerate() {
                if plans.len() == idx {
                    plans.push(BranchPlan {
                        ds_index: ds,
                        keys: Vec::new(),
                    });
                }
                let plan = &mut plans[idx];
                plan.ds_index = ds;
                plan.keys.clear();
                plan.keys.extend(members.iter().map(|&op| ops[op].key()));
            }
            let plans = &plans[..groups.len()];
            if !advanced || round_idx > 0 {
                self.scheduler.schedule_into(plans, &mut scratch.postpone);
            } else if let AdmissionDecision::Reject { attempts } = self
                .scheduler
                .schedule_with_admission(plans, &mut scratch.postpone)
            {
                return Some(attempts);
            }
        }
        let postponed: u64 = scratch.postpone.iter().map(|d| d.as_micros() as u64).sum();
        self.stats.borrow_mut().total_postpone_micros += postponed;
        None
    }

    /// Fill the pooled request slots with the round's per-branch statements
    /// (a branch's first statement starts it) and return how many there
    /// are. A statement stream's annotated round also sends the started
    /// branches it does not touch their end-of-branch statement.
    fn build_requests(
        &self,
        txn: &mut LiveTxn,
        ops: &[ClientOp],
        round_idx: usize,
        last: bool,
        trace_parent: Option<SpanId>,
    ) -> usize {
        let protocol = self.config.protocol;
        let annotated = txn.plan.as_ref().map_or(last, |plan| plan.annotate_last);
        let decentralized = protocol.decentralized_prepare() && annotated;
        let early_abort = protocol.early_abort() && txn.distributed;
        let gtrid = txn.gtrid;
        let fill = |request: &mut StatementRequest, involved: &[u32], ds, begin, is_last| {
            request.xid = Xid::new(gtrid, ds);
            request.begin = begin;
            request.is_last = is_last;
            request.decentralized_prepare = decentralized;
            request.early_abort = early_abort;
            request.peers.clear();
            let peers = involved.iter().copied().filter(|peer| *peer != ds);
            request.peers.extend(peers);
            request.trace_parent = trace_parent;
        };
        let branches = txn.scratch.groups.len();
        for idx in 0..branches {
            let ds = txn.scratch.groups.get(idx).0;
            let begin = !txn.scratch.started_branches.contains(&ds);
            let is_last = decentralized && txn.branch_ends(ds, round_idx, last);
            let TxnScratch {
                involved,
                started_branches,
                groups,
                requests,
                ..
            } = &mut txn.scratch;
            if requests.len() == idx {
                requests.push(StatementRequest::simple(Xid::new(0, 0), Vec::new()));
            }
            let request = &mut requests[idx];
            fill(request, involved, ds, begin, is_last);
            let members = groups.get(idx).1.iter();
            request
                .ops
                .extend(members.map(|&op| Self::to_ds_op(&ops[op])));
            if begin {
                started_branches.push(ds);
            }
        }

        txn.annotated |= decentralized;
        if decentralized && txn.plan.is_none() {
            // The stream's `/*+ last */` round ends every started branch.
            // Branches not participating in it get an empty end-of-branch
            // statement, dispatched concurrently with the round itself
            // (their prepare overlaps the round's execution — the
            // interactive shape of the paper's O1). A declared plan never
            // needs one: each branch was told at its own final round.
            let scratch = &txn.scratch;
            for &ds in &scratch.started_branches {
                if scratch.groups.iter().any(|(g, _)| g == ds) {
                    continue;
                }
                let conn = self.conn(ds).clone();
                let mut trigger = StatementRequest::simple(Xid::new(0, 0), Vec::new());
                fill(&mut trigger, &scratch.involved, ds, false, true);
                spawn(async move {
                    let _ = conn.execute(trigger).await;
                });
            }
        }
        branches
    }

    /// Fold the round's responses into the hotspot footprint (O3) and
    /// collect the branches whose statement failed.
    fn round_feedback(&self, txn: &mut LiveTxn, ops: &[ClientOp]) {
        let scratch = &mut txn.scratch;
        scratch.failed.clear();
        for (idx, response) in scratch.responses.iter().enumerate() {
            let (ds, members) = scratch.groups.get(idx);
            if self.config.protocol.advanced() {
                let keys = &mut scratch.branch_keys;
                keys.clear();
                keys.extend(members.iter().map(|&op| ops[op].key()));
                let mut footprint = self.scheduler.footprint().borrow_mut();
                footprint.on_subtxn_feedback(keys, response.local_execution_latency);
            }
            if !response.outcome.is_ok() {
                scratch.failed.push(ds);
            }
        }
    }

    /// Commit a live transaction: with the decentralized prepare triggered
    /// the coordinator only waits for the pushed votes; otherwise it drives
    /// the classic explicit prepare round.
    pub(crate) async fn commit_live(self: &Rc<Self>, txn: &mut LiveTxn) -> TxnOutcome {
        debug_assert!(!txn.concluded, "commit on a concluded transaction");
        if let Some(error) = self.conclude_if_crashed(txn) {
            return error.outcome;
        }
        let mut read_only = false;
        let committed = if txn.scratch.involved.is_empty() {
            // An empty transaction commits trivially — nothing was decided.
            Ok(())
        } else if self.config.snapshot_reads && txn.read_only && !txn.annotated {
            // Snapshot-read fast path: every branch only read, so there is no
            // decision to make durable — no prepare round, no log flush, just
            // one parallel read-only commit per started branch. No commit
            // dispatch span either: the trace oracle's flush-before-dispatch
            // rule is about decisions, and this path decides nothing.
            let commit_started = now();
            let all_ok = Cell::new(true);
            let commits = txn.scratch.started_branches.iter().map(|&ds| {
                let (xid, all_ok) = (Xid::new(txn.gtrid, ds), &all_ok);
                async move {
                    if self.conn(ds).commit_read_only(xid).await.is_err() {
                        all_ok.set(false);
                    }
                }
            });
            join_all(commits).await;
            txn.breakdown.commit += now().duration_since(commit_started);
            geotp_telemetry::counter_add("mw.readonly_commits", "", self.config.node.index(), 1);
            read_only = true;
            if all_ok.get() {
                Ok(())
            } else {
                Err(AbortReason::ExecutionFailed)
            }
        } else {
            self.commit_phase(txn).await
        };
        // The outcome is built only now, so it does not wait through the
        // commit inside this future.
        let outcome = TxnOutcome {
            gtrid: txn.gtrid,
            distributed: txn.distributed,
            read_only,
            committed: committed.is_ok(),
            abort_reason: committed.err(),
            latency: now().duration_since(txn.started),
            breakdown: txn.breakdown,
            ..TxnOutcome::default()
        };
        self.finish_live(txn, outcome)
    }

    /// Roll a live transaction back at the client's request.
    pub(crate) async fn rollback_live(self: &Rc<Self>, txn: &mut LiveTxn) -> TxnOutcome {
        debug_assert!(!txn.concluded, "rollback on a concluded transaction");
        if let Some(error) = self.conclude_if_crashed(txn) {
            return error.outcome;
        }
        let rollback_started = now();
        let started = txn.scratch.started_branches.iter().copied();
        self.rollback_branches(txn.gtrid, started).await;
        txn.breakdown.commit += now().duration_since(rollback_started);
        self.conclude_aborted(txn, AbortReason::ClientRollback, false)
            .outcome
    }

    /// The client's connection dropped mid-transaction: conclude the
    /// bookkeeping immediately and roll the orphaned branches back in the
    /// background (the middleware's TCP-reset handling; nobody is waiting
    /// for the result). A crashed coordinator dispatches nothing — its
    /// branches die via disconnect handling and recovery, as always.
    pub(crate) fn abandon_live(self: &Rc<Self>, mut txn: LiveTxn) {
        if txn.concluded {
            return;
        }
        let orphaned = txn.scratch.started_branches.clone();
        self.conclude_aborted(&mut txn, AbortReason::ClientDisconnected, false);
        if !orphaned.is_empty() && !self.crashed.get() {
            spawn(self.rollback_branches(txn.gtrid, orphaned));
        }
    }

    /// A crashed coordinator stops dead at its next step: conclude `txn` as
    /// a retryable [`AbortReason::CoordinatorCrashed`] and dispatch nothing
    /// (a dead process sends nothing; the data sources' disconnect handling
    /// and failure recovery clean the branches up). `None` while alive.
    fn conclude_if_crashed(&self, txn: &mut LiveTxn) -> Option<TxnError> {
        let crashed = self.crashed.get();
        crashed.then(|| self.conclude_aborted(txn, AbortReason::CoordinatorCrashed, true))
    }

    /// Conclude a live transaction that did not commit, reporting the
    /// latency breakdown accumulated so far.
    fn conclude_aborted(
        &self,
        txn: &mut LiveTxn,
        reason: AbortReason,
        retryable: bool,
    ) -> TxnError {
        let mut outcome =
            TxnOutcome::aborted(reason, now().duration_since(txn.started), txn.distributed);
        outcome.gtrid = txn.gtrid;
        outcome.breakdown = txn.breakdown;
        TxnError::aborted(self.finish_live(txn, outcome), retryable)
    }

    /// Bookkeeping common to every transaction exit path.
    fn finish_live(&self, txn: &mut LiveTxn, outcome: TxnOutcome) -> TxnOutcome {
        debug_assert!(!txn.concluded);
        txn.concluded = true;
        self.hub.unregister(txn.gtrid);
        if self.config.protocol.advanced() {
            self.scheduler
                .footprint()
                .borrow_mut()
                .on_txn_finish(&txn.scratch.keys, outcome.committed);
        }
        self.stats.borrow_mut().record(&outcome);
        self.trace_txn_exit(txn.gtrid, &outcome);
        if let Some(session) = txn.session {
            self.note_txn_end(session, txn.gtrid);
        }
        self.return_scratch(std::mem::take(&mut txn.scratch));
        outcome
    }
}

/// Append a round's `rows` to a transaction's: the first rows are moved in
/// whole, so a single-branch round allocates no second buffer.
pub(crate) fn append_rows(rows: &mut Vec<geotp_storage::Row>, mut more: Vec<geotp_storage::Row>) {
    if rows.is_empty() {
        *rows = more;
    } else {
        rows.append(&mut more);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_plan_cache_keeps_hot_entries_under_capacity_pressure() {
        // Regression test for the wholesale-clear policy: a hot script must
        // survive a stream of one-shot scripts overflowing the cache. Each
        // touch is `Middleware::parsed_sql`'s lookup, inserting on a miss.
        let mut cache = SqlCache::new(4);
        let mut touch = |script: &str| {
            if cache.get(script).is_none() {
                cache.insert(script, SqlScript::Rollback);
            }
        };
        let hot = "BEGIN; UPDATE usertable SET bal = bal + 1 WHERE id = 1 /*+ last */; COMMIT;";
        touch(hot);
        for i in 0..16u64 {
            // Touch the hot script between fillers, as a workload would.
            touch(hot);
            let filler = format!(
                "BEGIN; UPDATE usertable SET bal = bal + 1 WHERE id = {} /*+ last */; COMMIT;",
                100 + i
            );
            touch(&filler);
        }
        assert!(cache.map.len() <= 4, "cache stays bounded");
        assert!(
            cache.map.contains_key(hot),
            "the hot script must survive capacity pressure (second chance)"
        );
    }
}
