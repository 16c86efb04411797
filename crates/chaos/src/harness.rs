//! The chaos harness: build a deployment, drive a workload under a fault
//! schedule, check invariants, emit a replayable trace.
//!
//! [`run`] owns the whole lifecycle, once, for both front doors:
//!
//! 1. assemble a simulated deployment through the shared
//!    [`geotp_cluster::wire`] (network, data sources + geo-agents) with
//!    engine-side history recording switched on for the serializability
//!    checker, and put a front door in front of it;
//! 2. compile the [`FaultSchedule`] into the network fault plane and spawn a
//!    *controller task* that applies node-level events at their scheduled
//!    instants;
//! 3. drive any [`ChaosWorkload`] — balance transfers, the TPC-C mix, … —
//!    where clients retry transactions a crashed coordinator refused;
//! 4. once the clients drain (bounded by the liveness horizon): heal
//!    everything, restart any still-crashed data source, run one final
//!    recovery pass over the in-doubt branches, and hand the deployment to
//!    the [`crate::invariants`] checkers (atomicity, durability, liveness,
//!    serializability, plus the trace oracle on traced runs).
//!
//! The two doors differ only in what the private `FrontDoor` enum supplies:
//!
//! * **`Single`** — one [`Middleware`]. Failover is *scripted* (§V-A: a
//!   successor shares the durable commit log and replays it), and the
//!   clock-skew bookkeeping lives here;
//! * **`Tier`** ([`ChaosConfig::tier`] set) — a [`CoordinatorCluster`] of two
//!   coordinators, each with its own commit log and gtrid space, behind the
//!   consistent-hash session router. Nobody scripts a failover: the tier's
//!   own lease heartbeats (over the simulated network, so partitions starve
//!   them), supervisor, fencing and peer takeover react to the schedule.
//!   The durability checker resolves each gtrid against its owning
//!   coordinator's log; engine-side history is coordinator-agnostic, so
//!   cross-coordinator anomalies close serializability cycles the same way.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use geotp_cluster::{
    wire, AdmissionPolicy, ClusterConfig, CoordinatorCluster, MembershipConfig,
    SessionReaperConfig, Wiring, SUPERVISOR_INTERVAL,
};
use geotp_datasource::DataSource;
use geotp_middleware::session::RetryPolicy;
use geotp_middleware::{
    AbortReason, ClientOp, Decision, Middleware, MiddlewareConfig, Protocol, Session,
    SessionService, TransactionSpec, TxnOutcome,
};
use geotp_net::{Network, NodeId};
use geotp_simrt::hash::FxHashMap;
use geotp_simrt::{now, sleep, sleep_until, spawn, JoinHandle, Runtime, SimInstant};
use geotp_storage::{CostModel, EngineConfig, IsolationLevel, Key, MvccStats};
use geotp_workloads::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::injector::ScheduleInjector;
use crate::invariants::{self, InvariantReport};
use crate::schedule::{Fault, FaultSchedule};
use crate::trace::EventTrace;
use crate::workload::ChaosWorkload;

/// Coordinator↔data-source RTTs in milliseconds, one entry per data source
/// and shared by every coordinator (inter-source RTT is the max of the
/// endpoints').
pub(crate) const DS_RTTS_MS: [u64; 3] = [10, 60, 120];

/// Rows per data source (transfer workload).
pub(crate) const RECORDS_PER_NODE: u64 = 200;

/// Initial integer balance of every row (transfer workload).
pub(crate) const INITIAL_BALANCE: i64 = 1_000;

/// Storage lock-wait timeout (short, so induced deadlocks resolve fast).
const LOCK_WAIT_TIMEOUT: Duration = Duration::from_secs(2);

/// Coordinator decision-wait timeout (bounds vote/rollback waits when a
/// participant dies).
pub(crate) const DECISION_WAIT_TIMEOUT: Duration = Duration::from_secs(2);

/// Liveness horizon: the workload must drain within this much virtual time
/// or the liveness invariant is declared violated.
pub(crate) const HORIZON: Duration = Duration::from_secs(300);

/// Parameters of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for everything randomized: workload key choice, injector fates,
    /// network jitter, scheduler lotteries. Same seed + same schedule ⇒
    /// bit-identical trace.
    pub seed: u64,
    /// Concurrent client loops (one durable session id each).
    pub clients: usize,
    /// Transactions each client performs.
    pub txns_per_client: usize,
    /// Fraction of transfers that cross data sources (transfer workload).
    pub distributed_ratio: f64,
    /// Commit protocol under test.
    pub protocol: Protocol,
    /// Checker-validation fail point: every n-th read on every engine skips
    /// its shared lock, deliberately permitting dirty reads. `None` (the
    /// default) leaves isolation intact; tests set `Some(n)` to prove the
    /// serializability checker catches a real isolation bug and to give the
    /// schedule shrinker a genuine failure to minimize.
    pub isolation_bug_read_stride: Option<u64>,
    /// Checker-validation fail point: every coordinator dispatches voted-2PC
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
    /// Storage isolation level on every engine. The default
    /// (`Serializable2pl`) is the strict-2PL path; `SnapshotRead` serves
    /// plain reads from MVCC snapshots without locks; `ReadCommitted`
    /// deliberately weakens snapshots so the serializability checker has
    /// something to convict.
    pub isolation: IsolationLevel,
    /// Group-commit window on every engine's WAL. `Duration::ZERO` (the
    /// default) flushes each commit solo; a nonzero window parks committers
    /// so one flush amortizes across the batch.
    pub group_commit_window: Duration,
    /// Let the coordinators commit unannotated read-only transactions via
    /// the snapshot-read fast path (no prepare, no WAL flush, no locks
    /// under `SnapshotRead` isolation). Off by default.
    pub snapshot_reads: bool,
    /// The front door. `None` (the default) deploys one middleware; `Some`
    /// deploys a coordinator tier with these overload knobs.
    pub tier: Option<TierConfig>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            clients: 4,
            txns_per_client: 25,
            distributed_ratio: 0.5,
            protocol: Protocol::geotp(),
            isolation_bug_read_stride: None,
            commit_before_flush_bug: false,
            think_time: Duration::ZERO,
            client_crash_every: None,
            isolation: IsolationLevel::Serializable2pl,
            group_commit_window: Duration::ZERO,
            snapshot_reads: false,
            tier: None,
        }
    }
}

impl ChaosConfig {
    /// Number of data sources.
    pub fn nodes(&self) -> u32 {
        DS_RTTS_MS.len() as u32
    }

    /// Number of coordinators behind the front door.
    pub fn coordinators(&self) -> usize {
        if self.tier.is_some() {
            TIER_COORDINATORS
        } else {
            1
        }
    }
}

/// Coordinator slots of a tier run.
const TIER_COORDINATORS: usize = 2;

/// Coordinator↔control-node RTT of a tier run, in milliseconds.
const TIER_CONTROL_RTT_MS: u64 = 2;

/// The overload knobs of a tier run. The tier itself is fixed: two
/// coordinators, leases and heartbeats per [`MembershipConfig::default`], a
/// supervisor scan every [`SUPERVISOR_INTERVAL`] and a 2 ms control-node RTT.
#[derive(Debug, Clone, Default)]
pub struct TierConfig {
    /// Per-coordinator worker capacity (`0` = unbounded).
    pub max_inflight: usize,
    /// Admission policy at each coordinator's capacity gate.
    pub admission: AdmissionPolicy,
    /// Idle-session reaper schedule (`None` = never reap).
    pub session_reaper: Option<SessionReaperConfig>,
    /// Drive a flash crowd alongside the per-client loops: 200 000 mostly
    /// idle sessions are registered up front (router affinity + registry
    /// entries on every coordinator), then a sudden open-loop arrival spike
    /// hits a zipfian hot set of those sessions — typically with a
    /// coordinator failover armed mid-spike and bounded admission shedding
    /// the overflow.
    pub flash_crowd: bool,
}

/// Sessions a flash crowd registers before its spike (the mostly-idle
/// crowd).
const FLASH_CROWD_IDLE_SESSIONS: u64 = 200_000;

/// When the flash crowd's arrival spike starts.
const FLASH_CROWD_SPIKE_AT: Duration = Duration::from_secs(2);

/// How long the spike lasts.
const FLASH_CROWD_SPIKE_DURATION: Duration = Duration::from_millis(1_500);

/// Spike arrival rate (open loop: arrivals do not wait for completions).
const FLASH_CROWD_ARRIVALS_PER_SEC: u64 = 400;

/// Zipfian skew of the spike's session choice (item 0 hottest).
const FLASH_CROWD_ZIPF_THETA: f64 = 0.9;

/// Retry policy of each spike arrival (exponential backoff with seeded
/// jitter — the schedule is a pure function of the run's seed).
const FLASH_CROWD_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 6,
    base_backoff: Duration::from_millis(25),
    max_backoff: Duration::from_secs(1),
    jitter: 0.5,
};

/// How a client loop retries a transient non-start (refused connection,
/// overload shed, reaped session): 40 attempts, flat 250 ms pauses, no RNG
/// consumed. Bounded so a schedule without failover still drains.
const CLIENT_RETRY: RetryPolicy = RetryPolicy::fixed(40, Duration::from_millis(250));

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
fn mvcc_totals(sources: &[Rc<DataSource>]) -> MvccStats {
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

/// What stands between the clients and the data sources. The run loop is
/// shared; a door supplies only what genuinely differs — connecting a client
/// session, applying a coordinator-level event, how long failure detection
/// needs to settle, the final recovery pass, the decision lookup, and its
/// share of the trace wording.
enum FrontDoor {
    /// One middleware; a §V-A successor replaces it on scripted failover.
    Single(SingleDoor),
    /// A coordinator tier with lease membership, fencing and peer takeover.
    Tier(Rc<CoordinatorCluster>),
}

struct SingleDoor {
    /// The currently-serving coordinator; every generation shares one
    /// durable commit log.
    active: RefCell<Rc<Middleware>>,
    clocks: RefCell<NodeClocks>,
}

/// Everything the controller task, the client loops and the final heal pass
/// share.
struct Deployment {
    config: ChaosConfig,
    net: Rc<Network>,
    sources: Vec<Rc<DataSource>>,
    door: FrontDoor,
    trace: Rc<EventTrace>,
}

impl Deployment {
    fn build(
        config: ChaosConfig,
        trace: Rc<EventTrace>,
        schedule: &FaultSchedule,
        workload: &dyn ChaosWorkload,
    ) -> Rc<Self> {
        let (net, sources) = wire(&Wiring {
            seed: config.seed,
            coordinator_rtts_ms: vec![DS_RTTS_MS.to_vec(); config.coordinators()],
            control_rtt_ms: config.tier.as_ref().map(|_| TIER_CONTROL_RTT_MS),
            engine: EngineConfig {
                lock_wait_timeout: LOCK_WAIT_TIMEOUT,
                cost: CostModel::default(),
                // The serializability checker needs the versioned histories.
                record_history: true,
                isolation: config.isolation,
                group_commit_window: config.group_commit_window,
            },
            agent_lan_rtt: Duration::from_micros(500),
        });
        net.set_fault_injector(ScheduleInjector::compile(
            schedule,
            config.seed,
            Rc::clone(&trace),
        ));
        if let Some(stride) = config.isolation_bug_read_stride {
            for ds in &sources {
                ds.engine().fail_point_bypass_read_locks(stride);
            }
            trace.record(&format!(
                "fail point armed: every {stride}-th read skips its shared lock"
            ));
        }
        workload.load(&sources);

        let partitioner = workload.partitioner();
        let (door, coordinators) = match &config.tier {
            None => {
                let mut cfg =
                    MiddlewareConfig::new(NodeId::middleware(0), config.protocol, partitioner);
                cfg.analysis_cost = Duration::from_micros(200);
                cfg.log_flush_cost = Duration::from_micros(200);
                cfg.decision_wait_timeout = DECISION_WAIT_TIMEOUT;
                cfg.scheduler.seed = config.seed;
                cfg.snapshot_reads = config.snapshot_reads;
                let mw = Middleware::connect(cfg, Rc::clone(&net), &sources, None);
                let door = SingleDoor {
                    active: RefCell::new(Rc::clone(&mw)),
                    clocks: RefCell::new(NodeClocks::default()),
                };
                (FrontDoor::Single(door), vec![mw])
            }
            Some(tier) => {
                let mut cfg = ClusterConfig::new(TIER_COORDINATORS, config.protocol, partitioner);
                cfg.decision_wait_timeout = DECISION_WAIT_TIMEOUT;
                cfg.snapshot_reads = config.snapshot_reads;
                cfg.seed = config.seed;
                cfg.max_inflight = tier.max_inflight;
                cfg.admission = tier.admission;
                cfg.session_reaper = tier.session_reaper;
                let cluster = CoordinatorCluster::build(cfg, Rc::clone(&net), &sources);
                cluster.start();
                let coordinators = (0..TIER_COORDINATORS as u32)
                    .map(|coord| cluster.middleware(coord))
                    .collect();
                (FrontDoor::Tier(cluster), coordinators)
            }
        };
        if config.commit_before_flush_bug {
            for mw in &coordinators {
                mw.fail_point_dispatch_before_flush();
            }
            trace.record("fail point armed: commit dispatch precedes its log flush");
        }

        Rc::new(Self {
            config,
            net,
            sources,
            door,
            trace,
        })
    }

    /// Open client `client`'s session against whatever is serving now. The
    /// session *id* is what is durable: a tier's router pins it to a
    /// coordinator (affinity), re-homes it on takeover and moves it back
    /// when its home slot re-registers; a lone middleware's successor simply
    /// sees the same id reconnect.
    fn connect(&self, client: u64) -> Session {
        match &self.door {
            FrontDoor::Single(door) => SessionService::connect(&*door.active.borrow(), client),
            FrontDoor::Tier(cluster) => cluster.connect(client),
        }
    }

    /// `Single` door: replace the crashed coordinator by its successor
    /// ([`Middleware::fail_over`]) and trace what the failover did.
    async fn failover(&self, door: &SingleDoor) {
        let old = door.active.borrow().clone();
        if !old.is_crashed() {
            old.crash();
            self.trace
                .record("controller: crash middleware dm0 (implicit before failover)");
        }
        let (successor, (committed, aborted)) = old
            .fail_over(|ds, aborted| {
                if aborted > 0 {
                    self.trace.record(&format!(
                        "ds{ds} disconnect handling aborted {aborted} unprepared branch(es)"
                    ));
                }
            })
            .await;
        self.trace.record(&format!(
            "failover: successor dm0 recovered {committed} committed / {aborted} aborted branch(es)"
        ));
        *door.active.borrow_mut() = successor;
    }

    /// Apply one node-level event (link-level events live in the injector).
    async fn apply(&self, fault: Fault) {
        let trace = &self.trace;
        match (fault, &self.door) {
            (Fault::CrashDataSource { ds }, door) => {
                self.sources[ds as usize].crash();
                match door {
                    FrontDoor::Single(door) => {
                        let clock = door
                            .clocks
                            .borrow()
                            .node_now_micros(NodeId::data_source(ds));
                        trace.record(&format!("crash ds{ds} (node clock {clock}us)"));
                    }
                    FrontDoor::Tier(_) => trace.record(&format!("crash ds{ds}")),
                }
            }
            (Fault::RestartDataSource { ds }, _) => {
                let recovered = self.sources[ds as usize].restart().await;
                trace.record(&format!(
                    "restart ds{ds}: {} prepared branch(es) recovered from the WAL",
                    recovered.len()
                ));
            }
            (Fault::CrashMiddleware, FrontDoor::Single(door)) => {
                door.active.borrow().crash();
                trace.record("crash middleware dm0");
            }
            (Fault::CrashMiddlewareAfterFlush, FrontDoor::Single(door)) => {
                door.active.borrow().crash_after_next_flush();
                trace.record("arm fail point: crash middleware dm0 after next commit-log flush");
            }
            (Fault::FailoverMiddleware, FrontDoor::Single(door)) => self.failover(door).await,
            (Fault::ClockSkewRamp { node, drift_ppm }, FrontDoor::Single(door)) => {
                door.clocks.borrow_mut().ramp(node, drift_ppm);
                trace.record(&format!(
                    "clock skew ramp on {node}: {drift_ppm:+} ppm (node clock {}us)",
                    door.clocks.borrow().node_now_micros(node)
                ));
            }
            (Fault::CrashCoordinator { dm }, FrontDoor::Tier(cluster)) => {
                cluster.crash(dm);
                trace.record(&format!("crash coordinator dm{dm}"));
            }
            (Fault::CrashCoordinatorAfterFlush { dm }, FrontDoor::Tier(cluster)) => {
                cluster.crash_after_next_flush(dm);
                trace.record(&format!(
                    "arm fail point: crash coordinator dm{dm} after next commit-log flush"
                ));
            }
            (Fault::RestartCoordinator { dm }, FrontDoor::Tier(cluster)) => {
                let epoch = cluster.restart(dm).await;
                trace.record(&format!(
                    "restart coordinator dm{dm}: successor registered at epoch {epoch}"
                ));
            }
            // A coordinator-level event scripted for the other door has no
            // meaning here: record the skip so a replayed timeline is visibly
            // (not silently) incomplete.
            (other, _) => trace.record(&format!(
                "ignoring {other:?}: an event of the other front door"
            )),
        }
    }

    /// How long after the last client and event the run waits for in-flight
    /// notifications and deferred decisions to settle. A tier additionally
    /// needs a lease plus supervisor scans to notice a death and take over.
    fn settle_time(&self) -> Duration {
        let detection = self.config.tier.as_ref().map_or(Duration::ZERO, |_| {
            MembershipConfig::default().lease + SUPERVISOR_INTERVAL * 2
        });
        detection + DECISION_WAIT_TIMEOUT * 2 + Duration::from_secs(1)
    }

    /// Heal everything and resolve the in-doubt state: detach the fault
    /// plane, restart crashed data sources, and let the front door run its
    /// final recovery pass (a lone crashed middleware fails over first; a
    /// tier recovers every gtrid space, adopting never-adopted dead slots).
    async fn heal(&self) {
        if let FrontDoor::Tier(cluster) = &self.door {
            cluster.stop();
        }
        self.net.clear_fault_injector();
        for ds in &self.sources {
            if ds.is_crashed() {
                let recovered = ds.restart().await;
                self.trace.record(&format!(
                    "final heal: restart ds{} ({} prepared branch(es) recovered)",
                    ds.index(),
                    recovered.len()
                ));
            }
        }
        let ((committed, aborted), takeovers) = match &self.door {
            FrontDoor::Single(door) => {
                if door.active.borrow().is_crashed() {
                    self.failover(door).await;
                }
                let final_mw = door.active.borrow().clone();
                (final_mw.recover().await, String::new())
            }
            FrontDoor::Tier(cluster) => (
                cluster.recover_all().await,
                format!("; takeovers so far: {}", cluster.takeover_count()),
            ),
        };
        self.trace.record(&format!(
            "final recovery pass: {committed} committed / {aborted} aborted branch(es){takeovers}"
        ));
    }

    /// The durable decision for `gtrid`, from whichever commit log owns it.
    fn decision(&self, gtrid: u64) -> Option<Decision> {
        match &self.door {
            FrontDoor::Single(door) => door.active.borrow().commit_log().decision(gtrid),
            FrontDoor::Tier(cluster) => cluster.decision(gtrid),
        }
    }
}

/// Client-side bookkeeping shared by every client task of a run.
#[derive(Default)]
struct Tally {
    /// Outcomes of transactions that actually started.
    ledger: RefCell<Vec<TxnOutcome>>,
    /// The keys each committed gtrid's spec writes, for the write-set
    /// cross-check.
    declared_writes: RefCell<FxHashMap<u64, Vec<Key>>>,
    /// Connection attempts a crashed (or absent) coordinator refused.
    refused: Cell<u64>,
    /// Other transient non-starts: overload sheds and reaped sessions.
    degraded: Cell<u64>,
}

impl Tally {
    /// Book one attempt's outcome for `spec`. Transient non-starts (gtrid
    /// 0: refused connection, overload shed, reaped session) never started a
    /// transaction, so they are counted separately and kept out of the
    /// per-transaction ledger; returns whether the caller may retry. A commit
    /// also books the keys the spec writes: every operation but a plain or
    /// `FOR UPDATE` read.
    fn book(&self, outcome: TxnOutcome, spec: &TransactionSpec) -> Option<TxnOutcome> {
        let transient = outcome.is_refusal()
            || outcome.is_overloaded()
            || outcome.abort_reason == Some(AbortReason::SessionExpired);
        if !transient {
            if outcome.committed {
                let writes = spec
                    .all_ops()
                    .filter(|op| !matches!(op, ClientOp::Read(_) | ClientOp::ReadForUpdate(_)))
                    .map(|op| op.key().storage_key())
                    .collect();
                self.declared_writes
                    .borrow_mut()
                    .insert(outcome.gtrid, writes);
            }
            self.ledger.borrow_mut().push(outcome);
            return None;
        }
        let counter = if outcome.is_refusal() {
            &self.refused
        } else {
            &self.degraded
        };
        counter.set(counter.get() + 1);
        Some(outcome)
    }
}

/// Drive one client transaction through the session front door, honouring
/// the interactive knobs. `crash_client` makes this the *mid-transaction
/// client crash*: begin, execute the first statement round, think, vanish.
/// Returns `None` when the client crashed mid-transaction (no client-side
/// outcome exists — the middleware's connection-loss handling owns the
/// cleanup) and `Some(outcome)` otherwise.
async fn drive_client_txn(
    session: &mut Session,
    spec: &TransactionSpec,
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
/// client loops, the flash-crowd arrivals and [`client_scripts`]: the
/// workload shrinker's "exact scripts a seeded run would generate" contract
/// depends on these never diverging.
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
) -> Vec<Vec<TransactionSpec>> {
    (0..config.clients)
        .map(|client| {
            let mut rng = client_rng(config.seed, client);
            (0..config.txns_per_client)
                .map(|_| workload.next_spec(&mut rng))
                .collect()
        })
        .collect()
}

/// Run `schedule` against a fresh deployment described by `config`, driving
/// `workload`, and return the invariant-checked, replayable report.
pub fn run(
    config: ChaosConfig,
    schedule: FaultSchedule,
    workload: Rc<dyn ChaosWorkload>,
) -> ChaosReport {
    run_impl(config, schedule, workload, None)
}

/// [`run`] with an *explicit* per-client workload instead of seeded
/// generation: client `i` executes exactly `scripts[i]`, in order (retries
/// after a refused connection re-submit the same spec, as always). `workload`
/// still supplies the partitioner, the initial load and the consistency
/// conditions. This is the replay vehicle for minimized workloads.
pub fn run_scripted(
    config: ChaosConfig,
    schedule: FaultSchedule,
    workload: Rc<dyn ChaosWorkload>,
    scripts: Vec<Vec<TransactionSpec>>,
) -> ChaosReport {
    run_impl(config, schedule, workload, Some(scripts))
}

/// The flash crowd (`Tier` door): register the mostly-idle session crowd,
/// then spawn one task per open-loop spike arrival.
fn spawn_flash_crowd(
    cluster: &Rc<CoordinatorCluster>,
    deployment: &Deployment,
    workload: &Rc<dyn ChaosWorkload>,
    tally: &Rc<Tally>,
) -> Vec<JoinHandle<()>> {
    let seed = deployment.config.seed;
    // Register the crowd up front: every session pins its router affinity
    // and lands a registry entry on its coordinator — the state the reaper
    // must keep lean.
    let mut registered = 0u64;
    for session in 0..FLASH_CROWD_IDLE_SESSIONS {
        if let Some(coord) = cluster.router().route(session) {
            cluster.middleware(coord).register_session(session);
            registered += 1;
        }
    }
    deployment.trace.record(&format!(
        "flash crowd: {registered} idle session(s) registered, spike {}/s for {:?} at {:?}",
        FLASH_CROWD_ARRIVALS_PER_SEC, FLASH_CROWD_SPIKE_DURATION, FLASH_CROWD_SPIKE_AT
    ));
    let spike_micros = FLASH_CROWD_SPIKE_DURATION.as_micros() as u64;
    let arrivals = (spike_micros * FLASH_CROWD_ARRIVALS_PER_SEC / 1_000_000).max(1);
    let interval_micros = (spike_micros / arrivals).max(1);
    let zipf = Rc::new(ZipfianGenerator::new(
        FLASH_CROWD_IDLE_SESSIONS,
        FLASH_CROWD_ZIPF_THETA,
    ));
    (0..arrivals)
        .map(|arrival| {
            let cluster = Rc::clone(cluster);
            let workload = Rc::clone(workload);
            let tally = Rc::clone(tally);
            let zipf = Rc::clone(&zipf);
            spawn(async move {
                let at = SimInstant::ZERO
                    + FLASH_CROWD_SPIKE_AT
                    + Duration::from_micros(arrival * interval_micros);
                sleep_until(at).await;
                // Each arrival gets its own derived RNG stream: the whole
                // spike (session choice, spec, backoff jitter) is a pure
                // function of the run's seed.
                let mut rng = client_rng(seed, 0x0f1a_5000 + arrival as usize);
                let session_id = zipf.next(&mut rng);
                let spec = workload.next_spec(&mut rng);
                let mut session = cluster.connect(session_id);
                let retried = session
                    .run_spec_with_retries(&spec, Duration::ZERO, FLASH_CROWD_RETRY, &mut rng)
                    .await;
                // A still-transient outcome means the budget ran out without
                // ever starting a transaction: shed load, not an abort.
                tally.book(retried.outcome, &spec);
            })
        })
        .collect()
}

fn run_impl(
    config: ChaosConfig,
    schedule: FaultSchedule,
    workload: Rc<dyn ChaosWorkload>,
    scripts: Option<Vec<Vec<TransactionSpec>>>,
) -> ChaosReport {
    let mut rt = Runtime::new();
    rt.block_on(async move {
        let trace = EventTrace::new();
        let (tier_tag, coordinators) = match &config.tier {
            None => ("", String::new()),
            Some(_) => ("cluster ", format!(" coordinators={TIER_COORDINATORS}")),
        };
        trace.record(&format!(
            "{tier_tag}scenario start: workload={} seed={}{coordinators} nodes={} clients={}x{} protocol={}",
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
                    sleep_until(SimInstant::ZERO + event.at).await;
                    deployment.apply(event.fault).await;
                }
            })
        };

        // ---------------- workload ----------------
        let tally = Rc::new(Tally::default());
        let scripts = scripts.map(Rc::new);
        let client_count = scripts.as_ref().map(|s| s.len()).unwrap_or(config.clients);
        let mut clients = Vec::new();
        for client in 0..client_count {
            let deployment = Rc::clone(&deployment);
            let tally = Rc::clone(&tally);
            let workload = Rc::clone(&workload);
            let scripts = scripts.clone();
            clients.push(spawn(async move {
                let config = &deployment.config;
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
                    // clients reconnect (against whatever is serving by
                    // then) and re-submit the same spec.
                    for attempt in 1..=CLIENT_RETRY.max_attempts {
                        let mut session = deployment.connect(client as u64);
                        let Some(outcome) =
                            drive_client_txn(&mut session, &spec, config.think_time, crash_client)
                                .await
                        else {
                            // The client crashed mid-transaction on purpose:
                            // nobody is waiting for an outcome; move on.
                            break;
                        };
                        let Some(transient) = tally.book(outcome, &spec) else {
                            break;
                        };
                        if attempt < CLIENT_RETRY.max_attempts {
                            let pause = CLIENT_RETRY.backoff(attempt - 1, &mut rng);
                            sleep(pause.max(transient.retry_after.unwrap_or_default())).await;
                        }
                    }
                }
            }));
        }
        if let (FrontDoor::Tier(cluster), Some(tier)) = (&deployment.door, &config.tier) {
            if tier.flash_crowd {
                clients.extend(spawn_flash_crowd(cluster, &deployment, &workload, &tally));
            }
        }

        // ---------------- drain, bounded by the liveness horizon ----------------
        let drained = geotp_simrt::timeout(HORIZON, async {
            for client in clients {
                client.await;
            }
            controller.await;
            sleep(deployment.settle_time()).await;
        })
        .await;
        let workload_drained = drained.is_ok();
        trace.record(&format!(
            "workload drained within horizon: {workload_drained}"
        ));

        deployment.heal().await;

        // ---------------- tally + invariants ----------------
        let ledger = tally.ledger.borrow();
        let committed = ledger.iter().filter(|o| o.committed).count() as u64;
        // Indeterminate = transactions that actually started (gtrid
        // assigned) and then lost their coordinator mid-flight; connection
        // refusals were never transactions and are reported separately.
        let indeterminate = ledger
            .iter()
            .filter(|o| o.gtrid != 0 && o.abort_reason == Some(AbortReason::CoordinatorCrashed))
            .count() as u64;
        let aborted = ledger.len() as u64 - committed - indeterminate;
        let refused = tally.refused.get();
        let mut takeovers = String::new();
        match &deployment.door {
            FrontDoor::Single(_) => {
                if refused > 0 {
                    trace.record(&format!(
                        "coordinator refused {refused} connection attempt(s) while crashed"
                    ));
                }
            }
            FrontDoor::Tier(cluster) => {
                if refused > 0 {
                    trace.record(&format!(
                        "router/coordinators refused {refused} connection attempt(s)"
                    ));
                }
                let degraded = tally.degraded.get();
                if degraded > 0 || cluster.shed_count() > 0 || cluster.reaped_sessions() > 0 {
                    trace.record(&format!(
                        "degradation: {degraded} transient non-start(s) (shed/expired) seen by \
                         clients, {} begin(s) shed by admission, {} idle session(s) reaped",
                        cluster.shed_count(),
                        cluster.reaped_sessions()
                    ));
                }
                takeovers = format!(" takeovers={}", cluster.takeover_count());
            }
        }

        let mut invariants = invariants::check(
            &deployment.sources,
            || workload.consistency_violations(&deployment.sources),
            &ledger,
            &tally.declared_writes.borrow(),
            |gtrid| deployment.decision(gtrid),
            workload_drained,
        );
        // Traced runs also get the trace oracle (fifth checker). Its verdict
        // is deliberately kept out of the event trace: fingerprints must stay
        // byte-identical between traced and untraced replays of one seed.
        if let Some(telemetry) = geotp_telemetry::installed() {
            invariants::trace::apply(&mut invariants, &telemetry, &deployment.sources, &ledger);
        }
        trace.record(&format!(
            "summary: committed={committed} aborted={aborted} indeterminate={indeterminate}{takeovers}"
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
