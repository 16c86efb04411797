//! The coordinator cluster: N middlewares over shared data sources.
//!
//! [`CoordinatorCluster::build`] connects one [`Middleware`] per slot to the
//! same data sources (each with its own durable commit log and a disjoint
//! gtrid space — gtrids embed the coordinator index), registers every slot in
//! the [`MembershipTable`] and wires the [`SessionRouter`] in front. Once
//! [`CoordinatorCluster::start`] is called, each coordinator renews its lease
//! over the simulated network against the control node, and a supervisor task
//! scans for lapsed leases and detected crashes:
//!
//! 1. **declare dead** — lease lapsed (partition, crash) or process crash
//!    observed;
//! 2. **fence** — the membership epoch is bumped, the dead peer's commit log
//!    is sealed, and every data source is told to reject the dead epoch;
//! 3. **scoped disconnect** — each data source aborts the dead coordinator's
//!    *unprepared* branches (other coordinators' in-flight work untouched);
//! 4. **adopt** — a surviving coordinator runs `XA RECOVER` scoped to the
//!    dead gtrid space and finishes each in-doubt branch per the sealed log:
//!    durable `Commit` ⇒ commit, anything else ⇒ abort.
//!
//! Client sessions ([`CoordinatorCluster::connect`]) keep running; the
//! router re-homes the dead coordinator's sessions onto survivors on their
//! next `begin`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use geotp_datasource::DataSource;
use geotp_middleware::session::{BoxFuture, Session, SessionService, TxnError, TxnHandle};
use geotp_middleware::{CommitLog, Middleware, MiddlewareConfig, Partitioner, Protocol};
use geotp_net::{Network, NodeId};
use geotp_simrt::{join_all, now, sleep, spawn};

use crate::admission::{AdmissionGate, AdmissionPolicy, CoordinatorLoad, ShedReason};
use crate::membership::{MembershipConfig, MembershipTable};
use crate::ring::SessionRouter;

/// Configuration of a coordinator cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of coordinator slots.
    pub coordinators: usize,
    /// Commit protocol every coordinator runs.
    pub protocol: Protocol,
    /// The shared data partitioning scheme.
    pub partitioner: Partitioner,
    /// Per-coordinator concurrent-transaction capacity (the worker/connection
    /// pool of one proxy instance); `0` means unbounded. This is what makes
    /// the tier *scale out*: total capacity grows with the coordinator count.
    pub max_inflight: usize,
    /// Passed through to each [`MiddlewareConfig`].
    pub decision_wait_timeout: Duration,
    /// Virtual-time cost of parsing/routing/scheduling one transaction.
    pub analysis_cost: Duration,
    /// Commit-log flush cost.
    pub log_flush_cost: Duration,
    /// Commit unannotated read-only transactions via the snapshot-read fast
    /// path (no prepare, no WAL flush). Passed through to each
    /// [`MiddlewareConfig`].
    pub snapshot_reads: bool,
    /// Seed for the coordinators' schedulers (slot index is mixed in).
    pub seed: u64,
    /// Graceful-degradation policy at each coordinator's capacity gate (only
    /// meaningful with `max_inflight > 0`). The default is the legacy
    /// unbounded FIFO wait — no shedding, no deadlines.
    pub admission: AdmissionPolicy,
    /// When set, a background task reaps sessions idle past the deadline
    /// (registry entries and router affinity), keeping per-session state
    /// memory-lean toward 10^6 mostly-idle sessions. `None` = never reap.
    pub session_reaper: Option<SessionReaperConfig>,
}

/// How often the supervisor scans for lapsed leases and crashes. Leases
/// and heartbeats follow [`MembershipConfig::default`].
pub const SUPERVISOR_INTERVAL: Duration = Duration::from_millis(500);

/// Idle-session reaper schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReaperConfig {
    /// How often the reaper scans the registries.
    pub interval: Duration,
    /// Sessions idle (no live transaction, no activity) for at least this
    /// long are evicted; their next `begin` reconnects transparently.
    pub idle_for: Duration,
}

impl ClusterConfig {
    /// Reasonable defaults for `coordinators` slots over `partitioner`.
    pub fn new(coordinators: usize, protocol: Protocol, partitioner: Partitioner) -> Self {
        Self {
            coordinators,
            protocol,
            partitioner,
            max_inflight: 0,
            decision_wait_timeout: Duration::from_secs(2),
            analysis_cost: Duration::from_micros(200),
            log_flush_cost: Duration::from_micros(200),
            snapshot_reads: false,
            seed: 42,
            admission: AdmissionPolicy::default(),
            session_reaper: None,
        }
    }
}

/// One coordinator slot. The middleware instance behind a slot is
/// *replaceable*: [`CoordinatorCluster::restart`] installs a successor
/// process (fresh epoch, advanced gtrid space) over the slot's durable
/// commit log — how a crashed tier recovers from cold.
struct Slot {
    middleware: RefCell<Rc<Middleware>>,
    commit_log: Rc<CommitLog>,
    /// The membership epoch of the current instance (re-granted on restart).
    epoch: Cell<u64>,
    /// Worker-capacity admission gate (pass-through when unbounded).
    admission: Rc<AdmissionGate>,
}

impl Slot {
    fn middleware(&self) -> Rc<Middleware> {
        self.middleware.borrow().clone()
    }
}

/// What one peer takeover did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakeoverReport {
    /// The adopted (dead) coordinator.
    pub dead: u32,
    /// The surviving adopter.
    pub by: u32,
    /// The fencing epoch installed at the commit log and every data source.
    pub fencing_epoch: u64,
    /// Adopted in-doubt branches driven to commit.
    pub adopted_committed: usize,
    /// Adopted in-doubt branches driven to abort.
    pub adopted_aborted: usize,
    /// Unprepared branches of the dead coordinator aborted by the data
    /// sources' scoped disconnect handling.
    pub unprepared_aborted: usize,
}

/// The scale-out middleware tier.
pub struct CoordinatorCluster {
    config: ClusterConfig,
    net: Rc<Network>,
    sources: Vec<Rc<DataSource>>,
    slots: Vec<Slot>,
    membership: Rc<MembershipTable>,
    router: SessionRouter,
    /// Stops the heartbeat/supervisor tasks (harness quiescing).
    stopped: Cell<bool>,
    /// Whether [`CoordinatorCluster::start`] ran (restarted slots spawn
    /// their own heartbeat only in that case).
    started: Cell<bool>,
    /// Takeovers performed so far (telemetry for harnesses and tests).
    takeovers: Cell<u64>,
    /// Idle sessions reaped so far (telemetry for harnesses and tests).
    reaped: Cell<u64>,
}

impl CoordinatorCluster {
    /// Wire `config.coordinators` middlewares onto `sources` over `net`.
    /// Every slot registers in a fresh membership table and is granted its
    /// initial epoch before serving anything.
    pub fn build(config: ClusterConfig, net: Rc<Network>, sources: &[Rc<DataSource>]) -> Rc<Self> {
        let membership = Rc::new(MembershipTable::new(
            config.coordinators,
            MembershipConfig::default(),
        ));
        let mut slots = Vec::with_capacity(config.coordinators);
        for coord in 0..config.coordinators as u32 {
            let epoch = membership.register(coord);
            geotp_telemetry::gauge_set("cluster.epoch", "", coord, epoch as i64);
            // A restarted slot's successor inherits this configuration.
            let mut mw_cfg = MiddlewareConfig::new(
                NodeId::middleware(coord),
                config.protocol,
                config.partitioner,
            );
            mw_cfg.analysis_cost = config.analysis_cost;
            mw_cfg.log_flush_cost = config.log_flush_cost;
            mw_cfg.decision_wait_timeout = config.decision_wait_timeout;
            mw_cfg.snapshot_reads = config.snapshot_reads;
            mw_cfg.scheduler.seed = config.seed.wrapping_add(coord as u64);
            mw_cfg.epoch = epoch;
            let middleware = Middleware::connect(mw_cfg, Rc::clone(&net), sources, None);
            let commit_log = Rc::clone(middleware.commit_log());
            slots.push(Slot {
                middleware: RefCell::new(middleware),
                commit_log,
                epoch: Cell::new(epoch),
                admission: Rc::new(
                    AdmissionGate::new(config.max_inflight, config.admission)
                        .with_metrics_index(coord),
                ),
            });
        }
        let router = SessionRouter::new(Rc::clone(&membership));
        // Degradation signal: routing consults each gate's saturation state,
        // steering new sessions off saturated coordinators before their
        // leases lapse.
        let gates: Vec<Rc<AdmissionGate>> = slots.iter().map(|s| Rc::clone(&s.admission)).collect();
        router.set_saturation_probe(move |coord| {
            gates
                .get(coord as usize)
                .is_some_and(|gate| gate.is_saturated())
        });
        Rc::new(Self {
            config,
            net,
            sources: sources.to_vec(),
            slots,
            membership,
            router,
            stopped: Cell::new(false),
            started: Cell::new(false),
            takeovers: Cell::new(0),
            reaped: Cell::new(0),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The membership/lease table.
    pub fn membership(&self) -> &Rc<MembershipTable> {
        &self.membership
    }

    /// The session router.
    pub fn router(&self) -> &SessionRouter {
        &self.router
    }

    /// The shared data sources.
    pub fn sources(&self) -> &[Rc<DataSource>] {
        &self.sources
    }

    /// The middleware instance currently serving slot `coord` (replaced by
    /// [`CoordinatorCluster::restart`]).
    pub fn middleware(&self, coord: u32) -> Rc<Middleware> {
        self.slots[coord as usize].middleware()
    }

    /// The durable commit log of slot `coord`.
    pub fn commit_log(&self, coord: u32) -> &Rc<CommitLog> {
        &self.slots[coord as usize].commit_log
    }

    /// The membership epoch of slot `coord`'s current instance.
    pub fn epoch(&self, coord: u32) -> u64 {
        self.slots[coord as usize].epoch.get()
    }

    /// The durable decision for `gtrid`, looked up in its owner's commit log
    /// (cross-coordinator: this is what cluster-wide invariant checkers use).
    pub fn decision(&self, gtrid: u64) -> Option<geotp_middleware::Decision> {
        let owner = geotp_middleware::gtrid_owner(gtrid) as usize;
        self.slots
            .get(owner)
            .and_then(|s| s.commit_log.decision(gtrid))
    }

    /// Takeovers performed so far.
    pub fn takeover_count(&self) -> u64 {
        self.takeovers.get()
    }

    /// Load snapshot of coordinator `coord`'s admission gate: permit
    /// occupancy, queue depth and shed counters — the degradation signals
    /// the router's saturation probe reads.
    pub fn load(&self, coord: u32) -> CoordinatorLoad {
        self.slots[coord as usize].admission.load()
    }

    /// Total `begin`s shed (queue full or deadline expired) across the tier.
    pub fn shed_count(&self) -> u64 {
        self.slots.iter().map(|s| s.admission.load().shed()).sum()
    }

    /// Idle sessions reaped so far.
    pub fn reaped_sessions(&self) -> u64 {
        self.reaped.get()
    }

    /// One reaper pass: every live coordinator evicts sessions idle for at
    /// least `idle_for`, and the router drops their affinity entries. Returns
    /// how many sessions were reaped. (The background reaper task calls this
    /// on the configured interval; harnesses may call it directly.)
    pub fn reap_idle_sessions_once(&self, idle_for: Duration) -> usize {
        let mut total = 0;
        for slot in &self.slots {
            let middleware = slot.middleware();
            if middleware.is_crashed() {
                continue; // its registry dies with the process
            }
            for session in middleware.reap_idle_sessions(idle_for) {
                self.router.forget(session);
                total += 1;
            }
        }
        self.reaped.set(self.reaped.get() + total as u64);
        total
    }

    /// Crash coordinator `coord`'s process: in-flight transactions die, the
    /// heartbeat task stops at its next tick, and the supervisor fences and
    /// adopts the slot.
    pub fn crash(&self, coord: u32) {
        self.slots[coord as usize].middleware().crash();
    }

    /// Arm the §V-A fail point on slot `coord`: crash right after its next
    /// commit-log flush (decision durable, never dispatched).
    pub fn crash_after_next_flush(&self, coord: u32) {
        self.slots[coord as usize]
            .middleware()
            .crash_after_next_flush();
    }

    /// Restart a dead coordinator slot: a successor process re-registers for
    /// a fresh membership epoch (strictly above any fence), shares the slot's
    /// durable commit log, starts its gtrid space past the predecessor's,
    /// resolves its own in-doubt branches against the log (idempotent when a
    /// peer already adopted them), and resumes serving — the router re-homes
    /// the slot's home sessions on their next request. This is how the tier
    /// recovers *from cold* when every coordinator died and nobody was left
    /// to adopt anyone. Returns the successor's epoch.
    pub async fn restart(self: &Rc<Self>, coord: u32) -> u64 {
        let slot = &self.slots[coord as usize];
        let old = slot.middleware();
        assert!(
            old.is_crashed() || !self.membership.is_alive(coord),
            "restarting a live coordinator (dm{coord})"
        );
        if self.membership.is_alive(coord) {
            self.membership.declare_dead(coord);
        }
        // Cold recovery of the slot's own gtrid space, as a takeover does it
        // for a dead peer: first abort the predecessor's unprepared branches
        // (nobody will ever finish them, and they hold their locks). This
        // runs while the slot is still dead, so every branch in its gtrid
        // space is the predecessor's: the router sends the successor nothing
        // before it registers.
        old.abort_unprepared(|_, _| {}).await;
        let epoch = self.membership.register(coord);
        geotp_telemetry::gauge_set("cluster.epoch", "", coord, epoch as i64);
        let successor = old.successor(epoch);
        *slot.middleware.borrow_mut() = Rc::clone(&successor);
        slot.epoch.set(epoch);
        // Then resolve the prepared branches nobody adopted while the tier
        // was down.
        let _ = successor.recover().await;
        if self.started.get() {
            let cluster = Rc::clone(self);
            spawn(async move { cluster.heartbeat_loop(coord, epoch).await });
        }
        epoch
    }

    /// Stop the background heartbeat/supervisor tasks (they observe the flag
    /// at their next tick). Used by harnesses before the final recovery pass.
    pub fn stop(&self) {
        self.stopped.set(true);
    }

    /// Spawn the lease heartbeats (one task per slot) and the supervisor.
    pub fn start(self: &Rc<Self>) {
        self.started.set(true);
        for coord in 0..self.slots.len() as u32 {
            let cluster = Rc::clone(self);
            let epoch = self.slots[coord as usize].epoch.get();
            spawn(async move { cluster.heartbeat_loop(coord, epoch).await });
        }
        let cluster = Rc::clone(self);
        spawn(async move {
            loop {
                sleep(SUPERVISOR_INTERVAL).await;
                if cluster.stopped.get() {
                    return;
                }
                cluster.supervise_once().await;
            }
        });
        if let Some(reaper) = self.config.session_reaper {
            let cluster = Rc::clone(self);
            spawn(async move {
                loop {
                    sleep(reaper.interval).await;
                    if cluster.stopped.get() {
                        return;
                    }
                    cluster.reap_idle_sessions_once(reaper.idle_for);
                }
            });
        }
    }

    /// One coordinator instance's lease-renewal loop (generation-scoped: a
    /// restarted slot spawns a fresh loop with its new epoch and this one
    /// exits). Renewals ride the simulated network to the control node, so a
    /// partitioned coordinator's renewal stalls and its lease lapses — the
    /// split-brain entry point the fencing machinery exists for.
    async fn heartbeat_loop(self: Rc<Self>, coord: u32, epoch: u64) {
        let dm = NodeId::middleware(coord);
        let control = NodeId::control(0);
        let interval = self.membership.config().heartbeat_interval;
        loop {
            sleep(interval).await;
            let stale = self.slots[coord as usize].epoch.get() != epoch;
            if self.stopped.get() || stale || self.slots[coord as usize].middleware().is_crashed() {
                return;
            }
            self.net.transfer(dm, control).await;
            if self.slots[coord as usize].middleware().is_crashed()
                || self.slots[coord as usize].epoch.get() != epoch
            {
                return; // died or was replaced while the renewal was in flight
            }
            if self.membership.renew(coord, epoch).is_err() {
                // Fenced or declared dead: this instance must stop claiming
                // liveness (and its epoch is already rejected everywhere).
                return;
            }
            self.net.transfer(control, dm).await;
        }
    }

    /// One supervisor scan: lapse overdue leases, notice crashed processes,
    /// fence and adopt every dead slot that has not been adopted yet.
    /// A slot that died while *nobody* was left to adopt it (the whole tier
    /// down) is retried on every scan — its commit log is still unfenced —
    /// so the first coordinator to restart adopts the rest of the cold tier.
    /// Returns the takeovers performed.
    pub async fn supervise_once(&self) -> Vec<TakeoverReport> {
        self.membership.expire_stale();
        for coord in 0..self.slots.len() as u32 {
            if self.slots[coord as usize].middleware().is_crashed()
                && self.membership.is_alive(coord)
            {
                self.membership.declare_dead(coord);
            }
        }
        let mut reports = Vec::new();
        for dead in 0..self.slots.len() as u32 {
            if self.membership.is_alive(dead) {
                continue;
            }
            let slot = &self.slots[dead as usize];
            if slot.commit_log.min_epoch() > slot.epoch.get() {
                continue; // already fenced + adopted at this incarnation
            }
            let Some(by) = self.adopter() else {
                continue; // nobody left to adopt; retried next scan / recover_all
            };
            reports.push(self.take_over(dead, by).await);
        }
        reports
    }

    /// Fence coordinator `dead` and let `by` adopt its in-doubt branches.
    ///
    /// Order matters: the commit log is sealed *before* it is read, so the
    /// dead peer cannot slip in a decision after adoption resolved the
    /// branches; the data sources are fenced *before* the scoped disconnect
    /// and the adoption, so a stale dispatch cannot land between them.
    ///
    /// A slot an earlier takeover already fenced at its current incarnation
    /// skips the fence broadcast and only re-runs the (idempotent) adoption,
    /// for branches a then-crashed data source has since recovered from its
    /// WAL; that does not count as a takeover.
    pub async fn take_over(&self, dead: u32, by: u32) -> TakeoverReport {
        assert_ne!(dead, by, "a coordinator cannot adopt itself");
        let slot = &self.slots[dead as usize];
        let dead_log = Rc::clone(&slot.commit_log);
        let already_fenced = dead_log.min_epoch() > slot.epoch.get();
        let (fencing_epoch, unprepared_aborted) = if already_fenced {
            (dead_log.min_epoch(), 0)
        } else {
            let fencing_epoch = self.membership.fence(dead);
            // 1. Seal the dead peer's commit log (shared durable storage).
            dead_log.fence(fencing_epoch);

            // 2. Broadcast the fence + scoped disconnect handling to every
            //    data source, in parallel. The fence is durable XA metadata
            //    on the source (it survives a source crash alongside the
            //    prepared branches it protects), so it is installed even on
            //    a currently crashed source. The scoped abort only runs on
            //    live engines — a crashed engine's unprepared branches die
            //    with it anyway. It runs right after each source's own
            //    fence, not as `Middleware::abort_unprepared`'s sequential
            //    pass afterwards: that would reorder it against in-flight
            //    work and move the pinned takeover fingerprints.
            let dead_node = NodeId::middleware(dead);
            let by_node = NodeId::middleware(by);
            let unprepared_counts = join_all(
                self.sources
                    .iter()
                    .map(|ds| {
                        let ds = Rc::clone(ds);
                        let net = Rc::clone(&self.net);
                        async move {
                            net.transfer(by_node, ds.node()).await;
                            ds.fence_coordinator(dead_node, fencing_epoch);
                            let aborted = if ds.is_crashed() {
                                0
                            } else {
                                ds.abort_unprepared_of(dead).await.len()
                            };
                            net.transfer(ds.node(), by_node).await;
                            aborted
                        }
                    })
                    .collect(),
            )
            .await;
            (fencing_epoch, unprepared_counts.iter().sum())
        };

        // 3. Adopt: XA RECOVER scoped to the dead gtrid space, decisions from
        //    the sealed log, driven over the survivor's (live-epoch)
        //    connections.
        let (adopted_committed, adopted_aborted) = self.slots[by as usize]
            .middleware()
            .recover_owned_by(dead, &dead_log)
            .await;

        if !already_fenced {
            self.takeovers.set(self.takeovers.get() + 1);
            geotp_telemetry::counter_add("cluster.takeovers", "", by, 1);
            geotp_telemetry::gauge_set("cluster.epoch", "", dead, fencing_epoch as i64);
        }
        TakeoverReport {
            dead,
            by,
            fencing_epoch,
            adopted_committed,
            adopted_aborted,
            unprepared_aborted,
        }
    }

    /// The coordinator that adopts dead slots: the first live one whose
    /// process is up, if any.
    fn adopter(&self) -> Option<u32> {
        self.membership
            .live_coordinators()
            .into_iter()
            .find(|&c| !self.slots[c as usize].middleware().is_crashed())
    }

    /// Final recovery pass (after every fault healed): every live coordinator
    /// recovers its own gtrid space, then any still-dead slot that was never
    /// adopted (e.g. every peer was down at the time) is adopted now by the
    /// first live coordinator. Returns `(committed, aborted)` branch totals.
    pub async fn recover_all(&self) -> (usize, usize) {
        // A crashed process the (possibly stopped) supervisor never got to:
        // declare it dead now so the adoption sweep below covers it.
        for coord in 0..self.slots.len() as u32 {
            if self.slots[coord as usize].middleware().is_crashed() {
                self.membership.declare_dead(coord);
            }
        }
        let mut committed = 0;
        let mut aborted = 0;
        for coord in 0..self.slots.len() as u32 {
            let slot = &self.slots[coord as usize];
            let middleware = slot.middleware();
            if self.membership.is_alive(coord) && !middleware.is_crashed() {
                let (c, a) = middleware.recover().await;
                committed += c;
                aborted += a;
            }
        }
        for dead in 0..self.slots.len() as u32 {
            if self.membership.is_alive(dead) {
                continue;
            }
            let Some(by) = self.adopter() else {
                break;
            };
            let report = self.take_over(dead, by).await;
            committed += report.adopted_committed;
            aborted += report.adopted_aborted;
        }
        (committed, aborted)
    }
}

// ---------------------------------------------------------------------------
// Session front door (the interactive client API, tier edition).
//
// Sessions are *durable routing entities* here: the consistent-hash router
// pins each session to a coordinator while it lives (affinity), re-homes it
// to a survivor when that coordinator dies, and moves it back when its home
// slot re-registers. A live transaction is pinned to the coordinator its
// `begin` was routed to; a takeover mid-transaction surfaces as a
// *retryable* abort on the handle, and the session's next `begin` re-routes.
// ---------------------------------------------------------------------------

impl CoordinatorCluster {
    /// Open a session on this tier.
    pub fn connect(self: &Rc<Self>, session_id: u64) -> Session {
        SessionService::connect(self, session_id)
    }
}

/// The tier routes and admits each `begin`, then begins directly on the
/// routed slot's middleware and hands out that middleware's own handle
/// (holding the worker permit). Which coordinator a session is pinned to is
/// the router's knowledge: `cluster.router().route(session_id)`.
impl SessionService for CoordinatorCluster {
    fn begin(
        self: Rc<Self>,
        session: u64,
    ) -> BoxFuture<'static, Result<Box<dyn TxnHandle>, TxnError>> {
        Box::pin(async move {
            let begin_started = now();
            // Route (affinity, else the first live coordinator clockwise).
            let Some(coordinator) = self.router.route(session) else {
                return Err(TxnError::refused()); // nobody alive; back off + retry
            };
            let slot = &self.slots[coordinator as usize];
            let enqueued = now();
            let ticket = match slot.admission.admit().await {
                Ok(ticket) => ticket,
                Err(reject) => {
                    return Err(if reject.reason == ShedReason::Closed {
                        TxnError::refused()
                    } else {
                        // Explicit load shed: overloaded, back off for the
                        // hinted duration and retry.
                        TxnError::overloaded(reject.retry_after)
                    });
                }
            };
            let middleware = slot.middleware();
            // Every begin (re-)registers the session, so a session the reaper
            // evicted reconnects transparently. A crashed coordinator not yet
            // declared dead refuses retryably; the session re-routes once the
            // supervisor notices.
            middleware.register_session(session);
            // The wait for a worker permit is part of the client's observed
            // begin latency.
            let handle = middleware
                .begin_session(session, None, ticket.permit, ticket.queue_time)
                .await?;
            if geotp_telemetry::enabled() && handle.gtrid() != 0 {
                // Backdate the front-door segments into the trace now that
                // the transaction has an id: the full session begin, and the
                // admission-queue wait inside it.
                let dm = geotp_telemetry::TraceNode::middleware(coordinator);
                geotp_telemetry::span_leaf_window(
                    handle.gtrid(),
                    dm,
                    geotp_telemetry::SpanKind::SessionBegin,
                    session,
                    begin_started,
                    now(),
                );
                if !ticket.queue_time.is_zero() {
                    geotp_telemetry::span_leaf_window(
                        handle.gtrid(),
                        dm,
                        geotp_telemetry::SpanKind::Admission,
                        0,
                        enqueued,
                        geotp_simrt::SimInstant::from_micros(
                            enqueued.as_micros() + ticket.queue_time.as_micros() as u64,
                        ),
                    );
                }
            }
            Ok(handle)
        })
    }

    fn label(&self) -> String {
        format!(
            "{} tier x{}",
            self.config.protocol.name(),
            self.config.coordinators
        )
    }
}
