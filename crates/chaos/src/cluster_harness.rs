//! The multi-coordinator chaos harness: drive a workload against a
//! [`CoordinatorCluster`] under a fault schedule and check the same four
//! invariants as the single-coordinator harness.
//!
//! Differences from [`crate::harness`]:
//!
//! * the deployment is a *tier* — N coordinators over the shared data
//!   sources, each with its own commit log and gtrid space, fronted by the
//!   consistent-hash session router;
//! * nobody scripts a failover: the cluster's own lease heartbeats (over the
//!   simulated network, so partitions starve them), supervisor, fencing and
//!   peer takeover react to the schedule's crashes and partitions;
//! * clients are *sessions*: each client keeps its session id for the whole
//!   run, so failover is visible as the router re-homing the session;
//! * the durability checker resolves each gtrid against its owning
//!   coordinator's commit log, and the serializability checker consumes the
//!   engine histories exactly as before — engine-side history is coordinator
//!   -agnostic, so cross-coordinator anomalies close cycles the same way.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use geotp_cluster::{
    build_tier, AdmissionPolicy, ClusterConfig, CoordinatorCluster, MembershipConfig,
    SessionReaperConfig, TierLayout,
};
use geotp_middleware::session::RetryPolicy;
use geotp_middleware::{AbortReason, Protocol, TxnOutcome};
use geotp_simrt::{sleep, sleep_until, spawn, SimInstant};
use geotp_storage::{CostModel, EngineConfig};
use geotp_workloads::ZipfianGenerator;

use crate::harness::{mvcc_totals, ChaosConfig, ChaosReport};
use crate::injector::ScheduleInjector;
use crate::invariants;
use crate::schedule::{FaultEvent, FaultSchedule};
use crate::trace::EventTrace;
use crate::workload::{ChaosWorkload, TransferWorkload};

/// Parameters of a multi-coordinator chaos run. Wraps the single-coordinator
/// [`ChaosConfig`] (workload shape, RTTs, timeouts, horizon) and adds the
/// tier dimensions.
#[derive(Debug, Clone)]
pub struct ClusterChaosConfig {
    /// The workload/deployment knobs shared with the single-coordinator runs.
    pub base: ChaosConfig,
    /// Number of coordinator slots.
    pub coordinators: usize,
    /// Lease/heartbeat parameters (the failure-detection clock of the tier).
    pub membership: MembershipConfig,
    /// Supervisor scan cadence.
    pub supervisor_interval: Duration,
    /// Coordinator↔control-node RTT in milliseconds.
    pub control_rtt_ms: u64,
    /// Per-coordinator worker capacity (`0` = unbounded, the legacy shape).
    pub max_inflight: usize,
    /// Admission policy at each coordinator's capacity gate.
    pub admission: AdmissionPolicy,
    /// Idle-session reaper schedule (`None` = never reap).
    pub session_reaper: Option<SessionReaperConfig>,
    /// Client retry policy for transient non-starts (refused connections,
    /// overload sheds, reaped sessions). The default reproduces the legacy
    /// loop exactly — 40 attempts, flat 250 ms pauses, no RNG consumed — so
    /// existing preset traces stay bit-identical.
    pub retry: RetryPolicy,
    /// When set, the run drives a flash crowd (idle-session registration +
    /// zipfian arrival spike) instead of/alongside the per-client loops.
    pub flash_crowd: Option<FlashCrowdConfig>,
}

impl Default for ClusterChaosConfig {
    fn default() -> Self {
        Self {
            base: ChaosConfig::default(),
            coordinators: 2,
            membership: MembershipConfig {
                lease: Duration::from_millis(1_500),
                heartbeat_interval: Duration::from_millis(500),
            },
            supervisor_interval: Duration::from_millis(500),
            control_rtt_ms: 2,
            max_inflight: 0,
            admission: AdmissionPolicy::default(),
            session_reaper: None,
            retry: RetryPolicy::fixed(40, Duration::from_millis(250)),
            flash_crowd: None,
        }
    }
}

/// The flash-crowd drive: a large mostly-idle session population is
/// registered up front (router affinity + registry entries on every
/// coordinator), then a sudden open-loop arrival spike hits a zipfian hot
/// set of those sessions — typically with a coordinator failover armed
/// mid-spike and bounded admission shedding the overflow.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowdConfig {
    /// Sessions registered before the spike (the mostly-idle crowd).
    pub idle_sessions: u64,
    /// When the arrival spike starts.
    pub spike_at: Duration,
    /// How long the spike lasts.
    pub spike_duration: Duration,
    /// Spike arrival rate (open loop: arrivals do not wait for completions).
    pub spike_arrivals_per_sec: u64,
    /// Zipfian skew of the spike's session choice (item 0 hottest).
    pub zipf_theta: f64,
    /// Retry policy of each spike arrival (exponential backoff with seeded
    /// jitter — the schedule is a pure function of the run's seed).
    pub retry: RetryPolicy,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        Self {
            idle_sessions: 200_000,
            spike_at: Duration::from_secs(2),
            spike_duration: Duration::from_millis(1_500),
            spike_arrivals_per_sec: 400,
            zipf_theta: 0.9,
            retry: RetryPolicy {
                max_attempts: 6,
                base_backoff: Duration::from_millis(25),
                max_backoff: Duration::from_secs(1),
                jitter: 0.5,
            },
        }
    }
}

/// Build the simulator runtime for a cluster chaos run: coordinators,
/// control node and data sources become topology nodes, all pinned to
/// shard 0 (the tier is one `Rc`-shared object graph). `base.workers`
/// (default: the `GEOTP_WORKERS` environment variable) sets the shard
/// count; extra shards idle at the barrier without perturbing the trace.
fn cluster_runtime(config: &ClusterChaosConfig) -> geotp_simrt::Runtime {
    let mut builder = geotp_simrt::RuntimeBuilder::from_env()
        .seed(config.base.seed)
        .node("control0")
        .assign("control0", 0);
    for c in 0..config.coordinators {
        let mw = format!("mw{c}");
        builder = builder
            .link(
                "control0",
                &mw,
                Duration::from_millis(config.control_rtt_ms),
            )
            .assign(&mw, 0);
        for (i, rtt_ms) in config.base.ds_rtts_ms.iter().enumerate() {
            let ds = format!("ds{i}");
            builder = builder
                .link(&mw, &ds, Duration::from_millis(*rtt_ms))
                .assign(&ds, 0);
        }
    }
    if let Some(workers) = config.base.workers {
        builder = builder.workers(workers);
    }
    builder.build()
}

/// Run `schedule` against a fresh coordinator tier driving the balance
/// transfer workload, and return the invariant-checked, replayable report.
pub fn run_cluster_scenario(config: ClusterChaosConfig, schedule: FaultSchedule) -> ChaosReport {
    let workload = Rc::new(TransferWorkload::from_config(&config.base));
    run_cluster_scenario_with(config, schedule, workload)
}

/// Run `schedule` against a fresh coordinator tier driving an arbitrary
/// [`ChaosWorkload`] (the TPC-C mix, interactive transfers, ...): the
/// workload supplies the partitioner, the initial load, the per-client
/// transaction stream and the consistency conditions, exactly as in the
/// single-coordinator [`crate::run_scenario_with`].
pub fn run_cluster_scenario_with(
    config: ClusterChaosConfig,
    schedule: FaultSchedule,
    workload: Rc<dyn ChaosWorkload>,
) -> ChaosReport {
    let mut rt = cluster_runtime(&config);
    rt.block_on(async move {
        let trace = EventTrace::new();
        trace.record(&format!(
            "cluster scenario start: workload={} seed={} coordinators={} nodes={} clients={}x{} protocol={}",
            workload.name(),
            config.base.seed,
            config.coordinators,
            config.base.nodes(),
            config.base.clients,
            config.base.txns_per_client,
            config.base.protocol.name()
        ));

        // ---------------- deployment ----------------
        let (net, sources) = build_tier(&TierLayout {
            seed: config.base.seed,
            coordinators: config.coordinators,
            ds_rtts_ms: config.base.ds_rtts_ms.clone(),
            control_rtt_ms: config.control_rtt_ms,
            engine: EngineConfig {
                lock_wait_timeout: config.base.lock_wait_timeout,
                cost: CostModel::default(),
                // The serializability checker needs the versioned histories.
                record_history: true,
                isolation: config.base.isolation,
                group_commit_window: config.base.group_commit_window,
            },
            agent_lan_rtt: Duration::from_micros(500),
        });
        net.set_fault_injector(ScheduleInjector::compile(
            &schedule,
            config.base.seed,
            Rc::clone(&trace),
        ));
        workload.load(&sources);

        let mut tier_cfg = ClusterConfig::new(
            config.coordinators,
            config.base.protocol,
            workload.partitioner(),
        );
        tier_cfg.membership = config.membership;
        tier_cfg.supervisor_interval = config.supervisor_interval;
        tier_cfg.decision_wait_timeout = config.base.decision_wait_timeout;
        tier_cfg.record_history = true;
        tier_cfg.snapshot_reads = config.base.snapshot_reads;
        tier_cfg.seed = config.base.seed;
        tier_cfg.max_inflight = config.max_inflight;
        tier_cfg.admission = config.admission;
        tier_cfg.session_reaper = config.session_reaper;
        let cluster = CoordinatorCluster::build(tier_cfg, Rc::clone(&net), &sources);
        cluster.start();

        // ---------------- controller task ----------------
        let controller = {
            let cluster = Rc::clone(&cluster);
            let sources = sources.clone();
            let trace = Rc::clone(&trace);
            let events = schedule.node_events();
            spawn(async move {
                for event in events {
                    sleep_until(SimInstant::ZERO + event.at()).await;
                    match &event {
                        FaultEvent::CrashDataSource { ds, .. } => {
                            sources[*ds as usize].crash();
                            trace.record(&format!("crash ds{ds}"));
                        }
                        FaultEvent::RestartDataSource { ds, .. } => {
                            let recovered = sources[*ds as usize].restart().await;
                            trace.record(&format!(
                                "restart ds{ds}: {} prepared branch(es) recovered from the WAL",
                                recovered.len()
                            ));
                        }
                        FaultEvent::CrashCoordinator { dm, .. } => {
                            cluster.crash(*dm);
                            trace.record(&format!("crash coordinator dm{dm}"));
                        }
                        FaultEvent::CrashCoordinatorAfterFlush { dm, .. } => {
                            cluster.crash_after_next_flush(*dm);
                            trace.record(&format!(
                                "arm fail point: crash coordinator dm{dm} after next commit-log flush"
                            ));
                        }
                        FaultEvent::RestartCoordinator { dm, .. } => {
                            let epoch = cluster.restart(*dm).await;
                            trace.record(&format!(
                                "restart coordinator dm{dm}: successor registered at epoch {epoch}"
                            ));
                        }
                        other => {
                            trace.record(&format!(
                                "cluster harness: ignoring single-coordinator event {other:?}"
                            ));
                        }
                    }
                }
            })
        };

        // ---------------- workload (one session per client) ----------------
        let ledger: Rc<RefCell<Vec<TxnOutcome>>> = Rc::new(RefCell::new(Vec::new()));
        let refused_connections = Rc::new(std::cell::Cell::new(0u64));
        let degraded_retries = Rc::new(std::cell::Cell::new(0u64));
        let mut clients = Vec::new();
        for client in 0..config.base.clients {
            let cluster = Rc::clone(&cluster);
            let ledger = Rc::clone(&ledger);
            let refused_connections = Rc::clone(&refused_connections);
            let degraded_retries = Rc::clone(&degraded_retries);
            let workload: Rc<dyn ChaosWorkload> = Rc::clone(&workload) as _;
            let base = config.base.clone();
            let retry = config.retry;
            clients.push(spawn(async move {
                let mut rng = crate::harness::client_rng(base.seed, client);
                // One durable session per client: the router pins it to a
                // coordinator (affinity), re-homes it on takeover, and moves
                // it back when its home slot re-registers.
                let mut session = cluster.connect(client as u64);
                for txn in 0..base.txns_per_client {
                    let spec = workload.next_spec(&mut rng);
                    let crash_client = base
                        .client_crash_every
                        .is_some_and(|n| n > 0 && (txn as u64 + 1).is_multiple_of(n));
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        let Some(outcome) = crate::harness::drive_client_txn(
                            &mut session,
                            &spec,
                            base.think_time,
                            crash_client,
                        )
                        .await
                        else {
                            break; // client crashed mid-transaction on purpose
                        };
                        // Transient non-starts (gtrid 0: refused connection,
                        // overload shed, reaped session) are retried under
                        // the budget; everything that actually ran lands in
                        // the ledger.
                        let transient = outcome.is_refusal()
                            || outcome.is_overloaded()
                            || outcome.abort_reason == Some(AbortReason::SessionExpired);
                        if !transient {
                            ledger.borrow_mut().push(outcome);
                            break;
                        }
                        if outcome.is_refusal() {
                            refused_connections.set(refused_connections.get() + 1);
                        } else {
                            degraded_retries.set(degraded_retries.get() + 1);
                        }
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

        // ---------------- flash crowd (idle sessions + arrival spike) ----------------
        if let Some(fc) = config.flash_crowd {
            // Register the mostly-idle crowd up front: every session pins its
            // router affinity and lands a registry entry on its coordinator —
            // the state the reaper must keep lean.
            let mut registered = 0u64;
            for session in 0..fc.idle_sessions {
                if let Some(coord) = cluster.router().route(session) {
                    cluster.middleware(coord).register_session(session);
                    registered += 1;
                }
            }
            trace.record(&format!(
                "flash crowd: {registered} idle session(s) registered, spike {}/s for {:?} at {:?}",
                fc.spike_arrivals_per_sec, fc.spike_duration, fc.spike_at
            ));
            let arrivals = (fc.spike_duration.as_micros() as u64 * fc.spike_arrivals_per_sec
                / 1_000_000)
                .max(1);
            let interval_micros =
                (fc.spike_duration.as_micros() as u64 / arrivals).max(1);
            let zipf = Rc::new(ZipfianGenerator::new(fc.idle_sessions, fc.zipf_theta));
            for arrival in 0..arrivals {
                let cluster = Rc::clone(&cluster);
                let ledger = Rc::clone(&ledger);
                let refused_connections = Rc::clone(&refused_connections);
                let degraded_retries = Rc::clone(&degraded_retries);
                let workload: Rc<dyn ChaosWorkload> = Rc::clone(&workload) as _;
                let zipf = Rc::clone(&zipf);
                let seed = config.base.seed;
                clients.push(spawn(async move {
                    let at = SimInstant::ZERO
                        + fc.spike_at
                        + Duration::from_micros(arrival * interval_micros);
                    sleep_until(at).await;
                    // Each arrival gets its own derived RNG stream: the whole
                    // spike (session choice, spec, backoff jitter) is a pure
                    // function of the run's seed.
                    let mut rng =
                        crate::harness::client_rng(seed, 0x0f1a_5000 + arrival as usize);
                    let session_id = zipf.next(&mut rng);
                    let spec = workload.next_spec(&mut rng);
                    let mut session = cluster.connect(session_id);
                    let retried = session
                        .run_spec_with_retries(&spec, Duration::ZERO, fc.retry, &mut rng)
                        .await;
                    let outcome = retried.outcome;
                    let transient = outcome.is_refusal()
                        || outcome.is_overloaded()
                        || outcome.abort_reason == Some(AbortReason::SessionExpired);
                    if transient {
                        // Budget exhausted without ever starting a
                        // transaction: shed load, not an abort.
                        if outcome.is_refusal() {
                            refused_connections.set(refused_connections.get() + 1);
                        } else {
                            degraded_retries.set(degraded_retries.get() + 1);
                        }
                    } else {
                        ledger.borrow_mut().push(outcome);
                    }
                }));
            }
        }

        // ---------------- drain, bounded by the liveness horizon ----------------
        let drained = geotp_simrt::timeout(config.base.horizon, async {
            for client in clients {
                client.await;
            }
            controller.await;
            // Let lease expiry, takeover and deferred decisions settle: the
            // tier needs a lease + a supervisor scan to notice a death, plus
            // the decision-wait tail of in-flight transactions.
            sleep(
                config.membership.lease
                    + config.supervisor_interval * 2
                    + config.base.decision_wait_timeout * 2
                    + Duration::from_secs(1),
            )
            .await;
        })
        .await;
        let workload_drained = drained.is_ok();
        trace.record(&format!("workload drained within horizon: {workload_drained}"));

        // ---------------- heal everything, resolve in-doubt state ----------------
        cluster.stop();
        net.clear_fault_injector();
        for ds in &sources {
            if ds.is_crashed() {
                let recovered = ds.restart().await;
                trace.record(&format!(
                    "final heal: restart ds{} ({} prepared branch(es) recovered)",
                    ds.index(),
                    recovered.len()
                ));
            }
        }
        let (rec_committed, rec_aborted) = cluster.recover_all().await;
        trace.record(&format!(
            "final recovery pass: {rec_committed} committed / {rec_aborted} aborted branch(es); \
             takeovers so far: {}",
            cluster.takeover_count()
        ));

        // ---------------- tally + invariants ----------------
        let ledger = ledger.borrow();
        let committed = ledger.iter().filter(|o| o.committed).count() as u64;
        let indeterminate = ledger
            .iter()
            .filter(|o| o.gtrid != 0 && o.abort_reason == Some(AbortReason::CoordinatorCrashed))
            .count() as u64;
        let aborted = ledger.len() as u64 - committed - indeterminate;
        if refused_connections.get() > 0 {
            trace.record(&format!(
                "router/coordinators refused {} connection attempt(s)",
                refused_connections.get()
            ));
        }
        if degraded_retries.get() > 0 || cluster.shed_count() > 0 || cluster.reaped_sessions() > 0 {
            trace.record(&format!(
                "degradation: {} transient non-start(s) (shed/expired) seen by clients, \
                 {} begin(s) shed by admission, {} idle session(s) reaped",
                degraded_retries.get(),
                cluster.shed_count(),
                cluster.reaped_sessions()
            ));
        }

        let mut invariants = invariants::check(
            &sources,
            || workload.consistency_violations(&sources),
            &ledger,
            |gtrid| cluster.decision(gtrid),
            workload_drained,
        );
        // Traced runs also get the trace oracle (fifth checker); its verdict
        // stays out of the event trace so fingerprints remain byte-identical
        // between traced and untraced replays.
        if let Some(telemetry) = geotp_telemetry::installed() {
            invariants::trace::apply_with(
                &mut invariants,
                &telemetry,
                &sources,
                &ledger,
                &config.base.trace_rules,
            );
        }
        trace.record(&format!(
            "summary: committed={committed} aborted={aborted} indeterminate={indeterminate} \
             takeovers={}",
            cluster.takeover_count()
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
            mvcc: mvcc_totals(&sources),
        }
    })
}

/// Named multi-coordinator failure presets — the drills the single
/// -coordinator catalog could not express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterScenario {
    /// A coordinator crashes mid-traffic (half of it inside the §V-A window:
    /// decision durable, never dispatched). The supervisor must detect the
    /// death, fence the epoch and have a peer adopt every in-doubt branch
    /// while the dead coordinator's sessions fail over.
    CoordinatorCrashTakeover,
    /// Split brain: a coordinator is partitioned from the membership service
    /// (but not from the data sources!), its lease lapses, the cluster
    /// declares it dead and fences it — while the process keeps serving its
    /// sessions. Every decision it issues from the stale epoch must be
    /// rejected by the sealed commit log and by every data source.
    CoordinatorPartition,
    /// A coordinator loses a subset of the data sources across the commit
    /// window (its lease stays healthy): transactions stall, decision-wait
    /// timeouts fire, and everything must drain once the partition heals —
    /// with the other coordinator's traffic unaffected throughout.
    CoordinatorSourcePartition,
    /// *Both* coordinators die mid-traffic (one inside the §V-A window) and
    /// the tier must recover **from cold**: while everyone is down nobody can
    /// adopt anybody, clients see only refusals, and in-doubt branches wait.
    /// Staggered restarts then bring successors up at fresh epochs over the
    /// shared commit logs — the first one back recovers its own gtrid space
    /// and (via the supervisor's retry of never-adopted dead slots) fences
    /// and adopts its still-dead peer; the router re-homes sessions both
    /// ways. Everything must drain and the four invariants must hold.
    DualCoordinatorCrash,
    /// Flash crowd: 200k mostly-idle registered sessions, then a sudden
    /// open-loop arrival spike on a zipfian hot set of them — with bounded
    /// admission (queue 64, 250 ms queue deadline) shedding the overflow,
    /// session-level retry budgets backing the arrivals off, the idle-session
    /// reaper keeping the registries lean, and a coordinator crash-after-
    /// flush armed *mid-spike* so takeover happens under overload.
    FlashCrowd,
}

impl ClusterScenario {
    /// Every cluster preset, in a stable order.
    pub fn all() -> [ClusterScenario; 5] {
        [
            ClusterScenario::CoordinatorCrashTakeover,
            ClusterScenario::CoordinatorPartition,
            ClusterScenario::CoordinatorSourcePartition,
            ClusterScenario::DualCoordinatorCrash,
            ClusterScenario::FlashCrowd,
        ]
    }

    /// Stable identifier used in tables, trace files and CI output.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterScenario::CoordinatorCrashTakeover => "coordinator_crash_takeover",
            ClusterScenario::CoordinatorPartition => "coordinator_partition",
            ClusterScenario::CoordinatorSourcePartition => "coordinator_source_partition",
            ClusterScenario::DualCoordinatorCrash => "dual_coordinator_cold_restart",
            ClusterScenario::FlashCrowd => "flash_crowd",
        }
    }

    /// The preset's configuration and schedule for a given seed: a
    /// 2-coordinator tier over the default 3 data sources.
    pub fn build(&self, seed: u64) -> (ClusterChaosConfig, FaultSchedule) {
        let mut config = ClusterChaosConfig {
            base: ChaosConfig {
                seed,
                // Distributed transfers everywhere: cross-coordinator fencing
                // and adoption only bite on 2PC transactions.
                distributed_ratio: 1.0,
                // Enough sessions that the consistent-hash ring puts real
                // traffic on every coordinator (sessions = clients, and the
                // ring is seed-independent).
                clients: 8,
                txns_per_client: 15,
                protocol: Protocol::geotp(),
                ..ChaosConfig::default()
            },
            ..ClusterChaosConfig::default()
        };
        let s = Duration::from_secs;
        let ms = Duration::from_millis;
        let schedule = match self {
            ClusterScenario::CoordinatorCrashTakeover => {
                FaultSchedule::new().with(FaultEvent::CrashCoordinatorAfterFlush {
                    at: ms(2_500),
                    dm: 1,
                })
            }
            ClusterScenario::CoordinatorPartition => FaultSchedule::new().with(
                // dm1 can still reach every data source — only the control
                // plane is gone. The lease (1.5 s) lapses inside the window.
                FaultEvent::Partition {
                    at: s(2),
                    until: s(8),
                    a: geotp_net::NodeId::middleware(1),
                    b: geotp_net::NodeId::control(0),
                },
            ),
            ClusterScenario::CoordinatorSourcePartition => {
                FaultSchedule::new().with(FaultEvent::Partition {
                    at: s(2),
                    until: s(6),
                    a: geotp_net::NodeId::middleware(1),
                    b: geotp_net::NodeId::data_source(2),
                })
            }
            ClusterScenario::DualCoordinatorCrash => FaultSchedule::new()
                .with(FaultEvent::CrashCoordinatorAfterFlush {
                    at: ms(2_000),
                    dm: 0,
                })
                .with(FaultEvent::CrashCoordinator {
                    at: ms(2_400),
                    dm: 1,
                })
                .with(FaultEvent::RestartCoordinator { at: s(6), dm: 0 })
                .with(FaultEvent::RestartCoordinator { at: s(9), dm: 1 }),
            ClusterScenario::FlashCrowd => {
                // No per-client loops: the spike *is* the workload. Bounded
                // admission per coordinator, reaper keeping the 200k-session
                // registries lean, takeover armed mid-spike (spike runs
                // 2.0 s – 3.5 s; the crash lands ~2.6 s, inside it).
                config.base.clients = 0;
                config.base.txns_per_client = 0;
                config.max_inflight = 32;
                config.admission = AdmissionPolicy::bounded(64, ms(250));
                config.session_reaper = Some(SessionReaperConfig {
                    interval: ms(500),
                    idle_for: s(5),
                });
                config.flash_crowd = Some(FlashCrowdConfig::default());
                FaultSchedule::new().with(FaultEvent::CrashCoordinatorAfterFlush {
                    at: ms(2_600),
                    dm: 1,
                })
            }
        };
        (config, schedule)
    }

    /// Build and run this preset under `seed`.
    pub fn run(&self, seed: u64) -> ChaosReport {
        let (config, schedule) = self.build(seed);
        run_cluster_scenario(config, schedule)
    }

    /// Build and run this preset's *deployment and schedule* under `seed`,
    /// but drive `workload` instead of the default balance transfers — e.g.
    /// the TPC-C mix at drill scale with a takeover mid-`NewOrder`.
    pub fn run_with(&self, seed: u64, workload: Rc<dyn ChaosWorkload>) -> ChaosReport {
        let (config, schedule) = self.build(seed);
        run_cluster_scenario_with(config, schedule, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_preset_names_are_unique_and_stable() {
        let names: Vec<&str> = ClusterScenario::all().iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn cluster_schedules_heal_before_the_horizon() {
        for preset in ClusterScenario::all() {
            let (config, schedule) = preset.build(1);
            assert!(
                schedule.last_fault_instant()
                    + config.membership.lease
                    + config.base.decision_wait_timeout * 2
                    < config.base.horizon,
                "{}: faults must heal comfortably before the horizon",
                preset.name()
            );
        }
    }
}
