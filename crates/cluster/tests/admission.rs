//! Graceful degradation through the tier's front door: bounded-queue
//! admission (shed vs queue vs deadline-expiry), queue time landing in the
//! latency breakdown, deterministic retry backoff with budget exhaustion,
//! and the idle-session reaper's clean-retry contract.

use std::rc::Rc;
use std::time::Duration;

use geotp_cluster::{
    build_tier, AdmissionPolicy, ClusterConfig, CoordinatorCluster, SessionReaperConfig, TierLayout,
};
use geotp_middleware::session::{RetryPolicy, SessionService};
use geotp_middleware::{AbortReason, ClientOp, GlobalKey, Partitioner, Protocol, TransactionSpec};
use geotp_simrt::Runtime;
use geotp_storage::{CostModel, EngineConfig, Row, TableId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS_PER_NODE: u64 = 100;

/// `Txn` carries no `Debug` impl, so unwrap the error arm by hand.
macro_rules! expect_begin_err {
    ($begin:expr, $msg:literal) => {
        match $begin {
            Err(error) => error,
            Ok(_) => panic!($msg),
        }
    };
}

fn gk(row: u64) -> GlobalKey {
    GlobalKey::new(TableId(0), row)
}

fn transfer(row: u64) -> TransactionSpec {
    TransactionSpec::single_round(vec![ClientOp::add(gk(row), 1)])
}

fn build_with(
    coordinators: usize,
    configure: impl FnOnce(&mut ClusterConfig),
) -> Rc<CoordinatorCluster> {
    let ds_rtts_ms = vec![10, 100];
    let nodes = ds_rtts_ms.len() as u32;
    let (net, sources) = build_tier(&TierLayout {
        seed: 7,
        coordinators,
        ds_rtts_ms,
        control_rtt_ms: 2,
        engine: EngineConfig {
            lock_wait_timeout: Duration::from_secs(2),
            cost: CostModel::zero(),
            record_history: false,
            ..EngineConfig::default()
        },
        agent_lan_rtt: Duration::ZERO,
    });
    for ds in &sources {
        for row in 0..ROWS_PER_NODE {
            let global = ds.index() as u64 * ROWS_PER_NODE + row;
            ds.load(gk(global).storage_key(), Row::int(1_000));
        }
    }
    let mut config = ClusterConfig::new(
        coordinators,
        Protocol::geotp(),
        Partitioner::Range {
            rows_per_node: ROWS_PER_NODE,
            nodes,
        },
    );
    config.analysis_cost = Duration::ZERO;
    config.log_flush_cost = Duration::ZERO;
    configure(&mut config);
    CoordinatorCluster::build(config, net, &sources)
}

#[test]
fn full_queue_sheds_begin_with_overloaded_and_retry_hint() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build_with(1, |config| {
            config.max_inflight = 1;
            config.admission = AdmissionPolicy::bounded(0, Duration::from_millis(250));
        });
        // A holds the only worker permit.
        let mut a = cluster.connect(1);
        let mut txn_a = a.begin().await.unwrap();
        txn_a.execute(&[ClientOp::add(gk(5), 1)]).await.unwrap();

        // With a zero-length queue, B is shed instantly — an explicit,
        // retryable overload with a retry-after hint, not a hang.
        let mut b = cluster.connect(2);
        let error = expect_begin_err!(b.begin().await, "queue of 0 must shed");
        assert_eq!(error.reason, AbortReason::Overloaded);
        assert!(error.retryable);
        assert!(error.outcome.retry_after.unwrap() >= Duration::from_millis(50));
        assert_eq!(error.outcome.gtrid, 0, "no transaction ever started");
        assert_eq!(cluster.load(0).shed_queue_full, 1);
        assert_eq!(cluster.shed_count(), 1);

        let outcome = txn_a.commit().await;
        assert!(outcome.committed);
        // Capacity freed: B's next begin is admitted on the fast path.
        let retry = b.run_spec(&transfer(6)).await;
        assert!(retry.committed);
    });
}

#[test]
fn queue_deadline_expiry_sheds_while_a_freed_permit_admits_fifo() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build_with(1, |config| {
            config.max_inflight = 1;
            config.admission = AdmissionPolicy::bounded(8, Duration::from_millis(150));
        });
        let mut a = cluster.connect(1);
        let mut txn_a = a.begin().await.unwrap();
        txn_a.execute(&[ClientOp::add(gk(5), 1)]).await.unwrap();

        // B queues; its 150ms queue-time deadline expires before A concludes.
        let cluster_b = Rc::clone(&cluster);
        let b = geotp_simrt::spawn(async move {
            let started = geotp_simrt::now();
            let mut b = cluster_b.connect(2);
            let error = expect_begin_err!(b.begin().await, "deadline must expire");
            (error, geotp_simrt::now().duration_since(started))
        });
        let (error, waited) = b.await;
        assert_eq!(error.reason, AbortReason::Overloaded);
        assert_eq!(
            waited,
            Duration::from_millis(150),
            "shed exactly at the deadline"
        );
        assert_eq!(cluster.load(0).shed_deadline, 1);

        // C queues and A concludes within C's deadline: C is admitted and
        // the wait shows up as queue_time in its breakdown and latency.
        let cluster_c = Rc::clone(&cluster);
        let c = geotp_simrt::spawn(async move {
            let mut c = cluster_c.connect(3);
            c.run_spec(&transfer(6)).await
        });
        geotp_simrt::sleep(Duration::from_millis(50)).await;
        assert_eq!(cluster.load(0).queue_depth, 1, "C is queued");
        let outcome_a = txn_a.commit().await;
        assert!(outcome_a.committed);
        let outcome_c = c.await;
        assert!(outcome_c.committed);
        assert!(
            outcome_c.breakdown.queue_time >= Duration::from_millis(50),
            "queue wait must land in the breakdown, got {:?}",
            outcome_c.breakdown.queue_time
        );
        assert!(
            outcome_c.latency >= outcome_c.breakdown.queue_time,
            "end-to-end latency includes the queue wait"
        );
    });
}

#[test]
fn retry_budget_exhaustion_surfaces_the_original_abort_reason() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build_with(1, |config| {
            config.max_inflight = 1;
            config.admission = AdmissionPolicy::bounded(0, Duration::from_millis(250));
        });
        // Park a transaction on the only permit for the whole test.
        let mut a = cluster.connect(1);
        let mut txn_a = a.begin().await.unwrap();
        txn_a.execute(&[ClientOp::add(gk(5), 1)]).await.unwrap();

        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(99);
        let mut b = cluster.connect(2);
        let started = geotp_simrt::now();
        let retried = b
            .run_spec_with_retries(&transfer(6), Duration::ZERO, policy, &mut rng)
            .await;
        assert_eq!(retried.attempts, 3, "budget fully spent");
        assert_eq!(
            retried.outcome.abort_reason,
            Some(AbortReason::Overloaded),
            "exhaustion surfaces the original abort reason"
        );
        assert!(!retried.outcome.committed);
        assert_eq!(
            geotp_simrt::now().duration_since(started),
            retried.backoff,
            "sheds are instant: all elapsed time is backoff"
        );
        // The backoff honoured the shed's retry-after hint (>= 50ms each).
        assert!(retried.backoff >= Duration::from_millis(100));
        assert_eq!(cluster.shed_count(), 3);
        drop(txn_a);
    });
}

#[test]
fn backoff_schedule_is_deterministic_per_seed() {
    let policy = RetryPolicy::default();
    let schedule = |seed: u64| -> Vec<Duration> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..6)
            .map(|retry| policy.backoff(retry, &mut rng))
            .collect()
    };
    assert_eq!(schedule(42), schedule(42), "same seed, same schedule");
    assert_ne!(schedule(42), schedule(43), "jitter depends on the seed");
    // Exponential shape survives the jitter (jitter 0.5 => factor in
    // [0.75, 1.25), while the base doubles every retry).
    let s = schedule(7);
    for (i, pause) in s.iter().enumerate() {
        let raw = policy.base_backoff * 2u32.pow(i as u32);
        let raw = raw.min(policy.max_backoff);
        assert!(*pause >= raw.mul_f64(0.75) && *pause < raw.mul_f64(1.25));
    }
    // A fixed policy consumes no RNG and never varies.
    let fixed = RetryPolicy::fixed(40, Duration::from_millis(250));
    let mut rng = StdRng::seed_from_u64(1);
    for retry in 0..5 {
        assert_eq!(fixed.backoff(retry, &mut rng), Duration::from_millis(250));
    }
}

#[test]
fn reaped_session_gets_clean_retryable_error_and_reconnect_recovers() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build_with(1, |_| {});
        let middleware = cluster.middleware(0);

        // A middleware-level session (registered once at connect): after the
        // reaper evicts it, its next begin fails *cleanly* and retryably.
        let service = Rc::clone(&middleware);
        let mut session = service.connect(7);
        assert!(session.run_spec(&transfer(3)).await.committed);
        geotp_simrt::sleep(Duration::from_secs(60)).await;
        let reaped = middleware.reap_idle_sessions(Duration::from_secs(30));
        assert_eq!(reaped, vec![7]);
        assert_eq!(middleware.active_sessions(), 0);
        let error = expect_begin_err!(session.begin().await, "session was reaped");
        assert_eq!(error.reason, AbortReason::SessionExpired);
        assert!(error.retryable, "a reaped session invites a clean retry");
        assert_eq!(error.outcome.gtrid, 0);
        // Reconnecting re-registers the session and the retry commits.
        let mut session = service.connect(7);
        assert!(session.run_spec(&transfer(3)).await.committed);

        // A session with a live transaction is never reaped (session 7 is
        // idle again by now and goes; busy session 8 stays).
        let mut busy = service.connect(8);
        let txn = busy.begin().await.unwrap();
        geotp_simrt::sleep(Duration::from_secs(60)).await;
        let reaped = middleware.reap_idle_sessions(Duration::from_secs(30));
        assert!(!reaped.contains(&8), "in-flight sessions are not reaped");
        assert_eq!(middleware.active_sessions(), 1);
        drop(txn);
    });
}

#[test]
fn cluster_reaper_task_keeps_registry_lean_and_begin_recovers_transparently() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build_with(2, |config| {
            config.session_reaper = Some(SessionReaperConfig {
                interval: Duration::from_millis(500),
                idle_for: Duration::from_secs(2),
            });
        });
        cluster.start();

        // A burst of sessions each runs one transaction, then goes idle.
        let mut sessions = Vec::new();
        for id in 0..32u64 {
            let mut session = cluster.connect(id);
            assert!(session.run_spec(&transfer(id % 90)).await.committed);
            sessions.push(session);
        }
        let registered: usize = (0..2)
            .map(|c| cluster.middleware(c).active_sessions())
            .sum();
        assert_eq!(registered, 32);
        assert_eq!(cluster.router().affinity_len(), 32);

        // Idle long enough for the reaper task to evict all of them.
        geotp_simrt::sleep(Duration::from_secs(5)).await;
        assert_eq!(cluster.reaped_sessions(), 32);
        let registered: usize = (0..2)
            .map(|c| cluster.middleware(c).active_sessions())
            .sum();
        assert_eq!(registered, 0, "registries drained");
        assert_eq!(cluster.router().affinity_len(), 0, "affinity drained");

        // The cluster front door reconnects per begin, so a reaped session's
        // next transaction just works — no client-visible error.
        assert!(sessions[5].run_spec(&transfer(17)).await.committed);

        cluster.stop();
        geotp_simrt::sleep(Duration::from_secs(2)).await;
    });
}
