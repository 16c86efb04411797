//! Session semantics through the tier's front door: mid-transaction
//! coordinator takeover (in-flight `Txn` aborts with a *retryable* error,
//! the session re-routes, the retry commits), session affinity surviving a
//! rebalance, and the capacity gate holding for a transaction's lifetime.

use std::rc::Rc;
use std::time::Duration;

use geotp_cluster::{build_tier, ClusterConfig, CoordinatorCluster, TierLayout};
use geotp_middleware::{AbortReason, ClientOp, GlobalKey, Partitioner, Protocol, TransactionSpec};
use geotp_simrt::Runtime;
use geotp_storage::{CostModel, EngineConfig, Row, TableId};

const ROWS_PER_NODE: u64 = 100;

fn gk(row: u64) -> GlobalKey {
    GlobalKey::new(TableId(0), row)
}

fn build(coordinators: usize) -> Rc<CoordinatorCluster> {
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
    CoordinatorCluster::build(config, net, &sources)
}

/// A session id routed to the given coordinator on a healthy tier.
fn session_on(cluster: &Rc<CoordinatorCluster>, coordinator: u32) -> u64 {
    (0..)
        .find(|s| cluster.router().route(*s) == Some(coordinator))
        .expect("some session hashes to every coordinator")
}

#[test]
fn mid_transaction_takeover_aborts_retryably_and_the_retry_commits() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2);
        let session_id = session_on(&cluster, 1);
        let mut session = cluster.connect(session_id);

        // Round 1 lands on dm1 and holds locks on both branches.
        let mut txn = session.begin().await.unwrap();
        txn.execute(&[ClientOp::add(gk(1), -100)]).await.unwrap();
        txn.execute(&[ClientOp::add(gk(101), 100)]).await.unwrap();

        // dm1 dies mid-transaction; the supervisor fences it and dm0 adopts.
        cluster.crash(1);
        let reports = cluster.supervise_once().await;
        assert_eq!(reports.len(), 1);
        assert_eq!((reports[0].dead, reports[0].by), (1, 0));

        // The in-flight handle aborts with a *retryable* error.
        let error = txn
            .execute_last(&[ClientOp::Read(gk(2))])
            .await
            .expect_err("the coordinator died under the transaction");
        assert!(error.retryable, "takeover aborts must invite a retry");
        assert_eq!(error.reason, AbortReason::CoordinatorCrashed);
        drop(txn);

        // The session re-routes to the survivor and the retry commits.
        assert_eq!(cluster.router().route(session_id), Some(0));
        let retry = session
            .run_spec(&TransactionSpec::multi_round(vec![
                vec![ClientOp::add(gk(1), -100)],
                vec![ClientOp::add(gk(101), 100)],
            ]))
            .await;
        assert!(retry.committed, "{:?}", retry.abort_reason);
        // Atomicity across the takeover: the aborted attempt left nothing.
        assert_eq!(
            cluster.sources()[0]
                .engine()
                .peek(gk(1).storage_key())
                .unwrap()
                .int_value(),
            Some(900)
        );
        assert_eq!(
            cluster.sources()[1]
                .engine()
                .peek(gk(101).storage_key())
                .unwrap()
                .int_value(),
            Some(1100)
        );
    });
}

#[test]
fn session_affinity_survives_rebalance_and_returns_home() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(3);
        let session_id = session_on(&cluster, 1);
        let mut session = cluster.connect(session_id);
        assert!(
            session
                .run_spec(&TransactionSpec::single_round(vec![ClientOp::add(
                    gk(1),
                    1
                )]))
                .await
                .committed
        );
        assert_eq!(cluster.router().route(session_id), Some(1));

        // Home coordinator dies: the session moves to a survivor, commits
        // there, and *stays* there across transactions (affinity).
        cluster.crash(1);
        cluster.supervise_once().await;
        let moved_to = cluster.router().route(session_id).unwrap();
        assert_ne!(moved_to, 1);
        for _ in 0..3 {
            assert!(
                session
                    .run_spec(&TransactionSpec::single_round(vec![ClientOp::add(
                        gk(1),
                        1
                    )]))
                    .await
                    .committed
            );
            assert_eq!(
                cluster.router().route(session_id),
                Some(moved_to),
                "a failed-over session must not bounce between survivors"
            );
        }

        // The home slot restarts: exactly this session's home traffic moves
        // back, and the next transaction commits on the reborn coordinator.
        cluster.restart(1).await;
        assert_eq!(cluster.router().route(session_id), Some(1));
        let outcome = session
            .run_spec(&TransactionSpec::single_round(vec![ClientOp::add(
                gk(1),
                1,
            )]))
            .await;
        assert!(outcome.committed);
        assert_eq!(
            cluster.sources()[0]
                .engine()
                .peek(gk(1).storage_key())
                .unwrap()
                .int_value(),
            Some(1005)
        );
    });
}

#[test]
fn worker_permit_is_held_for_the_whole_transaction() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let ds_rtts = vec![10, 100];
        let nodes = ds_rtts.len() as u32;
        let (net, sources) = build_tier(&TierLayout {
            seed: 7,
            coordinators: 1,
            ds_rtts_ms: ds_rtts,
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
            1,
            Protocol::geotp(),
            Partitioner::Range {
                rows_per_node: ROWS_PER_NODE,
                nodes,
            },
        );
        config.analysis_cost = Duration::ZERO;
        config.log_flush_cost = Duration::ZERO;
        config.max_inflight = 1;
        let cluster = CoordinatorCluster::build(config, net, &sources);

        // Session A begins but does not conclude: it owns the only permit.
        let mut a = cluster.connect(1);
        let mut txn_a = a.begin().await.unwrap();
        txn_a.execute(&[ClientOp::add(gk(5), 1)]).await.unwrap();

        // Session B's begin queues on the capacity gate until A concludes.
        let cluster_b = Rc::clone(&cluster);
        let b = geotp_simrt::spawn(async move {
            let mut b = cluster_b.connect(2);
            b.run_spec(&TransactionSpec::single_round(vec![ClientOp::add(
                gk(6),
                1,
            )]))
            .await
        });
        geotp_simrt::sleep(Duration::from_millis(500)).await;
        assert_eq!(
            cluster.middleware(0).live_transactions(),
            1,
            "B must still be queued on the worker gate while A is live"
        );
        let outcome_a = txn_a.commit().await;
        assert!(outcome_a.committed);
        let outcome_b = b.await;
        assert!(outcome_b.committed, "B runs once A's permit frees");
    });
}
