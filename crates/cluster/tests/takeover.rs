//! End-to-end tier tests: crash takeover, epoch fencing (both orders) and
//! open-loop scale-out.

use std::rc::Rc;
use std::time::Duration;

use geotp_cluster::{
    build_tier, run_open_loop, ClusterConfig, CoordinatorCluster, OpenLoopConfig, TierLayout,
};
use geotp_datasource::{DsConnection, DsOperation, StatementRequest};
use geotp_middleware::{ClientOp, GlobalKey, Partitioner, Protocol, TransactionSpec};
use geotp_net::NodeId;
use geotp_simrt::Runtime;
use geotp_storage::{CostModel, EngineConfig, Row, StorageError, TableId, Xid};
use rand::Rng;

const ROWS_PER_NODE: u64 = 100;

fn gk(row: u64) -> GlobalKey {
    GlobalKey::new(TableId(0), row)
}

fn layout(coordinators: usize, ds_rtts_ms: Vec<u64>) -> TierLayout {
    TierLayout {
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
    }
}

fn build(coordinators: usize, ds_rtts_ms: Vec<u64>) -> Rc<CoordinatorCluster> {
    let nodes = ds_rtts_ms.len() as u32;
    let (net, sources) = build_tier(&layout(coordinators, ds_rtts_ms));
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

fn transfer_spec() -> TransactionSpec {
    TransactionSpec::single_round(vec![
        ClientOp::add(gk(1), -100),
        ClientOp::add(gk(101), 100),
    ])
}

/// The §V-A window across coordinators: dm1 crashes right after flushing a
/// COMMIT decision; the supervisor fences dm1 and dm0 adopts the prepared
/// branches, driving them to the durable (commit) outcome.
#[test]
fn crashed_coordinator_is_fenced_and_its_commit_is_adopted() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2, vec![10, 100]);
        cluster.crash_after_next_flush(1);
        let outcome = cluster
            .middleware(1)
            .run_transaction(&transfer_spec())
            .await;
        assert!(!outcome.committed, "the client never got an answer");
        assert!(cluster.middleware(1).is_crashed());

        let reports = cluster.supervise_once().await;
        assert_eq!(reports.len(), 1);
        let report = reports[0];
        assert_eq!((report.dead, report.by), (1, 0));
        assert_eq!(
            report.adopted_committed, 2,
            "both prepared branches follow the durable commit decision"
        );
        assert_eq!(report.adopted_aborted, 0);
        assert!(report.fencing_epoch > cluster.epoch(1));
        assert_eq!(cluster.takeover_count(), 1);

        // The transfer landed atomically despite the coordinator death.
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
            Some(1_100)
        );
        // Nothing is left in doubt anywhere.
        for ds in cluster.sources() {
            assert!(ds.engine().prepared_xids().is_empty());
            assert!(ds.engine().unfinished_xids().is_empty());
        }
        // Sessions that belonged to dm1 re-home onto dm0.
        for session in 0..64u64 {
            assert_eq!(cluster.router().route(session), Some(0));
        }
    });
}

/// Drive two branches of a dm1-owned gtrid to the prepared state through
/// dm1's own (epoch-stamped) connections, without any flushed decision.
async fn prepare_in_doubt(cluster: &Rc<CoordinatorCluster>, gtrid: u64) -> Vec<DsConnection> {
    let dm1 = NodeId::middleware(1);
    let epoch = cluster.epoch(1);
    let mut conns = Vec::new();
    for (i, ds) in cluster.sources().iter().enumerate() {
        let conn = DsConnection::new(
            dm1,
            Rc::clone(ds),
            Rc::clone(cluster.middleware(1).network()),
        )
        .with_epoch(epoch);
        let xid = Xid::new(gtrid, i as u32);
        let resp = conn
            .execute(StatementRequest {
                xid,
                begin: true,
                ops: vec![DsOperation::AddInt {
                    key: gk(i as u64 * ROWS_PER_NODE).storage_key(),
                    col: 0,
                    delta: 500,
                }],
                is_last: false,
                decentralized_prepare: false,
                early_abort: false,
                peers: vec![1 - i as u32],
                trace_parent: None,
            })
            .await;
        assert!(resp.outcome.is_ok());
        assert_eq!(
            conn.prepare(xid).await,
            geotp_datasource::PrepareVote::Prepared
        );
        conns.push(conn);
    }
    conns
}

/// Epoch fencing, order A: takeover completes first, the stale coordinator's
/// COMMIT/ROLLBACK arrive afterwards — every data source rejects them and the
/// adopted outcome (abort: no durable decision) stands.
#[test]
fn stale_decisions_after_takeover_are_rejected_by_every_source() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2, vec![10, 100]);
        let gtrid = (1u64 << 48) | 7;
        let conns = prepare_in_doubt(&cluster, gtrid).await;

        // dm1 goes silent (say, GC pause); the cluster declares it dead and
        // dm0 adopts. No decision was durable, so the branches abort.
        cluster.membership().declare_dead(1);
        let report = cluster.take_over(1, 0).await;
        assert_eq!(report.adopted_aborted, 2);
        assert_eq!(report.adopted_committed, 0);

        // The walking-dead dm1 wakes up and tries to finish "its"
        // transaction. The commit log is sealed...
        let fenced = cluster
            .commit_log(1)
            .try_flush_decision(gtrid, geotp_middleware::Decision::Commit, cluster.epoch(1))
            .await;
        assert!(fenced.is_err(), "the sealed log rejects the stale epoch");
        // ...and every data source rejects both COMMIT and ROLLBACK.
        for (i, conn) in conns.iter().enumerate() {
            let xid = Xid::new(gtrid, i as u32);
            assert!(
                matches!(
                    conn.commit(xid, false).await,
                    Err(StorageError::InvalidState { .. })
                ),
                "ds{i} accepted a fenced COMMIT"
            );
            assert!(
                matches!(
                    conn.rollback(xid).await,
                    Err(StorageError::InvalidState { .. })
                ),
                "ds{i} accepted a fenced ROLLBACK"
            );
        }
        // The adopted outcome won: the +500s never became visible.
        for (i, ds) in cluster.sources().iter().enumerate() {
            assert_eq!(
                ds.engine()
                    .peek(gk(i as u64 * ROWS_PER_NODE).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1_000)
            );
            assert!(ds.engine().prepared_xids().is_empty());
        }
    });
}

/// Epoch fencing, order B: the fence is installed first, the stale COMMIT
/// arrives *before* the adoption sweep — it must already bounce, and the
/// adoption then resolves the branch. The adopted outcome wins in this
/// interleaving too.
#[test]
fn stale_commit_between_fence_and_adoption_is_rejected() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2, vec![10, 100]);
        let gtrid = (1u64 << 48) | 9;
        let conns = prepare_in_doubt(&cluster, gtrid).await;

        // Manual takeover, step by step (the public pieces `take_over`
        // composes), so the stale COMMIT can be injected mid-way.
        cluster.membership().declare_dead(1);
        let fencing_epoch = cluster.membership().fence(1);
        cluster.commit_log(1).fence(fencing_epoch);
        for ds in cluster.sources() {
            ds.fence_coordinator(NodeId::middleware(1), fencing_epoch);
        }

        // Stale COMMIT lands after the fence but before any adoption: every
        // source rejects it, so it cannot race the adoption to a commit.
        for (i, conn) in conns.iter().enumerate() {
            let xid = Xid::new(gtrid, i as u32);
            assert!(
                matches!(
                    conn.commit(xid, false).await,
                    Err(StorageError::InvalidState { .. })
                ),
                "ds{i} accepted a fenced COMMIT before adoption"
            );
        }

        // Adoption now resolves the still-prepared branches: no durable
        // decision ⇒ abort, and the stale coordinator's +500s are undone.
        let (committed, aborted) = cluster
            .middleware(0)
            .recover_owned_by(1, cluster.commit_log(1))
            .await;
        assert_eq!((committed, aborted), (0, 2));
        for (i, ds) in cluster.sources().iter().enumerate() {
            assert_eq!(
                ds.engine()
                    .peek(gk(i as u64 * ROWS_PER_NODE).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1_000)
            );
            assert!(ds.engine().prepared_xids().is_empty());
        }
    });
}

/// Scale-out: under a fixed open-loop offered load that saturates one
/// coordinator's capacity, adding coordinators increases completed
/// throughput and collapses the queueing tail.
#[test]
fn open_loop_throughput_scales_with_coordinators() {
    fn run(coordinators: usize) -> (f64, Duration) {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let cluster = build(coordinators, vec![10, 60]);
            let mut config = ClusterConfig::new(
                coordinators,
                Protocol::geotp(),
                Partitioner::Range {
                    rows_per_node: ROWS_PER_NODE,
                    nodes: 2,
                },
            );
            config.max_inflight = 8;
            config.analysis_cost = Duration::from_micros(200);
            config.log_flush_cost = Duration::from_micros(200);
            // Rebuild with the capacity gate (build() above is uncapped).
            let cluster = CoordinatorCluster::build(
                config,
                Rc::clone(cluster.middleware(0).network()),
                cluster.sources(),
            );
            let report = run_open_loop(
                &cluster,
                |rng| {
                    let src = rng.gen_range(0..2 * ROWS_PER_NODE);
                    let dst = rng.gen_range(0..2 * ROWS_PER_NODE);
                    TransactionSpec::single_round(vec![
                        ClientOp::add(gk(src), -1),
                        ClientOp::add(gk(dst), 1),
                    ])
                },
                OpenLoopConfig {
                    arrivals_per_sec: 600,
                    sessions: 128,
                    warmup: Duration::from_millis(500),
                    measure: Duration::from_secs(3),
                    seed: 5,
                },
            )
            .await;
            (report.throughput, report.p99_latency)
        })
    }
    let (tput1, p99_1) = run(1);
    let (tput2, p99_2) = run(2);
    assert!(
        tput2 > tput1 * 1.5,
        "2 coordinators should nearly double a saturated tier: {tput1:.0} -> {tput2:.0} txn/s"
    );
    assert!(
        p99_1 > p99_2,
        "the saturated single coordinator must show the queueing tail: {p99_1:?} vs {p99_2:?}"
    );
}
