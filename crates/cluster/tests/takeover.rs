//! End-to-end tier tests: crash takeover, epoch fencing (both orders) and
//! open-loop scale-out.

use std::rc::Rc;
use std::time::Duration;

use geotp_cluster::{
    build_tier, run_open_loop, ClusterConfig, CoordinatorCluster, OpenLoopConfig, TierLayout,
};
use geotp_datasource::{DsConnection, DsOperation, StatementRequest};
use geotp_middleware::{
    ClientOp, GlobalKey, Partitioner, Protocol, SessionService, TransactionSpec,
};
use geotp_net::{NodeId, StaticLatency};
use geotp_simrt::{sleep, spawn, Runtime};
use geotp_storage::{CostModel, EngineConfig, Key, Row, StorageError, TableId, Xid};
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
    build_on(layout(coordinators, ds_rtts_ms))
}

fn build_on(layout: TierLayout) -> Rc<CoordinatorCluster> {
    let coordinators = layout.coordinators;
    let nodes = layout.ds_rtts_ms.len() as u32;
    let (net, sources) = build_tier(&layout);
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

/// A gtrid coordinator `coord`'s current incarnation allocated: a
/// transaction begun there and rolled back before its first statement.
/// Recovery resolves only the gtrids an incarnation allocated.
async fn allocated_gtrid(cluster: &CoordinatorCluster, coord: u32) -> u64 {
    let mut session = cluster.middleware(coord).connect(u64::MAX);
    let txn = session.begin().await.expect("the coordinator serves");
    let gtrid = txn.gtrid();
    txn.rollback().await;
    gtrid
}

/// Drive two branches of a dm1-owned gtrid to the prepared state through
/// dm1's own (epoch-stamped) connections, without any flushed decision.
/// Returns the gtrid and the connections.
async fn prepare_in_doubt(cluster: &Rc<CoordinatorCluster>) -> (u64, Vec<DsConnection>) {
    let gtrid = allocated_gtrid(cluster, 1).await;
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
    (gtrid, conns)
}

/// Epoch fencing, order A: takeover completes first, the stale coordinator's
/// COMMIT/ROLLBACK arrive afterwards — every data source rejects them and the
/// adopted outcome (abort: no durable decision) stands.
#[test]
fn stale_decisions_after_takeover_are_rejected_by_every_source() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2, vec![10, 100]);
        let (gtrid, conns) = prepare_in_doubt(&cluster).await;

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
        let (gtrid, conns) = prepare_in_doubt(&cluster).await;

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
            .recover_owned_by(
                1,
                cluster.middleware(1).next_txn_seq(),
                cluster.commit_log(1),
            )
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

/// Cold restart after the whole tier died: the restarted slot aborts its
/// predecessor's unprepared branches, which nobody else is alive to do, and
/// leaves the other coordinator's gtrid space alone. Without the abort the
/// branches hold their row locks forever and the slot's next transaction
/// on those rows times out.
#[test]
fn cold_restart_aborts_the_slots_unprepared_branches() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2, vec![10, 100]);
        // One ACTIVE branch per source in each coordinator's gtrid space.
        for coord in 0..2u32 {
            for source in 0..2u32 {
                let row = source as u64 * ROWS_PER_NODE + 1 + coord as u64;
                begin_branch(&cluster, coord, source, row).await;
            }
        }
        cluster.crash(0);
        cluster.crash(1);
        cluster.restart(0).await;

        let owned_by = |coord: u32| unfinished_owned_by(&cluster, coord);
        assert_eq!(
            owned_by(0),
            0,
            "dm0's unprepared branches outlived its restart"
        );
        assert_eq!(
            owned_by(1),
            2,
            "dm1 is still down: its branches wait for it"
        );
        // The freed rows serve dm0's successor again.
        let outcome = cluster
            .middleware(0)
            .run_transaction(&transfer_spec())
            .await;
        assert!(outcome.committed, "{:?}", outcome.abort_reason);
    });
}

/// A transaction the restarted slot begins while `restart` is still running
/// belongs to the successor, so the predecessor's cleanup must not roll it
/// back. Rolling back the predecessor's branch at the near source takes
/// longer than the successor's first statement needs to reach the far one,
/// so a cleanup that ran after the slot re-registered would find that
/// statement's branch at the far source and abort it.
#[test]
fn restart_cleanup_spares_a_transaction_begun_during_the_restart() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let mut slow_rollback = layout(2, vec![10, 100]);
        slow_rollback.engine.cost.decision_apply = Duration::from_millis(200);
        let cluster = build_on(slow_rollback);
        begin_branch(&cluster, 0, 0, 50).await;
        cluster.crash(0);
        cluster.crash(1);
        // Both leases lapsed: once dm0 re-registers, every session routes there.
        cluster.membership().declare_dead(0);
        cluster.membership().declare_dead(1);
        let restarting = spawn({
            let cluster = Rc::clone(&cluster);
            async move { cluster.restart(0).await }
        });
        while !cluster.membership().is_alive(0) {
            sleep(Duration::from_millis(1)).await;
        }
        let mut session = cluster.connect(0);
        let mut txn = session.begin().await.expect("dm0 serves again");
        txn.execute(&[ClientOp::add(gk(101), 100)])
            .await
            .expect("the successor's first statement");
        assert!(!restarting.is_finished(), "the restart is still running");
        restarting.await;
        assert_eq!(
            unfinished_owned_by(&cluster, 0),
            1,
            "only the successor's branch is unfinished"
        );
        let outcome = txn.commit().await;
        assert!(outcome.committed, "{:?}", outcome.abort_reason);
        assert_eq!(unfinished_owned_by(&cluster, 0), 0);
    });
}

/// dm0 dies and dm1's takeover of it is in flight over a slow dm1↔ds1 link
/// when dm0's slot restarts cold; returns the running takeover. Its fence
/// and scoped abort reach ds1 about a second later, after the restarted
/// slot's successor has begun serving.
async fn restart_during_a_slow_takeover(
    cluster: &Rc<CoordinatorCluster>,
) -> geotp_simrt::JoinHandle<geotp_cluster::TakeoverReport> {
    cluster.middleware(1).network().set_link(
        NodeId::middleware(1),
        NodeId::data_source(1),
        StaticLatency::from_millis(2_000),
    );
    cluster.crash(0);
    cluster.membership().declare_dead(0);
    let takeover = spawn({
        let cluster = Rc::clone(cluster);
        async move { cluster.take_over(0, 1).await }
    });
    sleep(Duration::from_millis(1)).await;
    cluster.restart(0).await;
    takeover
}

/// A takeover of the dead incarnation must not abort the successor's
/// unprepared branch, although both are in coordinator 0's gtrid space.
#[test]
fn an_in_flight_takeover_spares_the_successors_unprepared_branch() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2, vec![10, 100]);
        let takeover = restart_during_a_slow_takeover(&cluster).await;
        let mut session = cluster.middleware(0).connect(7);
        let mut txn = session.begin().await.expect("the successor serves");
        txn.execute(&[ClientOp::add(gk(101), 100)])
            .await
            .expect("the successor's first statement");
        let report = takeover.await;
        assert_eq!(report.unprepared_aborted, 0, "the successor's branch");
        let outcome = txn.commit().await;
        assert!(outcome.committed, "{:?}", outcome.abort_reason);
        assert_eq!(row(&cluster, 101), 1_100);
    });
}

/// The same race one step later: the adoption's scoped `XA RECOVER` must
/// not presume abort for the successor's prepared, undecided branches.
#[test]
fn an_in_flight_adoption_spares_the_successors_prepared_branches() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2, vec![10, 100]);
        let takeover = restart_during_a_slow_takeover(&cluster).await;
        let mut session = cluster.middleware(0).connect(7);
        let mut txn = session.begin().await.expect("the successor serves");
        txn.execute_last(&[ClientOp::add(gk(1), -100), ClientOp::add(gk(101), 100)])
            .await
            .expect("the successor's only round");
        let report = takeover.await;
        assert_eq!(
            (report.adopted_committed, report.adopted_aborted),
            (0, 0),
            "the successor's prepared branches are not the dead instance's"
        );
        let outcome = txn.commit().await;
        assert!(outcome.committed, "{:?}", outcome.abort_reason);
        assert_eq!((row(&cluster, 1), row(&cluster, 101)), (900, 1_100));
    });
}

/// A coordinator cut off from membership but still running is declared dead
/// and taken over while it serves. The branch it begins at ds1 before the
/// takeover's fence gets there (over a slow dm0↔ds1 link) is the dead
/// incarnation's, although it began after the takeover did: the scoped
/// abort must roll it back, or it holds its locks for ever.
#[test]
fn a_takeover_aborts_the_branch_a_partitioned_coordinator_begins_ahead_of_the_fence() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let cluster = build(2, vec![10, 100]);
        cluster.middleware(0).network().set_link(
            NodeId::middleware(0),
            NodeId::data_source(1),
            StaticLatency::from_millis(2_000),
        );
        cluster.membership().declare_dead(1);
        let takeover = spawn({
            let cluster = Rc::clone(&cluster);
            async move { cluster.take_over(1, 0).await }
        });
        sleep(Duration::from_millis(1)).await;
        let mut session = cluster.middleware(1).connect(7);
        let mut txn = session.begin().await.expect("dm1 still serves");
        txn.execute(&[ClientOp::add(gk(101), 100)])
            .await
            .expect("the statement lands ahead of the fence");
        assert!(!takeover.is_finished(), "the fence is still on its way");
        let report = takeover.await;
        assert_eq!(report.unprepared_aborted, 1, "dm1's branch at ds1");
        assert_eq!(unfinished_owned_by(&cluster, 1), 0);
        let outcome = txn.commit().await;
        assert!(!outcome.committed, "the fenced coordinator commits nothing");
        assert_eq!(row(&cluster, 101), 1_000);
    });
}

/// The committed value of global row `row`.
fn row(cluster: &CoordinatorCluster, row: u64) -> i64 {
    let ds = &cluster.sources()[(row / ROWS_PER_NODE) as usize];
    ds.engine()
        .peek(gk(row).storage_key())
        .and_then(|r| r.int_value())
        .expect("a loaded integer row")
}

/// Recovering twice ≡ once: after a takeover and after a cold restart, a
/// second recovery pass finds nothing left to resolve and changes no branch
/// and no row.
#[test]
fn a_second_recovery_pass_is_a_no_op() {
    let mut rt = Runtime::new();
    rt.block_on(async {
        // Takeover: dm1 dies with an in-doubt transaction and an ACTIVE
        // branch; the supervisor fences it and dm0 adopts.
        let cluster = build(2, vec![10, 100]);
        prepare_in_doubt(&cluster).await;
        begin_branch(&cluster, 1, 0, 60).await;
        cluster.crash(1);
        let reports = cluster.supervise_once().await;
        assert_eq!(reports.len(), 1);
        assert_eq!(
            (reports[0].adopted_aborted, reports[0].unprepared_aborted),
            (2, 1)
        );
        assert_second_recovery_is_a_no_op(&cluster).await;

        // Cold restart: the whole tier died; dm0 comes back alone, and the
        // first pass adopts dm1's in-doubt transaction.
        let cluster = build(2, vec![10, 100]);
        prepare_in_doubt(&cluster).await;
        begin_branch(&cluster, 0, 1, 160).await;
        cluster.crash(0);
        cluster.crash(1);
        cluster.restart(0).await;
        assert_eq!(cluster.recover_all().await, (0, 2));
        assert_second_recovery_is_a_no_op(&cluster).await;
    });
}

/// After a first recovery pass resolved everything, `recover_all` returns
/// `(0, 0)` and leaves every branch and row as it was.
async fn assert_second_recovery_is_a_no_op(cluster: &CoordinatorCluster) {
    let resolved = durable_state(cluster);
    assert!(resolved
        .iter()
        .all(|(prepared, unfinished, _)| prepared.is_empty() && unfinished.is_empty()));
    assert_eq!(cluster.recover_all().await, (0, 0));
    assert_eq!(durable_state(cluster), resolved);
}

/// One source's prepared and unfinished branches, and its committed rows.
type SourceState = (Vec<Xid>, Vec<Xid>, Vec<(Key, Row)>);

fn durable_state(cluster: &CoordinatorCluster) -> Vec<SourceState> {
    cluster
        .sources()
        .iter()
        .map(|ds| {
            let engine = ds.engine();
            (
                engine.prepared_xids(),
                engine.unfinished_xids(),
                engine.snapshot_table(TableId(0)),
            )
        })
        .collect()
}

/// Begin an ACTIVE branch at `source` in `coord`'s gtrid space that adds to
/// global row `row`, as `coord`'s current incarnation.
async fn begin_branch(cluster: &CoordinatorCluster, coord: u32, source: u32, row: u64) {
    let ds = &cluster.sources()[source as usize];
    let conn = DsConnection::new(
        NodeId::middleware(coord),
        Rc::clone(ds),
        Rc::clone(cluster.middleware(coord).network()),
    )
    .with_epoch(cluster.epoch(coord));
    let resp = conn
        .execute(StatementRequest {
            xid: Xid::new(allocated_gtrid(cluster, coord).await, source),
            begin: true,
            ops: vec![DsOperation::AddInt {
                key: gk(row).storage_key(),
                col: 0,
                delta: 500,
            }],
            is_last: false,
            decentralized_prepare: false,
            early_abort: false,
            peers: vec![1 - source],
            trace_parent: None,
        })
        .await;
    assert!(resp.outcome.is_ok());
}

/// Branches in `coord`'s gtrid space still ACTIVE or ENDED at any source.
fn unfinished_owned_by(cluster: &CoordinatorCluster, coord: u32) -> usize {
    cluster
        .sources()
        .iter()
        .flat_map(|ds| ds.engine().unfinished_xids())
        .filter(|xid| xid.owner() == coord)
        .count()
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
