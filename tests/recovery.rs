//! End-to-end failure-recovery tests across the middleware and data-source
//! crates (paper §V-A): middleware failure with a flushed decision, middleware
//! failure without a decision, and data-source crash/restart.

use std::rc::Rc;

use geotp::datasource::{DsOperation, PrepareVote, StatementRequest};
use geotp::middleware::{Decision, Middleware};
use geotp::prelude::*;
use geotp::storage::Xid;
use geotp::USERTABLE;

const RECORDS: u64 = 100;

fn build() -> geotp::Cluster {
    let cluster = ClusterBuilder::new()
        .data_source(10)
        .data_source(80)
        .records_per_node(RECORDS)
        .protocol(Protocol::geotp())
        .build();
    cluster.load_uniform(RECORDS, 1_000);
    cluster
}

fn gk(row: u64) -> GlobalKey {
    GlobalKey::new(USERTABLE, row)
}

/// Drive both branches of a manual distributed transaction to PREPARED.
async fn prepare_two_branches(cluster: &geotp::Cluster, gtrid: u64, delta: i64) {
    for (i, ds) in cluster.data_sources().iter().enumerate() {
        let xid = Xid::new(gtrid, i as u32);
        let conn = geotp::DsConnection::new(
            cluster.middleware().node(),
            Rc::clone(ds),
            Rc::clone(cluster.network()),
        );
        let resp = conn
            .execute(StatementRequest {
                xid,
                begin: true,
                ops: vec![DsOperation::AddInt {
                    key: gk(i as u64 * RECORDS).storage_key(),
                    col: 0,
                    delta: if i == 0 { -delta } else { delta },
                }],
                is_last: false,
                decentralized_prepare: false,
                early_abort: false,
                peers: vec![1 - i as u32],
                trace_parent: None,
            })
            .await;
        assert!(resp.outcome.is_ok());
        assert_eq!(conn.prepare(xid).await, PrepareVote::Prepared);
    }
}

/// Fail the cluster's middleware over to its successor; returns the
/// successor and its `(committed, aborted)` recovery counts.
async fn fail_over(cluster: &geotp::Cluster) -> (Rc<Middleware>, (usize, usize)) {
    cluster.middleware().fail_over(|_, _| {}).await
}

#[test]
fn logged_commit_decision_is_completed_after_middleware_restart() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        let cluster = build();
        prepare_two_branches(&cluster, 500, 100).await;
        cluster
            .middleware()
            .commit_log()
            .flush_decision(500, Decision::Commit)
            .await;

        let (successor, recovered) = fail_over(&cluster).await;
        assert_eq!(recovered, (2, 0));
        assert_eq!(cluster.sum_records([gk(0)]), 900);
        assert_eq!(successor.recover().await, (0, 0), "recovering twice ≡ once");
        assert_eq!(cluster.sum_records([gk(0)]), 900);
        assert_eq!(cluster.sum_records([gk(RECORDS)]), 1_100);
    });
}

#[test]
fn undecided_prepared_transaction_is_aborted_after_middleware_restart() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        let cluster = build();
        prepare_two_branches(&cluster, 600, 77).await;
        // No decision was flushed: the successor must abort both branches.
        let (_, recovered) = fail_over(&cluster).await;
        assert_eq!(recovered, (0, 2));
        assert_eq!(cluster.sum_records([gk(0)]), 1_000);
        assert_eq!(cluster.sum_records([gk(RECORDS)]), 1_000);
    });
}

#[test]
fn logged_abort_decision_rolls_back_prepared_branches() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        let cluster = build();
        prepare_two_branches(&cluster, 601, 10).await;
        cluster
            .middleware()
            .commit_log()
            .flush_decision(601, Decision::Abort)
            .await;
        let (_, recovered) = fail_over(&cluster).await;
        assert_eq!(recovered, (0, 2));
        assert_eq!(cluster.sum_records([gk(0)]), 1_000);
    });
}

#[test]
fn coordinator_disconnect_aborts_unprepared_work_only() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        let cluster = build();
        // One prepared branch and one branch still in execution on DS0.
        prepare_two_branches(&cluster, 700, 5).await;
        let active = Xid::new(701, 0);
        let ds0 = &cluster.data_sources()[0];
        let conn = geotp::DsConnection::new(
            cluster.middleware().node(),
            Rc::clone(ds0),
            Rc::clone(cluster.network()),
        );
        conn.execute(StatementRequest {
            xid: active,
            begin: true,
            ops: vec![DsOperation::AddInt {
                key: gk(9).storage_key(),
                col: 0,
                delta: 999,
            }],
            is_last: false,
            decentralized_prepare: false,
            early_abort: false,
            peers: vec![],
            trace_parent: None,
        })
        .await;

        // The data source notices the middleware disconnect (setting ❶).
        // The incarnation that allocated gtrids 700 and 701 disconnects.
        let aborted = ds0.abort_unprepared_of(0, 702).await;
        assert_eq!(aborted, vec![active]);
        assert_eq!(
            cluster.sum_records([gk(9)]),
            1_000,
            "active branch rolled back"
        );
        assert_eq!(
            ds0.engine().prepared_xids(),
            vec![Xid::new(700, 0)],
            "prepared branch kept"
        );
    });
}

#[test]
fn data_source_crash_preserves_prepared_branch_and_loses_active_one() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        let cluster = build();
        prepare_two_branches(&cluster, 800, 40).await;
        let ds1 = &cluster.data_sources()[1];

        // An active (unprepared) branch on DS1 is lost by the crash.
        let doomed = Xid::new(801, 1);
        ds1.engine().begin(doomed).unwrap();
        ds1.engine()
            .add_int(doomed, gk(RECORDS + 5).storage_key(), 0, 123)
            .await
            .unwrap();

        ds1.crash();
        assert!(ds1.is_crashed());
        let recovered = ds1.restart().await;
        assert_eq!(recovered, vec![Xid::new(800, 1)]);
        assert_eq!(
            cluster.sum_records([gk(RECORDS + 5)]),
            1_000,
            "unprepared write must not survive the crash"
        );

        // The in-doubt transaction can still be finished by recovery.
        cluster
            .middleware()
            .commit_log()
            .flush_decision(800, Decision::Commit)
            .await;
        let (_, (committed, _)) = fail_over(&cluster).await;
        assert_eq!(committed, 2);
        assert_eq!(cluster.sum_records([gk(RECORDS)]), 1_040);
    });
}

#[test]
fn normal_transactions_resume_after_recovery() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        let cluster = build();
        prepare_two_branches(&cluster, 900, 10).await;
        cluster
            .middleware()
            .commit_log()
            .flush_decision(900, Decision::Commit)
            .await;
        let spec = TransactionSpec::single_round(vec![
            ClientOp::add(gk(1), -1),
            ClientOp::add(gk(RECORDS + 1), 1),
        ]);
        let before = cluster.middleware().run_transaction(&spec).await;
        assert!(before.committed);
        let (successor, _) = fail_over(&cluster).await;

        // The successor serves new traffic normally, past the predecessor's
        // gtrids: reusing one would let the shared commit log's decision for
        // the old transaction answer for the new one.
        let outcome = successor.run_transaction(&spec).await;
        assert!(outcome.committed);
        assert!(
            outcome.gtrid > before.gtrid,
            "gtrid reused across the failover"
        );
        assert_eq!(cluster.sum_records([gk(1), gk(RECORDS + 1)]), 2_000);
    });
}
