//! # geotp-middleware — the database middleware layer
//!
//! This crate implements the first layer of the GeoTP architecture (paper
//! §III-A): the proxy that accepts client transactions, rewrites them into
//! per-data-source subtransactions, coordinates the XA protocol and runs the
//! three GeoTP optimizations:
//!
//! * **O1 — decentralized prepare & early abort** ([`coordinator`], together
//!   with the geo-agents in `geotp-datasource`),
//! * **O2 — latency-aware scheduling** ([`scheduler`], Eq. 3),
//! * **O3 — high-contention heuristics** ([`hotspot`] + [`scheduler`],
//!   Eq. 4/5/8/9 and Algorithm 2's late transaction scheduling).
//!
//! The same coordinator also implements the baselines the paper compares
//! against (SSP, SSP(local), QURO, Chiller) as alternative [`Protocol`]s so
//! the ablation study is a pure configuration sweep.

pub mod commit_log;
pub mod coordinator;
pub mod hotspot;
pub mod metrics;
pub mod notify_hub;
pub mod ops;
pub mod parser;
pub mod router;
pub mod scheduler;
pub mod session;

pub use commit_log::{CommitLog, Decision, Fenced};
pub use coordinator::{gtrid_owner, Middleware, MiddlewareConfig, Protocol, SessionState};
pub use hotspot::{HotRecordStats, HotspotFootprint};
pub use metrics::{AbortReason, LatencyBreakdown, MiddlewareStats, TxnOutcome, ABORT_REASONS};
pub use ops::{ClientOp, GlobalKey, TransactionSpec};
pub use parser::{Catalog, ParseError, ParsedStatement, SqlParser, TxnControl};
pub use router::Partitioner;
pub use scheduler::{AdmissionDecision, BranchPlan, GeoScheduler, Schedule, SchedulerConfig};
pub use session::{
    MiddlewareSessionService, RetriedOutcome, RetryPolicy, RoundResult, Session, SessionService,
    SqlScript, Txn, TxnError, TxnHandle,
};

#[cfg(test)]
mod tests {
    //! End-to-end middleware tests on a small simulated cluster, checking the
    //! latency structure the paper's motivating example (Fig. 2 / Fig. 4)
    //! predicts for each protocol.

    use std::rc::Rc;
    use std::time::Duration;

    use geotp_datasource::{DataSource, DataSourceConfig};
    use geotp_net::{Network, NetworkBuilder, NodeId};
    use geotp_simrt::Runtime;
    use geotp_storage::{CostModel, EngineConfig, Row, TableId};

    use super::*;

    const ROWS_PER_NODE: u64 = 1000;

    fn gk(row: u64) -> GlobalKey {
        GlobalKey::new(TableId(0), row)
    }

    /// Build a 2-data-source cluster: RTT(DS0)=10ms, RTT(DS1)=100ms, zero
    /// local execution cost so latency arithmetic is exact.
    fn cluster(protocol: Protocol) -> (Rc<Network>, Vec<Rc<DataSource>>, Rc<Middleware>) {
        let dm = NodeId::middleware(0);
        let ds0 = NodeId::data_source(0);
        let ds1 = NodeId::data_source(1);
        let net = NetworkBuilder::new(7)
            .default_lan_rtt(Duration::ZERO)
            .static_link(dm, ds0, Duration::from_millis(10))
            .static_link(dm, ds1, Duration::from_millis(100))
            .static_link(ds0, ds1, Duration::from_millis(100))
            .build();
        let mut sources = Vec::new();
        for node in [ds0, ds1] {
            let mut cfg = DataSourceConfig::new(node);
            cfg.agent_lan_rtt = Duration::ZERO;
            cfg.engine = EngineConfig {
                lock_wait_timeout: Duration::from_secs(5),
                cost: CostModel::zero(),
                record_history: false,
                ..EngineConfig::default()
            };
            let ds = DataSource::new(cfg, Rc::clone(&net));
            for row in 0..ROWS_PER_NODE {
                let global = node.index() as u64 * ROWS_PER_NODE + row;
                ds.load(gk(global).storage_key(), Row::int(1000));
            }
            sources.push(ds);
        }
        for a in &sources {
            for b in &sources {
                if a.index() != b.index() {
                    a.register_peer(b);
                }
            }
        }
        let mut cfg = MiddlewareConfig::new(
            dm,
            protocol,
            Partitioner::Range {
                rows_per_node: ROWS_PER_NODE,
                nodes: 2,
            },
        );
        cfg.analysis_cost = Duration::ZERO;
        cfg.log_flush_cost = Duration::ZERO;
        let mw = Middleware::connect(cfg, Rc::clone(&net), &sources, None);
        (net, sources, mw)
    }

    fn transfer_spec() -> TransactionSpec {
        // A cross-data-source transfer: key 1 lives on DS0, key 1001 on DS1.
        TransactionSpec::single_round(vec![
            ClientOp::add(gk(1), -100),
            ClientOp::add(gk(1001), 100),
        ])
    }

    #[test]
    fn ssp_distributed_transaction_takes_three_wan_round_trips() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::SspXa);
            let outcome = mw.run_transaction(&transfer_spec()).await;
            assert!(outcome.committed);
            assert!(outcome.distributed);
            // execution (100ms) + prepare (100ms) + commit (100ms)
            assert_eq!(outcome.latency, Duration::from_millis(300));
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(900)
            );
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(1001).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1100)
            );
        });
    }

    #[test]
    fn geotp_distributed_transaction_takes_two_wan_round_trips() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::geotp());
            let outcome = mw.run_transaction(&transfer_spec()).await;
            assert!(outcome.committed);
            // Decentralized prepare removes the explicit prepare round trip:
            // execution (100ms, prepare vote arrives with it) + commit (100ms).
            assert_eq!(outcome.latency, Duration::from_millis(200));
            assert_eq!(outcome.breakdown.prepare_wait, Duration::ZERO);
            assert_eq!(sources[0].stats().decentralized_prepares, 1);
            assert_eq!(sources[1].stats().decentralized_prepares, 1);
            // Data is atomically updated.
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(900)
            );
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(1001).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1100)
            );
        });
    }

    #[test]
    fn geotp_latency_scheduling_shrinks_fast_branch_contention_span() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            // Compare the contention span on the *fast* data source (DS0).
            async fn span_for(protocol: Protocol) -> Duration {
                let (_net, sources, mw) = cluster(protocol);
                let outcome = mw.run_transaction(&transfer_spec()).await;
                assert!(outcome.committed);
                let stats = sources[0].engine().stats();
                assert_eq!(stats.contention_span_samples, 1);
                Duration::from_micros(stats.total_contention_span_micros)
            }
            let ssp_span = span_for(Protocol::SspXa).await;
            let o1_span = span_for(Protocol::geotp_o1()).await;
            let geotp_span = span_for(Protocol::geotp_o1_o2()).await;

            // SSP: the fast branch holds its lock across prepare+commit of the
            // slow branch (~2.5 WAN RTTs of the slow node ≈ 245ms).
            assert!(
                ssp_span >= Duration::from_millis(200),
                "SSP span {ssp_span:?}"
            );
            // O1 alone reduces the span to the longest RTT involved (100ms),
            // exactly as Fig. 4a describes.
            assert!(
                o1_span >= Duration::from_millis(100) && o1_span < ssp_span,
                "O1 span {o1_span:?}"
            );
            // O2 postpones the fast branch so its span collapses to ~its own
            // RTT + commit half-trip (≈ 60ms, vs 100ms RTT of the slow node).
            assert!(
                geotp_span < Duration::from_millis(70),
                "GeoTP span {geotp_span:?} should be well below the slow RTT"
            );
        });
    }

    #[test]
    fn centralized_transactions_commit_in_one_round_trip() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            for protocol in [Protocol::SspXa, Protocol::geotp(), Protocol::Chiller] {
                let (_net, _sources, mw) = cluster(protocol);
                let spec = TransactionSpec::single_round(vec![
                    ClientOp::Read(gk(5)),
                    ClientOp::add(gk(6), 10),
                ]);
                let outcome = mw.run_transaction(&spec).await;
                assert!(outcome.committed, "{}", protocol.name());
                assert!(!outcome.distributed);
                // execution (10ms) + one-phase commit (10ms)
                assert_eq!(
                    outcome.latency,
                    Duration::from_millis(20),
                    "{} centralized latency",
                    protocol.name()
                );
                assert_eq!(outcome.rows.len(), 2);
            }
        });
    }

    #[test]
    fn chiller_sequences_inner_region_after_outer() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::Chiller);
            let outcome = mw.run_transaction(&transfer_spec()).await;
            assert!(outcome.committed);
            // Outer branch (100ms RTT) executes first, then the inner branch
            // (10ms): execution ≈ 110ms, commit 100ms.
            assert_eq!(outcome.latency, Duration::from_millis(210));
            // The inner (fast) branch's lock span is tiny: it acquires locks
            // only after the outer branch finished executing.
            let span = sources[0].engine().stats().total_contention_span_micros;
            assert!(span <= 60_000, "chiller inner span {span}us");
        });
    }

    #[test]
    fn quro_reorders_writes_after_reads() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, _sources, mw) = cluster(Protocol::Quro);
            // Mixed read/write batch on one data source.
            let spec = TransactionSpec::single_round(vec![
                ClientOp::add(gk(1), 1),
                ClientOp::Read(gk(2)),
                ClientOp::add(gk(3), 1),
                ClientOp::Read(gk(4)),
            ]);
            let outcome = mw.run_transaction(&spec).await;
            assert!(outcome.committed);
            // Reads come back first because QURO moved them ahead of writes.
            assert_eq!(outcome.rows.len(), 4);
            assert_eq!(outcome.rows[0].int_value(), Some(1000));
            assert_eq!(outcome.rows[1].int_value(), Some(1000));
            // The writes' AddInt results follow.
            assert_eq!(outcome.rows[2].int_value(), Some(1001));
            assert_eq!(outcome.rows[3].int_value(), Some(1001));
        });
    }

    #[test]
    fn ssp_local_commits_without_prepare() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, _sources, mw) = cluster(Protocol::SspLocal);
            let outcome = mw.run_transaction(&transfer_spec()).await;
            assert!(outcome.committed);
            // execution (100ms) + one-phase commit (100ms): no prepare round.
            assert_eq!(outcome.latency, Duration::from_millis(200));
            assert_eq!(outcome.breakdown.prepare_wait, Duration::ZERO);
        });
    }

    #[test]
    fn lock_conflict_aborts_one_transaction_and_other_commits() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let dm = NodeId::middleware(0);
            let ds0 = NodeId::data_source(0);
            let ds1 = NodeId::data_source(1);
            let net = NetworkBuilder::new(7)
                .default_lan_rtt(Duration::ZERO)
                .static_link(dm, ds0, Duration::from_millis(10))
                .static_link(dm, ds1, Duration::from_millis(100))
                .static_link(ds0, ds1, Duration::from_millis(100))
                .build();
            let mut sources = Vec::new();
            for node in [ds0, ds1] {
                let mut cfg = DataSourceConfig::new(node);
                cfg.agent_lan_rtt = Duration::ZERO;
                cfg.engine = EngineConfig {
                    // Short lock timeout so the conflict resolves quickly.
                    lock_wait_timeout: Duration::from_millis(150),
                    cost: CostModel::zero(),
                    record_history: false,
                    ..EngineConfig::default()
                };
                let ds = DataSource::new(cfg, Rc::clone(&net));
                for row in 0..ROWS_PER_NODE {
                    let global = node.index() as u64 * ROWS_PER_NODE + row;
                    ds.load(gk(global).storage_key(), Row::int(0));
                }
                sources.push(ds);
            }
            for a in &sources {
                for b in &sources {
                    if a.index() != b.index() {
                        a.register_peer(b);
                    }
                }
            }
            let mut cfg = MiddlewareConfig::new(
                dm,
                Protocol::geotp_o1(),
                Partitioner::Range {
                    rows_per_node: ROWS_PER_NODE,
                    nodes: 2,
                },
            );
            cfg.analysis_cost = Duration::ZERO;
            cfg.log_flush_cost = Duration::ZERO;
            let mw = Middleware::connect(cfg, Rc::clone(&net), &sources, None);

            // Two concurrent distributed transactions over the same keys, in
            // opposite order, forcing a deadlock resolved by lock timeout.
            let spec_a = TransactionSpec::multi_round(vec![
                vec![ClientOp::add(gk(1), 1)],
                vec![ClientOp::add(gk(1001), 1)],
            ]);
            let spec_b = TransactionSpec::multi_round(vec![
                vec![ClientOp::add(gk(1001), 1)],
                vec![ClientOp::add(gk(1), 1)],
            ]);
            let mw_a = Rc::clone(&mw);
            let mw_b = Rc::clone(&mw);
            let a = geotp_simrt::spawn(async move { mw_a.run_transaction(&spec_a).await });
            let b = geotp_simrt::spawn(async move { mw_b.run_transaction(&spec_b).await });
            let (ra, rb) = (a.await, b.await);
            let committed = [&ra, &rb].iter().filter(|o| o.committed).count();
            assert!(
                committed <= 1,
                "at most one of the deadlocked transactions commits"
            );
            let stats = mw.stats();
            assert_eq!(stats.committed + stats.aborted, 2);
            // Atomicity: the two keys must have identical values (both updates
            // from a committed transaction applied, none from an aborted one).
            let v0 = sources[0]
                .engine()
                .peek(gk(1).storage_key())
                .unwrap()
                .int_value()
                .unwrap();
            let v1 = sources[1]
                .engine()
                .peek(gk(1001).storage_key())
                .unwrap()
                .int_value()
                .unwrap();
            assert_eq!(v0, v1, "atomicity violated: {v0} vs {v1}");
        });
    }

    #[test]
    fn run_sql_transfers_money_across_data_sources() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::geotp());
            // Table "usertable" gets TableId(0) because it is the first table
            // registered in the middleware's catalog.
            let outcome = mw
                .run_sql(
                    "BEGIN; \
                     UPDATE usertable SET bal = bal - 50 WHERE id = 1; \
                     UPDATE usertable SET bal = bal + 50 WHERE id = 1001 /*+ last */; \
                     COMMIT;",
                )
                .await
                .unwrap();
            assert!(outcome.committed);
            assert!(outcome.distributed);
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(950)
            );
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(1001).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1050)
            );
        });
    }

    #[test]
    fn middleware_recovery_completes_in_doubt_transactions() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (net, sources, mw) = cluster(Protocol::SspXa);
            // Manually drive two branches to the prepared state, as if the
            // middleware crashed right after flushing a COMMIT decision for
            // gtrid 42 and before dispatching it.
            let gtrid = 42;
            for (i, ds) in sources.iter().enumerate() {
                let xid = geotp_storage::Xid::new(gtrid, i as u32);
                let conn =
                    geotp_datasource::DsConnection::new(mw.node(), Rc::clone(ds), Rc::clone(&net));
                conn.execute(geotp_datasource::StatementRequest {
                    xid,
                    begin: true,
                    ops: vec![geotp_datasource::DsOperation::AddInt {
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
                assert_eq!(
                    conn.prepare(xid).await,
                    geotp_datasource::PrepareVote::Prepared
                );
            }
            mw.commit_log()
                .flush_decision(gtrid, Decision::Commit)
                .await;

            // A second in-doubt transaction without a logged decision: it must
            // be aborted by recovery.
            let gtrid2 = 43;
            let xid2 = geotp_storage::Xid::new(gtrid2, 0);
            let conn0 = geotp_datasource::DsConnection::new(
                mw.node(),
                Rc::clone(&sources[0]),
                Rc::clone(&net),
            );
            conn0
                .execute(geotp_datasource::StatementRequest {
                    xid: xid2,
                    begin: true,
                    ops: vec![geotp_datasource::DsOperation::AddInt {
                        key: gk(7).storage_key(),
                        col: 0,
                        delta: 9,
                    }],
                    is_last: false,
                    decentralized_prepare: false,
                    early_abort: false,
                    peers: vec![1],
                    trace_parent: None,
                })
                .await;
            conn0.prepare(xid2).await;

            // "Restart": a successor sharing the same durable commit log
            // recovers the in-doubt branches.
            let (_successor, (committed, aborted)) = mw.fail_over(|_, _| {}).await;
            assert_eq!(committed, 2, "both branches of gtrid 42 commit");
            assert_eq!(aborted, 1, "the undecided gtrid 43 branch aborts");
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(0).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1500)
            );
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(ROWS_PER_NODE).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1500)
            );
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(7).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1000)
            );
        });
    }

    #[test]
    fn coordinator_crash_after_flush_is_finished_by_successor() {
        // The §V-A drill, end to end through the public hooks: the
        // coordinator crashes deterministically right after flushing its
        // COMMIT decision; a successor sharing the commit log replays it.
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::geotp());
            mw.crash_after_next_flush();
            let outcome = mw.run_transaction(&transfer_spec()).await;
            assert!(!outcome.committed, "client saw no outcome");
            assert_eq!(outcome.abort_reason, Some(AbortReason::CoordinatorCrashed));
            assert!(mw.is_crashed());
            // New transactions are refused outright.
            let refused = mw.run_transaction(&transfer_spec()).await;
            assert_eq!(refused.abort_reason, Some(AbortReason::CoordinatorCrashed));

            // Data sources notice the disconnect: unprepared branches abort
            // (there are none), prepared ones stay in doubt.
            let mut unprepared = Vec::new();
            mw.abort_unprepared(|ds, n| unprepared.push((ds, n))).await;
            assert_eq!(unprepared, vec![(0, 0), (1, 0)]);
            for ds in &sources {
                assert_eq!(ds.engine().prepared_xids().len(), 1);
            }

            // Successor: same node, same durable log, gtrid space advanced
            // past the predecessor's.
            let (successor, (committed, aborted)) = mw.fail_over(|_, _| {}).await;
            assert_eq!((committed, aborted), (2, 0));
            // Recovering again finds nothing left to do.
            assert_eq!(successor.recover().await, (0, 0));
            // The transfer's effect landed atomically despite the crash.
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(900)
            );
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(1001).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1100)
            );
            // And the successor's own transactions use fresh gtrids.
            let fresh = successor.run_transaction(&transfer_spec()).await;
            assert!(fresh.committed);
            assert!(
                fresh.gtrid > outcome.gtrid,
                "gtrid reused across the failover"
            );
        });
    }

    /// A branch parked in a lock wait behind a prepared branch of the same
    /// coordinator is aborted by the failover. Its wait must go with it:
    /// otherwise the prepared branch's commit grants the dead branch the
    /// row lock, nobody ever releases it, and the row is lost to every
    /// later transaction.
    #[test]
    fn fail_over_cancels_the_lock_waits_of_the_branches_it_aborts() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (net, sources, mw) = cluster(Protocol::geotp());
            let row = gk(5).storage_key();
            let conn = geotp_datasource::DsConnection::new(mw.node(), Rc::clone(&sources[0]), net);
            let add = |xid| geotp_datasource::StatementRequest {
                xid,
                begin: true,
                ops: vec![geotp_datasource::DsOperation::AddInt {
                    key: row,
                    col: 0,
                    delta: 10,
                }],
                is_last: false,
                decentralized_prepare: false,
                early_abort: false,
                peers: vec![],
                trace_parent: None,
            };
            // Gtrids this instance allocated: the failover aborts only those.
            let holder = geotp_storage::Xid::new(mw.alloc_gtrid(), 0);
            assert!(conn.execute(add(holder)).await.outcome.is_ok());
            assert_eq!(
                conn.prepare(holder).await,
                geotp_datasource::PrepareVote::Prepared
            );
            mw.commit_log()
                .flush_decision(holder.gtrid, Decision::Commit)
                .await;
            let waiter = geotp_storage::Xid::new(mw.alloc_gtrid(), 0);
            let parked = geotp_simrt::spawn({
                let conn = conn.clone();
                let request = add(waiter);
                async move { conn.execute(request).await }
            });
            geotp_simrt::sleep(Duration::from_millis(50)).await;
            let locks = sources[0].engine().lock_manager();
            assert_eq!(locks.waiters_on(row), 1, "the waiter is parked");

            let mut unprepared = Vec::new();
            let (_successor, recovered) = mw.fail_over(|ds, n| unprepared.push((ds, n))).await;
            assert_eq!(unprepared, vec![(0, 1), (1, 0)]);
            assert_eq!(recovered, (1, 0), "the holder commits");
            assert!(
                !parked.await.outcome.is_ok(),
                "the waiter's statement fails"
            );
            assert_eq!(locks.holds(waiter, row), None);

            let started = geotp_simrt::now();
            let fresh = geotp_storage::Xid::new(52, 0);
            assert!(conn.execute(add(fresh)).await.outcome.is_ok());
            assert!(started.elapsed() < locks.wait_timeout());
            conn.commit(fresh, true).await.unwrap();
            assert_eq!(
                sources[0].engine().peek(row).unwrap().int_value(),
                Some(1020)
            );
        });
    }

    #[test]
    fn lost_vote_notification_times_out_and_aborts() {
        // A participant's prepare vote is dropped by the (chaos) network.
        // The coordinator must not wait forever: after the decision-wait
        // timeout the missing vote counts as a no-vote, the transaction
        // aborts, and recovery cleans up the participant's dangling
        // prepared branch.
        struct DropNotifications {
            from: geotp_net::NodeId,
            to: geotp_net::NodeId,
        }
        impl geotp_net::FaultInjector for DropNotifications {
            fn blocked_until(
                &self,
                _from: geotp_net::NodeId,
                _to: geotp_net::NodeId,
                _now: geotp_simrt::SimInstant,
            ) -> Option<geotp_simrt::SimInstant> {
                None
            }
            fn unreliable_copies(
                &self,
                from: geotp_net::NodeId,
                to: geotp_net::NodeId,
                _now: geotp_simrt::SimInstant,
            ) -> u32 {
                if (from, to) == (self.from, self.to) {
                    0
                } else {
                    1
                }
            }
        }

        let mut rt = Runtime::new();
        rt.block_on(async {
            let (net, sources, _) = cluster(Protocol::geotp());
            // Rebuild the middleware with a short decision-wait timeout.
            let mut cfg = MiddlewareConfig::new(
                NodeId::middleware(0),
                Protocol::geotp(),
                Partitioner::Range {
                    rows_per_node: ROWS_PER_NODE,
                    nodes: 2,
                },
            );
            cfg.analysis_cost = Duration::ZERO;
            cfg.log_flush_cost = Duration::ZERO;
            cfg.decision_wait_timeout = Duration::from_millis(500);
            let mw = Middleware::connect(cfg, Rc::clone(&net), &sources, None);
            net.set_fault_injector(Rc::new(DropNotifications {
                from: NodeId::data_source(1),
                to: NodeId::middleware(0),
            }));

            let outcome = mw.run_transaction(&transfer_spec()).await;
            assert!(!outcome.committed);
            assert_eq!(outcome.abort_reason, Some(AbortReason::PrepareFailed));
            assert_eq!(mw.stats().decision_wait_timeouts, 1);
            // ds1's branch prepared fine — only its vote was lost — so it
            // dangles until recovery aborts it via the logged Abort decision.
            assert_eq!(sources[1].engine().prepared_xids().len(), 1);
            let (committed, aborted) = mw.recover().await;
            assert_eq!((committed, aborted), (0, 1));
            // Atomicity held: neither key changed.
            for (ds, key) in [(0usize, 1u64), (1, 1001)] {
                assert_eq!(
                    sources[ds]
                        .engine()
                        .peek(gk(key).storage_key())
                        .unwrap()
                        .int_value(),
                    Some(1000)
                );
            }
        });
    }

    #[test]
    fn session_replay_matches_one_shot_latency_and_effects() {
        // The spec-replay adapter and the one-shot door drive the same live
        // path; with a co-located client they must cost exactly the same.
        // The empty specs used to panic the one-shot door (`involved[0]`).
        let mut rt = Runtime::new();
        rt.block_on(async {
            for spec in [
                transfer_spec(),
                TransactionSpec::multi_round(vec![]),
                TransactionSpec::multi_round(vec![vec![]]),
            ] {
                let debited = if spec.is_empty() { 1000 } else { 900 };
                let (_net, sources, oneshot_mw) = cluster(Protocol::geotp());
                let oneshot = oneshot_mw.run_transaction(&spec).await;
                assert!(oneshot.committed);
                assert_eq!(oneshot.distributed, !spec.is_empty());

                let (_net2, sources2, session_mw) = cluster(Protocol::geotp());
                let mut session = session::SessionService::connect(&session_mw, 7);
                let outcome = session.run_spec(&spec).await;
                assert!(outcome.committed);
                assert_eq!(
                    outcome.latency, oneshot.latency,
                    "co-located session replay is free"
                );
                assert_eq!(outcome.breakdown.prepare_wait, Duration::ZERO);
                assert_eq!(outcome.breakdown.client_rtt, Duration::ZERO);
                for sources in [&sources, &sources2] {
                    assert_eq!(
                        sources[0]
                            .engine()
                            .peek(gk(1).storage_key())
                            .unwrap()
                            .int_value(),
                        Some(debited)
                    );
                }
                let state = session_mw.session_state(7).unwrap();
                assert_eq!(state.txns_begun, 1);
                assert_eq!(state.live_gtrid, None, "the transaction concluded");
                assert_eq!(session_mw.active_sessions(), 1);
                assert_eq!(
                    oneshot_mw.active_sessions(),
                    0,
                    "the one-shot door registers no session"
                );
            }
        });
    }

    #[test]
    fn declared_plan_prepares_each_branch_at_its_own_final_round() {
        // The one difference between the two doors, pinned: DS0 is touched
        // only in round 0 of a three-round cross-source transaction. A
        // submitted spec declares that, so DS0 prepares as soon as round 0
        // finishes and never sees another statement; a statement stream
        // cannot know, so DS0 prepares only when the annotated last round
        // sends it an empty end-of-branch trigger.
        let spec = TransactionSpec::multi_round(vec![
            vec![ClientOp::add(gk(1), -100)],
            vec![ClientOp::add(gk(1001), 60)],
            vec![ClientOp::add(gk(1002), 40)],
        ]);
        let mut rt = Runtime::new();
        rt.block_on(async {
            // (statements DS0 has seen, prepares it ran) mid-round-1 and at
            // the end; round 0 ends at 10 ms, round 1 at 110 ms.
            async fn observe(
                sources: &[Rc<DataSource>],
                run: geotp_simrt::JoinHandle<TxnOutcome>,
            ) -> [(u64, u64); 2] {
                let ds0 = |sources: &[Rc<DataSource>]| {
                    let stats = sources[0].stats();
                    (stats.statements, stats.decentralized_prepares)
                };
                geotp_simrt::sleep(Duration::from_millis(50)).await;
                let mid = ds0(sources);
                let outcome = run.await;
                assert!(outcome.committed);
                assert_eq!(outcome.breakdown.prepare_wait, Duration::ZERO);
                assert_eq!(sources[1].stats().decentralized_prepares, 1);
                [mid, ds0(sources)]
            }

            let (_net, sources, mw) = cluster(Protocol::geotp_o1());
            let declared = spec.clone();
            let run = geotp_simrt::spawn(async move { mw.run_transaction(&declared).await });
            assert_eq!(
                observe(&sources, run).await,
                [(1, 1), (1, 1)],
                "declared plan: prepared right after round 0, no empty trigger"
            );

            let (_net, sources, mw) = cluster(Protocol::geotp_o1());
            let mut session = session::SessionService::connect(&mw, 1);
            let run = geotp_simrt::spawn(async move { session.run_spec(&spec).await });
            assert_eq!(
                observe(&sources, run).await,
                [(1, 0), (2, 1)],
                "statement stream: prepared by the last round's empty trigger"
            );
        });
    }

    #[test]
    fn interactive_multi_round_txn_commits_through_live_handles() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::geotp());
            let mut session = session::SessionService::connect(&mw, 1);
            let mut txn = session.begin().await.unwrap();
            assert!(txn.gtrid() != 0);
            assert_eq!(mw.live_transactions(), 1);
            // Round 1: debit on the fast source; the branch stays open (and
            // locked) while the client decides what to do next.
            let r1 = txn.execute(&[ClientOp::add(gk(1), -100)]).await.unwrap();
            assert_eq!(r1.rows.len(), 1);
            txn.think(Duration::from_millis(25)).await;
            // Round 2, annotated: credit on the slow source; the fast branch
            // gets its end-of-branch prepare trigger concurrently.
            let r2 = txn
                .execute_last(&[ClientOp::add(gk(1001), 100)])
                .await
                .unwrap();
            assert_eq!(r2.rows.len(), 1);
            let outcome = txn.commit().await;
            assert!(outcome.committed);
            assert!(outcome.distributed);
            assert_eq!(outcome.breakdown.think_time, Duration::from_millis(25));
            // Decentralized prepare ran on both branches — no explicit
            // prepare round trip.
            assert_eq!(sources[0].stats().decentralized_prepares, 1);
            assert_eq!(sources[1].stats().decentralized_prepares, 1);
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(900)
            );
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(1001).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1100)
            );
            assert_eq!(mw.live_transactions(), 0);
        });
    }

    #[test]
    fn per_statement_client_rtt_lands_in_the_breakdown() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let dm = NodeId::middleware(0);
            let client = NodeId::client(0);
            let ds0 = NodeId::data_source(0);
            let ds1 = NodeId::data_source(1);
            let net = NetworkBuilder::new(7)
                .default_lan_rtt(Duration::ZERO)
                .static_link(client, dm, Duration::from_millis(20))
                .static_link(dm, ds0, Duration::from_millis(10))
                .static_link(dm, ds1, Duration::from_millis(100))
                .static_link(ds0, ds1, Duration::from_millis(100))
                .build();
            let mut sources = Vec::new();
            for node in [ds0, ds1] {
                let mut cfg = DataSourceConfig::new(node);
                cfg.agent_lan_rtt = Duration::ZERO;
                cfg.engine = EngineConfig {
                    lock_wait_timeout: Duration::from_secs(5),
                    cost: CostModel::zero(),
                    record_history: false,
                    ..EngineConfig::default()
                };
                let ds = DataSource::new(cfg, Rc::clone(&net));
                for row in 0..ROWS_PER_NODE {
                    let global = node.index() as u64 * ROWS_PER_NODE + row;
                    ds.load(gk(global).storage_key(), Row::int(1000));
                }
                sources.push(ds);
            }
            for a in &sources {
                for b in &sources {
                    if a.index() != b.index() {
                        a.register_peer(b);
                    }
                }
            }
            let mut cfg = MiddlewareConfig::new(
                dm,
                Protocol::geotp(),
                Partitioner::Range {
                    rows_per_node: ROWS_PER_NODE,
                    nodes: 2,
                },
            );
            cfg.analysis_cost = Duration::ZERO;
            cfg.log_flush_cost = Duration::ZERO;
            let mw = Middleware::connect(cfg, Rc::clone(&net), &sources, None);

            let mut session = session::SessionService::connect(&mw.session_service_from(client), 3);
            let outcome = session.run_spec(&transfer_spec()).await;
            assert!(outcome.committed);
            // One 20 ms client round trip each for begin, the single round
            // and commit, on top of the middleware's 200 ms.
            assert_eq!(outcome.breakdown.client_rtt, Duration::from_millis(60));
            assert_eq!(outcome.latency, Duration::from_millis(260));
        });
    }

    #[test]
    fn abandoned_txn_is_rolled_back_and_locks_released() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::geotp());
            let mut session = session::SessionService::connect(&mw, 9);
            let mut txn = session.begin().await.unwrap();
            txn.execute(&[ClientOp::add(gk(1), -500)]).await.unwrap();
            // The client crashes mid-transaction: drop without conclusion.
            txn.abandon();
            // The middleware's connection-loss cleanup rolls the branch back.
            geotp_simrt::sleep(Duration::from_millis(50)).await;
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1000),
                "the abandoned write must be undone"
            );
            // The lock is free again: a conflicting transaction commits.
            let outcome = mw
                .run_transaction(&TransactionSpec::single_round(vec![ClientOp::add(
                    gk(1),
                    7,
                )]))
                .await;
            assert!(outcome.committed);
            let stats = mw.stats();
            assert_eq!(stats.aborted, 1, "the abandoned txn is booked as aborted");
            assert_eq!(mw.live_transactions(), 0);
        });
    }

    #[test]
    fn session_rollback_undoes_nothing_and_reports_client_rollback() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::geotp());
            let mut session = session::SessionService::connect(&mw, 4);
            let mut txn = session.begin().await.unwrap();
            txn.execute(&[ClientOp::add(gk(2), 999)]).await.unwrap();
            let outcome = txn.rollback().await;
            assert!(!outcome.committed);
            assert_eq!(outcome.abort_reason, Some(AbortReason::ClientRollback));
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(2).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1000)
            );
        });
    }

    #[test]
    fn session_sql_front_door_runs_scripts_and_statements() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::geotp());
            let mut session = session::SessionService::connect(&mw, 5);
            // Whole-script path (parsed through the shared plan cache).
            let outcome = session
                .run_sql(
                    "BEGIN; \
                     UPDATE usertable SET bal = bal - 50 WHERE id = 1; \
                     UPDATE usertable SET bal = bal + 50 WHERE id = 1001 /*+ last */; \
                     COMMIT;",
                )
                .await
                .unwrap();
            assert!(outcome.committed);
            assert!(outcome.distributed);
            // Per-statement path with the /*+ last */ annotation.
            let mut txn = session.begin().await.unwrap();
            txn.execute_sql("UPDATE usertable SET bal = bal - 1 WHERE id = 1")
                .await
                .unwrap();
            txn.execute_sql("UPDATE usertable SET bal = bal + 1 WHERE id = 1001 /*+ last */")
                .await
                .unwrap();
            let outcome = txn.commit().await;
            assert!(outcome.committed);
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(949)
            );
            assert_eq!(
                sources[1]
                    .engine()
                    .peek(gk(1001).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1051)
            );
        });
    }

    #[test]
    fn stats_accumulate_across_transactions() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, _sources, mw) = cluster(Protocol::geotp());
            for i in 0..5u64 {
                let spec = TransactionSpec::single_round(vec![
                    ClientOp::add(gk(i), 1),
                    ClientOp::add(gk(1000 + i), 1),
                ]);
                assert!(mw.run_transaction(&spec).await.committed);
            }
            let stats = mw.stats();
            assert_eq!(stats.committed, 5);
            assert_eq!(stats.distributed_committed, 5);
            assert_eq!(stats.aborted, 0);
            assert_eq!(stats.decentralized_prepares, 5);
            assert!(stats.total_postpone_micros >= 5 * 80_000);
        });
    }

    /// SSP(local) gives no atomicity: a distributed one-phase commit whose
    /// slow source crashed before the commit reached it still reports
    /// committed, because the other branch made it.
    #[test]
    fn ssp_local_reports_commit_when_one_branch_made_it() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::SspLocal);
            let mut session = session::SessionService::connect(&mw, 1);
            let mut txn = session.begin().await.unwrap();
            let ops = [ClientOp::add(gk(1), -100), ClientOp::add(gk(1001), 100)];
            txn.execute(&ops).await.unwrap();
            sources[1].crash();
            let outcome = txn.commit().await;
            assert!(outcome.committed, "{outcome:?}");
            assert!(outcome.distributed);
            let balance = sources[0].engine().peek(gk(1).storage_key()).unwrap();
            assert_eq!(balance.int_value(), Some(900));
        });
    }

    /// A voted SSP commit whose source crashes after voting yes and before
    /// the commit is dispatched: the decision is durable, so the client sees
    /// a commit, the failed branch is counted as deferred to recovery, and
    /// `recover()` finishes it once the source is back.
    #[test]
    fn voted_commit_to_a_crashed_source_is_deferred_to_recovery() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (net, sources, _) = cluster(Protocol::SspXa);
            // A 50 ms log flush opens a window between the last vote (t =
            // 200 ms: execution 100 ms + prepare round 100 ms) and the commit
            // dispatch (t = 250 ms).
            let mut cfg = MiddlewareConfig::new(
                NodeId::middleware(0),
                Protocol::SspXa,
                Partitioner::Range {
                    rows_per_node: ROWS_PER_NODE,
                    nodes: 2,
                },
            );
            cfg.analysis_cost = Duration::ZERO;
            cfg.log_flush_cost = Duration::from_millis(50);
            let mw = Middleware::connect(cfg, Rc::clone(&net), &sources, None);
            let victim = Rc::clone(&sources[1]);
            geotp_simrt::spawn(async move {
                geotp_simrt::sleep(Duration::from_millis(225)).await;
                victim.crash();
            });
            let outcome = mw.run_transaction(&transfer_spec()).await;
            assert!(outcome.committed, "{outcome:?}");
            assert_eq!(outcome.breakdown.prepare_wait, Duration::from_millis(100));
            assert_eq!(mw.stats().commits_deferred_to_recovery, 1);
            assert_eq!(sources[1].restart().await.len(), 1);
            assert_eq!(mw.recover().await, (1, 0));
            for (ds, key, balance) in [(0usize, 1u64, 900), (1, 1001, 1100)] {
                let row = sources[ds].engine().peek(gk(key).storage_key()).unwrap();
                assert_eq!(row.int_value(), Some(balance));
            }
        });
    }

    /// A centralized transaction commits one-phase with no vote: if its only
    /// source crashed before the commit, nothing committed.
    #[test]
    fn centralized_commit_to_a_crashed_source_reports_prepare_failed() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = cluster(Protocol::SspXa);
            let mut session = session::SessionService::connect(&mw, 1);
            let mut txn = session.begin().await.unwrap();
            txn.execute(&[ClientOp::add(gk(1), -100)]).await.unwrap();
            sources[0].crash();
            let outcome = txn.commit().await;
            assert!(!outcome.committed);
            assert!(!outcome.distributed);
            assert_eq!(outcome.abort_reason, Some(AbortReason::PrepareFailed));
        });
    }

    /// O3's late transaction scheduling refuses a transaction whose key
    /// Eq. 9 gives no chance of success: the coordinator charges 2 ms of
    /// backoff per lottery draw (11 of them), concludes a definite,
    /// non-retryable admission rejection, and reports the breakdown
    /// accumulated so far.
    #[test]
    fn o3_rejection_charges_the_backoff_and_reports_the_breakdown() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (net, sources, _) = cluster(Protocol::geotp());
            let partitioner = Partitioner::Range {
                rows_per_node: ROWS_PER_NODE,
                nodes: 2,
            };
            let cfg = MiddlewareConfig::new(NodeId::middleware(0), Protocol::geotp(), partitioner);
            let analysis_cost = cfg.analysis_cost;
            assert!(!analysis_cost.is_zero());
            let mw = Middleware::connect(cfg, Rc::clone(&net), &sources, None);
            {
                // Two live accessors and no commit on record: Eq. 9 gives
                // a success probability of 0^1.
                let mut footprint = mw.scheduler().footprint().borrow_mut();
                footprint.on_access_start(&[gk(1)]);
                footprint.on_access_start(&[gk(1)]);
                assert_eq!(footprint.success_probability(&[gk(1)]), 0.0);
            }
            let mut session = session::SessionService::connect(&mw, 1);
            let mut txn = session.begin().await.unwrap();
            let Err(error) = txn.execute(&[ClientOp::add(gk(1), 1)]).await else {
                panic!("a transaction Eq. 9 dooms must be refused admission");
            };
            assert_eq!(error.reason, AbortReason::AdmissionRejected);
            assert!(!error.retryable);
            let backoff = 11 * Duration::from_millis(2);
            assert_eq!(error.outcome.latency, analysis_cost + backoff);
            assert_eq!(error.outcome.breakdown.analysis, analysis_cost);
            assert_eq!(mw.stats().admission_rejections, 1);
        });
    }

    /// Build the 2-source cluster with `SnapshotRead` engines and the
    /// coordinator's snapshot-read fast path enabled.
    fn snapshot_cluster() -> (Rc<Network>, Vec<Rc<DataSource>>, Rc<Middleware>) {
        let dm = NodeId::middleware(0);
        let ds0 = NodeId::data_source(0);
        let ds1 = NodeId::data_source(1);
        let net = NetworkBuilder::new(7)
            .default_lan_rtt(Duration::ZERO)
            .static_link(dm, ds0, Duration::from_millis(10))
            .static_link(dm, ds1, Duration::from_millis(100))
            .static_link(ds0, ds1, Duration::from_millis(100))
            .build();
        let mut sources = Vec::new();
        for node in [ds0, ds1] {
            let mut cfg = DataSourceConfig::new(node);
            cfg.agent_lan_rtt = Duration::ZERO;
            cfg.engine = EngineConfig {
                lock_wait_timeout: Duration::from_secs(5),
                cost: CostModel::zero(),
                record_history: false,
                isolation: geotp_storage::IsolationLevel::SnapshotRead,
                ..EngineConfig::default()
            };
            let ds = DataSource::new(cfg, Rc::clone(&net));
            for row in 0..ROWS_PER_NODE {
                let global = node.index() as u64 * ROWS_PER_NODE + row;
                ds.load(gk(global).storage_key(), Row::int(1000));
            }
            sources.push(ds);
        }
        for a in &sources {
            for b in &sources {
                if a.index() != b.index() {
                    a.register_peer(b);
                }
            }
        }
        let mut cfg = MiddlewareConfig::new(
            dm,
            Protocol::geotp(),
            Partitioner::Range {
                rows_per_node: ROWS_PER_NODE,
                nodes: 2,
            },
        );
        cfg.analysis_cost = Duration::ZERO;
        cfg.log_flush_cost = Duration::ZERO;
        cfg.snapshot_reads = true;
        let mw = Middleware::connect(cfg, Rc::clone(&net), &sources, None);
        (net, sources, mw)
    }

    #[test]
    fn snapshot_read_fast_path_commits_unannotated_read_only_txns() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, _sources, mw) = snapshot_cluster();
            // An unannotated cross-source scan: both branches only read, so
            // the coordinator must skip prepare and the WAL entirely.
            let scan = TransactionSpec::multi_round(vec![
                vec![ClientOp::Read(gk(1)), ClientOp::Read(gk(1001))],
                vec![ClientOp::Read(gk(2))],
            ])
            .without_annotation();
            let mut session = session::SessionService::connect(&mw, 11);
            // Both doors: the one-shot one used to ignore `snapshot_reads`.
            for outcome in [
                session.run_spec(&scan).await,
                mw.run_transaction(&scan).await,
            ] {
                assert!(outcome.committed);
                assert!(outcome.read_only, "the fast path must mark the outcome");
                assert_eq!(outcome.rows.len(), 3);
                assert!(outcome.rows.iter().all(|r| r.int_value() == Some(1000)));
                assert_eq!(
                    outcome.breakdown.prepare_wait,
                    Duration::ZERO,
                    "read-only commits never prepare"
                );
            }
        });
    }

    #[test]
    fn one_write_disqualifies_a_txn_from_the_read_only_fast_path() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (_net, sources, mw) = snapshot_cluster();
            let spec = TransactionSpec::multi_round(vec![
                vec![ClientOp::Read(gk(1))],
                vec![ClientOp::add(gk(1), 5)],
                // Read-your-writes: the third round re-reads the row the
                // transaction itself just wrote.
                vec![ClientOp::Read(gk(1))],
            ])
            .without_annotation();
            let mut session = session::SessionService::connect(&mw, 12);
            let outcome = session.run_spec(&spec).await;
            assert!(outcome.committed);
            assert!(!outcome.read_only, "a write forces the full commit path");
            assert_eq!(
                outcome.rows.last().and_then(|r| r.int_value()),
                Some(1005),
                "a transaction reads its own uncommitted write"
            );
            assert_eq!(
                sources[0]
                    .engine()
                    .peek(gk(1).storage_key())
                    .unwrap()
                    .int_value(),
                Some(1005)
            );
        });
    }
}
