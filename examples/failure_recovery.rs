//! Failure recovery walk-through (paper §V-A): the middleware crashes after
//! flushing a COMMIT decision but before dispatching it; a data source
//! crashes with a prepared branch. A fresh middleware instance sharing the
//! durable commit log finishes both correctly.
//!
//! ```text
//! cargo run --example failure_recovery
//! ```

use std::rc::Rc;

use geotp::datasource::{DsOperation, PrepareVote, StatementRequest};
use geotp::middleware::Decision;
use geotp::prelude::*;
use geotp::storage::Xid;
use geotp::USERTABLE;

fn main() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        let cluster = ClusterBuilder::new()
            .data_source(10, Dialect::MySql)
            .data_source(100, Dialect::MySql)
            .records_per_node(1_000)
            .protocol(Protocol::geotp())
            .build();
        cluster.load_uniform(1_000, 500);
        let mw = cluster.middleware();
        println!("== Middleware failure recovery ==");

        // Drive both branches of a distributed transfer to the PREPARED state
        // by hand, simulating a middleware that crashed right after flushing
        // its commit decision.
        let gtrid = 777;
        for (i, ds) in cluster.data_sources().iter().enumerate() {
            let xid = Xid::new(gtrid, i as u32);
            let conn =
                geotp::DsConnection::new(mw.node(), Rc::clone(ds), Rc::clone(cluster.network()));
            let resp = conn
                .execute(StatementRequest {
                    xid,
                    begin: true,
                    ops: vec![DsOperation::AddInt {
                        key: GlobalKey::new(USERTABLE, i as u64 * 1_000 + 3).storage_key(),
                        col: 0,
                        delta: if i == 0 { -200 } else { 200 },
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
            println!("  branch {xid} prepared on {}", ds.node());
        }
        mw.commit_log()
            .flush_decision(gtrid, Decision::Commit)
            .await;
        println!("  commit decision for gtrid {gtrid} flushed to the durable log");
        println!("  ... middleware crashes before dispatching the commit ...\n");

        // One data source also crashes and restarts: its prepared branch
        // survives (paper setting ❷).
        cluster.data_sources()[1].crash();
        let recovered = cluster.data_sources()[1].restart().await;
        println!(
            "  data source ds1 restarted; prepared branches recovered: {:?}",
            recovered
        );

        // A successor instance (same durable commit log, gtrids continuing
        // past the predecessor's) takes over.
        let (_successor, (committed, aborted)) = mw.fail_over(|_, _| {}).await;
        println!("\n  recovery finished: {committed} branch(es) committed, {aborted} aborted");

        let a = cluster.sum_records([GlobalKey::new(USERTABLE, 3)]);
        let b = cluster.sum_records([GlobalKey::new(USERTABLE, 1_003)]);
        println!(
            "  balances after recovery: {a} and {b} (sum preserved: {})",
            a + b
        );
        assert_eq!(committed, 2);
        assert_eq!(a, 300);
        assert_eq!(b, 700);
        println!("\nAtomicity held across the middleware crash and the data-source restart.");
    });
}
