//! Quickstart: build a two-region deployment, connect a client session, run
//! a cross-region bank transfer interactively (via the SQL front door) and
//! print where the latency went.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use geotp::prelude::*;
use geotp::USERTABLE;

fn main() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        // One data source 10 ms away and one 100 ms away, fronted by a GeoTP
        // middleware co-located with the client.
        let cluster = ClusterBuilder::new()
            .data_source(10)
            .data_source(100)
            .records_per_node(10_000)
            .protocol(Protocol::geotp())
            .build();
        cluster.load_uniform(10_000, 1_000);

        println!("== GeoTP quickstart ==");
        println!("DS0: RTT 10 ms   DS1: RTT 100 ms\n");

        // Connect a client session — the front door is session-first: the
        // session holds live transactions and ships statements one round at
        // a time. Bob's account (id 42) lives on DS0, Alice's (id 10_042) on
        // DS1. The `/*+ last */` annotation lets GeoTP trigger the
        // decentralized prepare as soon as that statement finishes.
        let mut session = cluster.connect(1);
        let outcome = session
            .run_sql(
                "BEGIN; \
                 UPDATE savings SET bal = bal - 100 WHERE id = 10042; \
                 UPDATE savings SET bal = bal + 100 WHERE id = 42 /*+ last */; \
                 COMMIT;",
            )
            .await
            .expect("the transfer script parses");

        println!("committed      : {}", outcome.committed);
        println!("distributed    : {}", outcome.distributed);
        println!(
            "total latency  : {:.1} ms",
            outcome.latency.as_secs_f64() * 1e3
        );
        let b = outcome.breakdown;
        println!("  analysis     : {:.2} ms", b.analysis.as_secs_f64() * 1e3);
        println!("  execution    : {:.2} ms", b.execution.as_secs_f64() * 1e3);
        println!(
            "  prepare wait : {:.2} ms  (decentralized prepare, no extra WAN trip)",
            b.prepare_wait.as_secs_f64() * 1e3
        );
        println!("  log flush    : {:.2} ms", b.log_flush.as_secs_f64() * 1e3);
        println!("  commit       : {:.2} ms", b.commit.as_secs_f64() * 1e3);

        let alice = cluster.sum_records([GlobalKey::new(USERTABLE, 10_042)]);
        let bob = cluster.sum_records([GlobalKey::new(USERTABLE, 42)]);
        println!("\nbalances after transfer: Alice={alice}  Bob={bob}");
        assert!(outcome.committed);
        assert_eq!(alice + bob, 2_000);

        // The same transfer from a *remote* client 40 ms from the middleware:
        // every statement round pays the client↔middleware hop, and that
        // time is visible in the breakdown.
        let remote_client = NodeId::client(0);
        cluster.network().set_link(
            remote_client,
            NodeId::middleware(0),
            geotp::StaticLatency::new(std::time::Duration::from_millis(40)),
        );
        let mut remote = cluster.connect_from(remote_client, 2);
        let mut txn = remote.begin().await.unwrap();
        txn.execute_sql("UPDATE savings SET bal = bal - 10 WHERE id = 10042")
            .await
            .unwrap();
        txn.execute_sql("UPDATE savings SET bal = bal + 10 WHERE id = 42 /*+ last */")
            .await
            .unwrap();
        let remote_outcome = txn.commit().await;
        assert!(remote_outcome.committed);
        println!(
            "\nremote client (40 ms away): total {:.1} ms, of which client\u{2194}middleware {:.1} ms",
            remote_outcome.latency.as_secs_f64() * 1e3,
            remote_outcome.breakdown.client_rtt.as_secs_f64() * 1e3
        );
    });
}
