//! Integration tests checking that the *latency structure* the paper derives
//! analytically (Figures 2 and 4) holds end to end through the public API:
//! how many WAN round trips each protocol pays and how the optimizations
//! shrink lock contention spans and improve throughput ordering.

use std::rc::Rc;
use std::time::Duration;

use geotp::prelude::*;
use geotp::storage::{CostModel, EngineConfig};
use geotp::USERTABLE;

const RECORDS: u64 = 1_000;

fn build(protocol: Protocol) -> geotp::Cluster {
    let cluster = ClusterBuilder::new()
        .data_source(10)
        .data_source(100)
        .records_per_node(RECORDS)
        .protocol(protocol)
        .engine_config(EngineConfig {
            lock_wait_timeout: Duration::from_secs(5),
            cost: CostModel::zero(),
            record_history: false,
            ..EngineConfig::default()
        })
        .analysis_cost(Duration::ZERO)
        .log_flush_cost(Duration::ZERO)
        .agent_lan_rtt(Duration::ZERO)
        .build();
    cluster.load_uniform(RECORDS, 1_000);
    cluster
}

fn gk(row: u64) -> GlobalKey {
    GlobalKey::new(USERTABLE, row)
}

fn transfer() -> TransactionSpec {
    TransactionSpec::single_round(vec![
        ClientOp::add(gk(1), -10),
        ClientOp::add(gk(RECORDS + 1), 10),
    ])
}

async fn distributed_latency(protocol: Protocol) -> Duration {
    let cluster = build(protocol);
    let outcome = cluster.middleware().run_transaction(&transfer()).await;
    assert!(outcome.committed, "{}", protocol.name());
    outcome.latency
}

#[test]
fn wan_round_trip_counts_match_the_paper() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        // Classic XA (SSP): execution + prepare + commit = 3 round trips of
        // the slowest data source (100 ms each).
        assert_eq!(
            distributed_latency(Protocol::SspXa).await,
            Duration::from_millis(300)
        );
        // QURO reorders writes but keeps classic 2PC: still 3 round trips.
        assert_eq!(
            distributed_latency(Protocol::Quro).await,
            Duration::from_millis(300)
        );
        // GeoTP's decentralized prepare removes one: 2 round trips.
        assert_eq!(
            distributed_latency(Protocol::geotp()).await,
            Duration::from_millis(200)
        );
        assert_eq!(
            distributed_latency(Protocol::geotp_o1()).await,
            Duration::from_millis(200)
        );
        // SSP(local): no prepare phase either (but no atomicity guarantee).
        assert_eq!(
            distributed_latency(Protocol::SspLocal).await,
            Duration::from_millis(200)
        );
        // Chiller: remote execution+prepare, then local execution, then commit
        // = 100 + 10 + 100 = 210 ms.
        assert_eq!(
            distributed_latency(Protocol::Chiller).await,
            Duration::from_millis(210)
        );
    });
}

#[test]
fn centralized_transactions_cost_one_round_trip_everywhere() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        for protocol in [
            Protocol::SspXa,
            Protocol::SspLocal,
            Protocol::Quro,
            Protocol::Chiller,
            Protocol::geotp(),
        ] {
            let cluster = build(protocol);
            let spec = TransactionSpec::single_round(vec![ClientOp::add(gk(2), 1)]);
            let outcome = cluster.middleware().run_transaction(&spec).await;
            assert!(outcome.committed);
            assert!(!outcome.distributed);
            assert_eq!(
                outcome.latency,
                Duration::from_millis(20),
                "{}: execution + one-phase commit on the 10 ms data source",
                protocol.name()
            );
        }
    });
}

#[test]
fn latency_aware_scheduling_reduces_fast_node_lock_span() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        async fn fast_node_span(protocol: Protocol) -> Duration {
            let cluster = build(protocol);
            cluster.middleware().run_transaction(&transfer()).await;
            let stats = cluster.data_sources()[0].engine().stats();
            Duration::from_micros(stats.total_contention_span_micros)
        }
        let ssp = fast_node_span(Protocol::SspXa).await;
        let o1 = fast_node_span(Protocol::geotp_o1()).await;
        let full = fast_node_span(Protocol::geotp()).await;
        assert!(ssp >= Duration::from_millis(200));
        assert!(o1 >= Duration::from_millis(95) && o1 < ssp);
        assert!(
            full <= Duration::from_millis(20),
            "postponed branch span {full:?}"
        );
    });
}

#[test]
fn multi_round_transactions_schedule_each_round() {
    let mut rt = geotp::runtime();
    rt.block_on(async {
        let cluster = build(Protocol::geotp());
        // Two interactive rounds, each touching both data sources.
        let spec = TransactionSpec::multi_round(vec![
            vec![ClientOp::Read(gk(5)), ClientOp::Read(gk(RECORDS + 5))],
            vec![ClientOp::add(gk(5), 1), ClientOp::add(gk(RECORDS + 5), 1)],
        ]);
        let outcome = cluster.middleware().run_transaction(&spec).await;
        assert!(outcome.committed);
        // Two execution rounds (100 ms each) + commit (100 ms).
        assert_eq!(outcome.latency, Duration::from_millis(300));
        // The fast node's span stays bounded by roughly one round + commit
        // half-trip rather than the full transaction lifetime.
        let span = cluster.data_sources()[0]
            .engine()
            .stats()
            .total_contention_span_micros;
        assert!(span <= 220_000, "fast node span {span}us");
    });
}

#[test]
fn throughput_ordering_matches_fig5_under_contention() {
    // A compact closed-loop run: GeoTP > SSP(local) > SSP on the same
    // medium-contention workload (the ordering the paper reports in Fig. 5a).
    use geotp::workloads::driver::run_benchmark;
    use geotp::workloads::{DriverConfig, WorkloadMix, YcsbConfig, YcsbGenerator};

    fn throughput(protocol: Protocol) -> f64 {
        let mut rt = geotp::runtime();
        rt.block_on(async {
            let cluster = ClusterBuilder::new()
                .data_source(0)
                .data_source(27)
                .data_source(73)
                .data_source(251)
                .records_per_node(1_000)
                .protocol(protocol)
                .build();
            let ycsb = YcsbConfig::new(4, 1_000)
                .with_contention(Contention::Medium)
                .with_distributed_ratio(0.2);
            let generator = Rc::new(YcsbGenerator::new(ycsb));
            generator.load(cluster.data_sources());
            let mw = Rc::clone(cluster.middleware());
            let driver = DriverConfig {
                terminals: 16,
                warmup: Duration::from_secs(1),
                measure: Duration::from_secs(12),
                seed: 5,
                think_time: Duration::ZERO,
            };
            run_benchmark(
                mw.label(),
                WorkloadMix::Ycsb(generator),
                driver,
                move |_| {
                    let mw = Rc::clone(&mw);
                    async move |spec: &TransactionSpec| mw.run_transaction(spec).await
                },
            )
            .await
            .throughput()
        })
    }

    let geotp = throughput(Protocol::geotp());
    let ssp_local = throughput(Protocol::SspLocal);
    let ssp = throughput(Protocol::SspXa);
    assert!(geotp > ssp, "GeoTP {geotp:.1} must beat SSP {ssp:.1}");
    assert!(
        ssp_local >= ssp,
        "SSP(local) {ssp_local:.1} must be at least SSP {ssp:.1}"
    );
    assert!(
        geotp > ssp_local * 0.9,
        "GeoTP should be competitive with the no-atomicity mode"
    );
}
