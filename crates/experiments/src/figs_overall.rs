//! Fig. 5 (overall scalability), Fig. 13 (vs the distributed database),
//! Fig. 15 (multi-region middlewares) and Table I (heterogeneous deployments).

use std::rc::Rc;
use std::time::Duration;

use geotp::{ClusterBuilder, Dialect, Middleware, Protocol};
use geotp_net::PAPER_DM2_RTTS_MS;
use geotp_storage::{CostModel, EngineConfig};
use geotp_workloads::{
    Contention, DriverConfig, TpccConfig, WorkloadMix, YcsbConfig, YcsbGenerator,
};

use crate::report::{ms, tput, Table};
use crate::runner::{run_tpcc, run_ycsb, Deployed, SystemUnderTest, TpccRunSpec, YcsbRunSpec};
use crate::scale::Scale;

/// Fig. 5: throughput vs number of client terminals over YCSB (a) and TPC-C
/// (b) for the five database-middleware systems.
pub fn fig05_scalability(scale: Scale) -> Vec<Table> {
    let systems = SystemUnderTest::overall_set();
    let mut headers: Vec<String> = vec!["terminals".to_string()];
    headers.extend(systems.iter().map(|s| format!("{} (txn/s)", s.name())));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut ycsb_table = Table::new("Fig. 5a — YCSB throughput vs terminals", &header_refs);
    for terminals in scale.terminal_sweep() {
        let mut row = vec![terminals.to_string()];
        for system in &systems {
            let ycsb = YcsbConfig::new(4, scale.records_per_node())
                .with_contention(Contention::Medium)
                .with_distributed_ratio(0.2);
            let mut spec = YcsbRunSpec::new(*system, ycsb, terminals, scale.measure());
            spec.warmup = scale.warmup();
            row.push(tput(run_ycsb(&spec).throughput));
        }
        ycsb_table.push_row(row);
    }

    let mut tpcc_table = Table::new("Fig. 5b — TPC-C throughput vs terminals", &header_refs);
    for terminals in scale.terminal_sweep() {
        let mut row = vec![terminals.to_string()];
        for system in &systems {
            let tpcc = TpccConfig::new(4, scale.warehouses_per_node());
            let mut spec = TpccRunSpec::new(*system, tpcc, terminals, scale.measure());
            spec.warmup = scale.warmup();
            row.push(tput(run_tpcc(&spec).throughput));
        }
        tpcc_table.push_row(row);
    }
    vec![ycsb_table, tpcc_table]
}

/// Fig. 13: GeoTP vs SSP vs the YugabyteDB-like distributed database at the
/// three contention levels (throughput and average latency).
pub fn fig13_yugabyte(scale: Scale) -> Vec<Table> {
    let systems = [
        SystemUnderTest::Middleware(Protocol::SspXa),
        SystemUnderTest::Middleware(Protocol::geotp()),
        SystemUnderTest::DistDb,
    ];
    let mut throughput = Table::new(
        "Fig. 13a — throughput vs contention (YCSB)",
        &["contention", "SSP", "GeoTP", "YugabyteDB"],
    );
    let mut latency = Table::new(
        "Fig. 13b — average latency (ms) vs contention (YCSB)",
        &["contention", "SSP", "GeoTP", "YugabyteDB"],
    );
    for contention in [Contention::Low, Contention::Medium, Contention::High] {
        let mut tput_row = vec![contention.name().to_string()];
        let mut lat_row = vec![contention.name().to_string()];
        for system in systems {
            let ycsb = YcsbConfig::new(4, scale.records_per_node())
                .with_contention(contention)
                .with_distributed_ratio(0.2);
            let mut spec = YcsbRunSpec::new(system, ycsb, scale.terminals(), scale.measure());
            spec.warmup = scale.warmup();
            let result = run_ycsb(&spec);
            tput_row.push(tput(result.throughput));
            lat_row.push(ms(result.mean_latency));
        }
        throughput.push_row(tput_row);
        latency.push_row(lat_row);
    }
    vec![throughput, latency]
}

/// Fig. 15: a single middleware in Beijing vs two middlewares, one per region,
/// each co-located with its clients (the second uses the mirrored RTT vector).
pub fn fig15_multi_dm(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 15 — multi-region middleware deployment (YCSB, GeoTP)",
        &["deployment", "throughput (txn/s)"],
    );
    for multi in [false, true] {
        let mut rt = geotp_simrt::Runtime::new();
        let throughput = rt.block_on(async {
            let mut builder = ClusterBuilder::new()
                .paper_default_sources()
                .records_per_node(scale.records_per_node())
                .protocol(Protocol::geotp())
                .engine_config(EngineConfig {
                    lock_wait_timeout: Duration::from_secs(5),
                    cost: CostModel::default(),
                    record_history: false,
                    ..EngineConfig::default()
                });
            if multi {
                builder = builder.extra_middleware(PAPER_DM2_RTTS_MS.to_vec());
            }
            let cluster = builder.build();
            let ycsb = YcsbConfig::new(4, scale.records_per_node())
                .with_contention(Contention::Medium)
                .with_distributed_ratio(0.2);
            let generator = Rc::new(YcsbGenerator::new(ycsb));
            generator.load(cluster.data_sources());

            let driver = DriverConfig {
                terminals: scale.terminals() / if multi { 2 } else { 1 },
                warmup: scale.warmup(),
                measure: scale.measure(),
                seed: 42,
                think_time: Duration::ZERO,
            };
            let drive = |mw: &Rc<Middleware>, seed| {
                Deployed::Middleware(Rc::clone(mw)).benchmark(
                    WorkloadMix::Ycsb(Rc::clone(&generator)),
                    DriverConfig { seed, ..driver },
                )
            };
            if multi {
                // Each middleware serves its own region's clients concurrently.
                let a = geotp_simrt::spawn(drive(&cluster.middlewares()[0], 42));
                let b = geotp_simrt::spawn(drive(&cluster.middlewares()[1], 43));
                let (ra, rb) = (a.await, b.await);
                ra.throughput() + rb.throughput()
            } else {
                drive(cluster.middleware(), 42).await.throughput()
            }
        });
        table.push_row(vec![
            if multi {
                "Multi-middleware".into()
            } else {
                "Single-middleware".into()
            },
            tput(throughput),
        ]);
    }
    vec![table]
}

/// Table I: heterogeneous deployments (MySQL-only, mixed, PostgreSQL-only) at
/// 25% and 75% distributed transactions, SSP vs GeoTP.
pub fn tab01_heterogeneous(scale: Scale) -> Vec<Table> {
    let scenarios: [(&str, Vec<Dialect>); 3] = [
        ("S1 (MySQL x4)", vec![Dialect::MySql; 4]),
        (
            "S2 (PG/MySQL mixed)",
            vec![
                Dialect::Postgres,
                Dialect::MySql,
                Dialect::Postgres,
                Dialect::MySql,
            ],
        ),
        ("S3 (PostgreSQL x4)", vec![Dialect::Postgres; 4]),
    ];
    let mut table = Table::new(
        "Table I — heterogeneous deployments over YCSB",
        &[
            "scenario",
            "system",
            "dr=25% tput",
            "dr=25% avg lat (ms)",
            "dr=75% tput",
            "dr=75% avg lat (ms)",
        ],
    );
    for (name, dialects) in &scenarios {
        for system in [
            SystemUnderTest::Middleware(Protocol::SspXa),
            SystemUnderTest::Middleware(Protocol::geotp()),
        ] {
            let mut cells = vec![name.to_string(), system.name()];
            for dr in [0.25, 0.75] {
                let ycsb = YcsbConfig::new(4, scale.records_per_node())
                    .with_contention(Contention::Medium)
                    .with_distributed_ratio(dr);
                let mut spec = YcsbRunSpec::new(system, ycsb, scale.terminals(), scale.measure());
                spec.warmup = scale.warmup();
                spec.dialects = Some(dialects.clone());
                let result = run_ycsb(&spec);
                cells.push(tput(result.throughput));
                cells.push(ms(result.mean_latency));
            }
            table.push_row(cells);
        }
    }
    vec![table]
}
