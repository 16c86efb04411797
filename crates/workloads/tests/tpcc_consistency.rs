//! TPC-C consistency conditions as plain in-process tests — no chaos, no
//! faults, a quiet network. These pin down that the *checker* and the
//! *workload* agree on what consistency means, so that when the same checker
//! runs red under the chaos harness the finding convicts the protocol, not
//! the checker.

use std::rc::Rc;
use std::time::Duration;

use geotp_datasource::{DataSource, DataSourceConfig};
use geotp_middleware::{Middleware, MiddlewareConfig, Protocol};
use geotp_net::{NetworkBuilder, NodeId};
use geotp_simrt::spawn;
use geotp_storage::{CostModel, EngineConfig, Row, Value};
use geotp_workloads::tpcc::{
    consistency_violations, wh_key, TpccConfig, TpccGenerator, DISTRICT, NEW_ORDER, ORDERS, STOCK,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_config(nodes: u32) -> TpccConfig {
    let mut cfg = TpccConfig::new(nodes, 2);
    cfg.items = 40;
    cfg.customers_per_district = 20;
    cfg.distributed_ratio = 0.4;
    cfg
}

/// Build a quiet simulated cluster and run `clients × txns` TPC-C
/// transactions through the real middleware, then return the sources.
fn run_tpcc_mix(seed: u64, clients: usize, txns: usize) -> (TpccConfig, Vec<Rc<DataSource>>) {
    let config = small_config(2);
    let mut rt = geotp_simrt::Runtime::new();
    let sources = rt.block_on({
        let config = config.clone();
        async move {
            let dm = NodeId::middleware(0);
            let mut net_builder =
                NetworkBuilder::new(seed).default_lan_rtt(Duration::from_micros(500));
            for i in 0..config.nodes {
                net_builder = net_builder.static_link(
                    dm,
                    NodeId::data_source(i),
                    Duration::from_millis(5 + 10 * i as u64),
                );
            }
            net_builder = net_builder.static_link(
                NodeId::data_source(0),
                NodeId::data_source(1),
                Duration::from_millis(15),
            );
            let net = net_builder.build();

            let mut sources = Vec::new();
            for i in 0..config.nodes {
                let mut ds_cfg = DataSourceConfig::new(NodeId::data_source(i));
                ds_cfg.engine = EngineConfig {
                    lock_wait_timeout: Duration::from_secs(2),
                    cost: CostModel::default(),
                    record_history: false,
                    ..EngineConfig::default()
                };
                sources.push(DataSource::new(ds_cfg, Rc::clone(&net)));
            }
            for a in &sources {
                for b in &sources {
                    if a.index() != b.index() {
                        a.register_peer(b);
                    }
                }
            }

            let generator = Rc::new(TpccGenerator::new(config.clone()));
            generator.load(&sources);

            let mut mw_cfg = MiddlewareConfig::new(dm, Protocol::geotp(), config.partitioner());
            mw_cfg.scheduler.seed = seed;
            let mw = Middleware::connect(mw_cfg, Rc::clone(&net), &sources, None);

            let mut handles = Vec::new();
            for client in 0..clients {
                let mw = Rc::clone(&mw);
                let generator = Rc::clone(&generator);
                handles.push(spawn(async move {
                    let mut rng = StdRng::seed_from_u64(seed ^ (client as u64 * 0x9e37 + 1));
                    for _ in 0..txns {
                        let (spec, _) = generator.generate(&mut rng);
                        let _ = mw.run_transaction(&spec).await;
                    }
                }));
            }
            for handle in handles {
                handle.await;
            }
            sources
        }
    });
    (config, sources)
}

#[test]
fn freshly_loaded_tables_are_consistent() {
    let config = small_config(2);
    let mut rt = geotp_simrt::Runtime::new();
    rt.block_on(async {
        let net = NetworkBuilder::new(1).build();
        let sources: Vec<_> = (0..2)
            .map(|i| {
                DataSource::new(
                    DataSourceConfig::new(NodeId::data_source(i)),
                    Rc::clone(&net),
                )
            })
            .collect();
        TpccGenerator::new(config.clone()).load(&sources);
        assert_eq!(
            consistency_violations(&config, &sources),
            Vec::<String>::new()
        );
    });
}

#[test]
fn mixed_workload_preserves_all_conditions() {
    for seed in [3, 11] {
        let (config, sources) = run_tpcc_mix(seed, 4, 25);
        let violations = consistency_violations(&config, &sources);
        assert!(
            violations.is_empty(),
            "seed {seed} violated TPC-C consistency:\n  {}",
            violations.join("\n  ")
        );
        // The run was not vacuous: orders actually landed.
        let orders: usize = sources
            .iter()
            .map(|s| s.engine().snapshot_table(ORDERS).len())
            .sum();
        assert!(orders > 0, "no NewOrder committed at seed {seed}");
    }
}

/// The checker is not vacuous either: perturbing final state — the kind of
/// damage a partial commit or lost write would leave — turns it red. This is
/// also the deliberate-drift demonstration the golden-table CI gate builds
/// on.
#[test]
fn checker_flags_deliberate_perturbations() {
    let (config, sources) = run_tpcc_mix(7, 2, 20);
    assert!(consistency_violations(&config, &sources).is_empty());

    // Perturbation 1: bump one district's YTD without the warehouse's.
    let key = wh_key(DISTRICT, 1, 1).storage_key();
    let victim = &sources[0];
    let mut row = victim.engine().peek(key).expect("district row");
    row.add_int(0, 100);
    victim.engine().load(key, row);
    let violations = consistency_violations(&config, &sources);
    assert!(
        violations.iter().any(|v| v.contains("w_ytd")),
        "district/warehouse YTD drift not flagged: {violations:?}"
    );

    // Perturbation 2: an ORDERS row with no matching NEW_ORDER entry
    // (half-applied NewOrder).
    let (config2, sources2) = run_tpcc_mix(9, 2, 20);
    let orphan = wh_key(ORDERS, 1, 10_000_000 + 9_999_999); // district 1
    sources2[0]
        .engine()
        .load(orphan.storage_key(), Row::from_values(vec![Value::Int(0)]));
    let violations = consistency_violations(&config2, &sources2);
    assert!(
        violations.iter().any(|v| v.contains("NEW_ORDER")),
        "orphan order not flagged: {violations:?}"
    );

    // Perturbation 3: stock consumed with no order line recorded.
    let (config3, sources3) = run_tpcc_mix(13, 2, 20);
    let stock_key = wh_key(STOCK, 1, 1).storage_key();
    let mut stock = sources3[0].engine().peek(stock_key).expect("stock row");
    stock.add_int(0, -1);
    sources3[0].engine().load(stock_key, stock);
    let violations = consistency_violations(&config3, &sources3);
    assert!(
        violations.iter().any(|v| v.contains("stock")),
        "stock drift not flagged: {violations:?}"
    );

    // NEW_ORDER table untouched by any perturbation above keeps its count.
    let _ = NEW_ORDER;
}
