//! Scale-out: end-to-end throughput and tail latency vs coordinator count.
//!
//! Beyond the paper (which fixes one middleware): the same offered load is
//! driven *open-loop* against a 1-, 2- and 4-coordinator tier over the same
//! data sources. Each coordinator has a fixed worker capacity (the
//! connection/worker pool of one proxy instance), so a saturated tier caps
//! at `coordinators × capacity / latency` completed transactions per second
//! and the backlog shows up as a queueing tail in p99 — exactly how an
//! under-provisioned middleware tier behaves in production. The acceptance
//! shape: completed throughput increases monotonically from 1 to 4
//! coordinators, and the p99 collapses once the tier has headroom.
//!
//! This also closes the ROADMAP's "throughput bench gap" note: the closed
//! -loop driver can never show a tier's ceiling, the open-loop drive is the
//! tool that does.

use std::rc::Rc;
use std::time::Duration;

use geotp::cluster::{
    build_tier, run_open_loop, AdmissionPolicy, ClusterConfig, CoordinatorCluster, OpenLoopConfig,
    TierLayout,
};
use geotp::{ClientOp, GlobalKey, Partitioner, Protocol, TableId};
use geotp_middleware::TransactionSpec;
use geotp_storage::{CostModel, EngineConfig, Row};
use rand::Rng;

use crate::report::{ms, tput, Table};
use crate::scale::Scale;

const ROWS_PER_NODE: u64 = 1_000;
const DS_RTTS_MS: [u64; 3] = [10, 60, 120];
/// Worker capacity of one coordinator (concurrent in-flight transactions).
const WORKERS_PER_COORDINATOR: usize = 32;
/// The offered load of both open-loop experiments.
const ARRIVALS_PER_SEC: u64 = 600;

/// The deployment both open-loop experiments (this one and
/// [`crate::overload`]) drive: `coordinators` GeoTP coordinators of
/// [`WORKERS_PER_COORDINATOR`] workers each, admitting under `admission`,
/// over three data sources with every row loaded. Call it inside the
/// simulated runtime.
pub(crate) fn loaded_tier(
    coordinators: usize,
    admission: AdmissionPolicy,
) -> Rc<CoordinatorCluster> {
    let (net, sources) = build_tier(&TierLayout {
        seed: 42,
        coordinators,
        ds_rtts_ms: DS_RTTS_MS.to_vec(),
        control_rtt_ms: 2,
        engine: EngineConfig {
            lock_wait_timeout: Duration::from_secs(2),
            cost: CostModel::default(),
            record_history: false,
            ..EngineConfig::default()
        },
        agent_lan_rtt: Duration::from_micros(500),
    });
    for ds in &sources {
        for row in 0..ROWS_PER_NODE {
            let global = ds.index() as u64 * ROWS_PER_NODE + row;
            ds.load(
                GlobalKey::new(TableId(0), global).storage_key(),
                Row::int(1_000),
            );
        }
    }
    let mut config = ClusterConfig::new(
        coordinators,
        Protocol::geotp(),
        Partitioner::Range {
            rows_per_node: ROWS_PER_NODE,
            nodes: DS_RTTS_MS.len() as u32,
        },
    );
    config.max_inflight = WORKERS_PER_COORDINATOR;
    config.admission = admission;
    CoordinatorCluster::build(config, net, &sources)
}

/// Offer [`ARRIVALS_PER_SEC`] open-loop transfers over 512 sessions to
/// `cluster` for the scale's warm-up and measurement windows: 50%
/// distributed transfers (two rows anywhere in the keyspace).
pub(crate) async fn offer_transfers(
    cluster: &Rc<CoordinatorCluster>,
    scale: Scale,
) -> geotp::OpenLoopReport {
    let total_rows = ROWS_PER_NODE * DS_RTTS_MS.len() as u64;
    run_open_loop(
        cluster,
        move |rng| {
            let src = rng.gen_range(0..total_rows);
            let dst = rng.gen_range(0..total_rows);
            TransactionSpec::single_round(vec![
                ClientOp::add(GlobalKey::new(TableId(0), src), -1),
                ClientOp::add(GlobalKey::new(TableId(0), dst), 1),
            ])
        },
        OpenLoopConfig {
            arrivals_per_sec: ARRIVALS_PER_SEC,
            sessions: 512,
            warmup: scale.warmup(),
            measure: scale.measure(),
            seed: 42,
        },
    )
    .await
}

fn drive(coordinators: usize, scale: Scale) -> geotp::OpenLoopReport {
    let mut rt = geotp_simrt::Runtime::new();
    rt.block_on(async {
        let cluster = loaded_tier(coordinators, AdmissionPolicy::default());
        offer_transfers(&cluster, scale).await
    })
}

/// The scale-out table: offered vs completed throughput and latency, for
/// 1, 2 and 4 coordinators under the same open-loop offered load.
pub fn scaleout(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Scale-out — open-loop throughput vs coordinator count (transfer mix, \
         600 arrivals/s, 32 workers/coordinator)",
        &[
            "coordinators",
            "offered (txn/s)",
            "committed (txn/s)",
            "mean latency (ms)",
            "p99 latency (ms)",
        ],
    );
    for coordinators in [1usize, 2, 4] {
        let report = drive(coordinators, scale);
        table.push_row(vec![
            coordinators.to_string(),
            tput(report.offered as f64 / scale.measure().as_secs_f64()),
            tput(report.throughput),
            ms(report.mean_latency),
            ms(report.p99_latency),
        ]);
    }
    vec![table]
}

/// The acceptance shape, asserted on already-materialized tables so the
/// (expensive) sweep runs once per test pass: completed throughput strictly
/// increases from 1 → 2 → 4 coordinators under the same offered load, and
/// the saturated single coordinator shows the worst tail. Called by the
/// golden gate (`crate::golden`) on the same tables it diffs.
#[cfg(test)]
pub(crate) fn assert_throughput_increases_monotonically(tables: &[Table]) {
    let table = &tables[0];
    assert_eq!(table.len(), 3);
    let tputs: Vec<f64> = table
        .rows
        .iter()
        .map(|r| r[2].parse::<f64>().unwrap())
        .collect();
    assert!(
        tputs[0] < tputs[1] && tputs[1] < tputs[2],
        "throughput must grow monotonically with coordinators: {tputs:?}"
    );
    let p99s: Vec<f64> = table
        .rows
        .iter()
        .map(|r| r[4].parse::<f64>().unwrap())
        .collect();
    assert!(
        p99s[0] > p99s[2],
        "the saturated tier must show the queueing tail: {p99s:?}"
    );
}
