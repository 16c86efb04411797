//! Overload: graceful degradation vs collapse on a saturated coordinator.
//!
//! The scale-out table shows what a 600 txn/s offered load does to a single
//! 32-worker coordinator: the backlog queues without bound and p99 explodes
//! into the seconds. This experiment drives exactly that saturated
//! deployment twice — once with the legacy unbounded admission (every
//! arrival waits however long the FIFO queue takes) and once with bounded
//! admission (queue of 64, 250 ms queue-time deadline, explicit sheds) —
//! and shows the robustness trade: shedding converts unbounded queueing
//! delay into explicit `Overloaded` rejections, keeping the p99 of the
//! transactions that *are* served bounded instead of collapsing.

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
/// Worker capacity of the single coordinator (same as the scale-out table).
const WORKERS: usize = 32;
/// Offered load — roughly 3× what 32 workers can complete at these RTTs.
const ARRIVALS_PER_SEC: u64 = 600;

/// How often the metrics registry is snapshotted into the timeline during
/// the run (virtual time). The sampler only reads the registry, so the
/// simulated schedule and the golden tables are untouched by sampling.
const TIMELINE_SAMPLE_EVERY: Duration = Duration::from_millis(500);

struct OverloadRow {
    report: geotp::OpenLoopReport,
    shed: u64,
    /// Metrics-timeline CSV for this run (sampled every
    /// [`TIMELINE_SAMPLE_EVERY`]), golden-gated next to the table.
    timeline_csv: String,
}

fn drive(admission: AdmissionPolicy, scale: Scale) -> OverloadRow {
    let previous = geotp_telemetry::uninstall();
    let telemetry = geotp_telemetry::install();
    let mut rt = geotp_simrt::Runtime::new();
    let mut row = rt.block_on(async {
        let (net, sources) = build_tier(&TierLayout {
            seed: 42,
            coordinators: 1,
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
        let nodes = DS_RTTS_MS.len() as u32;
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
            1,
            Protocol::geotp(),
            Partitioner::Range {
                rows_per_node: ROWS_PER_NODE,
                nodes,
            },
        );
        config.max_inflight = WORKERS;
        config.admission = admission;
        let cluster = CoordinatorCluster::build(config, net, &sources);

        // Periodic registry snapshots while the load runs. Sampling only
        // reads the registry — no randomness, no cluster state — so it
        // cannot move an event in the simulated run.
        let done = Rc::new(std::cell::Cell::new(false));
        let sampler = {
            let done = Rc::clone(&done);
            let telemetry = Rc::clone(&telemetry);
            geotp_simrt::spawn(async move {
                while !done.get() {
                    geotp_simrt::sleep(TIMELINE_SAMPLE_EVERY).await;
                    telemetry.metrics.snapshot_to_timeline();
                }
            })
        };

        let total_rows = ROWS_PER_NODE * nodes as u64;
        let report = run_open_loop(
            &cluster,
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
        .await;
        done.set(true);
        sampler.await;
        OverloadRow {
            report,
            shed: cluster.shed_count(),
            timeline_csv: String::new(),
        }
    });
    geotp_telemetry::uninstall();
    if let Some(previous) = previous {
        geotp_telemetry::install_collector(previous);
    }
    row.timeline_csv = geotp_telemetry::metrics_timeline_csv(&telemetry.metrics.timeline());
    row
}

/// The overload table: one saturated coordinator under the same offered
/// load, with load shedding off (legacy unbounded queueing) and on (bounded
/// queue + queue-time deadline).
pub fn overload(scale: Scale) -> Vec<Table> {
    overload_with_timelines(scale).0
}

/// [`overload`], also returning each policy's metrics-timeline CSV
/// (`("off" | "on", csv)`) — the registry sampled every 500 ms
/// (`TIMELINE_SAMPLE_EVERY`) of virtual time, golden-gated next to the
/// table so the *shape over time* of the collapse (queue depth ramps,
/// latency histograms fattening) is pinned, not just the end-of-run
/// aggregates.
pub(crate) fn overload_with_timelines(scale: Scale) -> (Vec<Table>, Vec<(&'static str, String)>) {
    let mut table = Table::new(
        "Overload — graceful degradation vs collapse (1 coordinator, 32 workers, \
         600 arrivals/s; shedding = queue 64, 250 ms queue deadline)",
        &[
            "shedding",
            "offered (txn/s)",
            "committed (txn/s)",
            "shed",
            "mean latency (ms)",
            "p99 latency (ms)",
        ],
    );
    let policies = [
        ("off", AdmissionPolicy::default()),
        (
            "on",
            AdmissionPolicy::bounded(64, Duration::from_millis(250)),
        ),
    ];
    let mut timelines = Vec::new();
    for (label, admission) in policies {
        let row = drive(admission, scale);
        table.push_row(vec![
            label.to_string(),
            tput(row.report.offered as f64 / scale.measure().as_secs_f64()),
            tput(row.report.throughput),
            row.shed.to_string(),
            ms(row.report.mean_latency),
            ms(row.report.p99_latency),
        ]);
        timelines.push((label, row.timeline_csv));
    }
    (vec![table], timelines)
}

/// The acceptance shape, asserted on already-materialized tables so the
/// sweep runs once per test pass: without shedding the saturated tier's p99
/// collapses into unbounded queueing delay; with shedding the served-
/// transaction p99 stays bounded (well under a second) and the overflow is
/// explicitly shed. Called by the golden gate (`crate::golden`) on the same
/// tables it diffs.
#[cfg(test)]
pub(crate) fn assert_shedding_bounds_the_tail(tables: &[Table]) {
    let table = &tables[0];
    assert_eq!(table.len(), 2);
    let p99_off: f64 = table.rows[0][5].parse().unwrap();
    let p99_on: f64 = table.rows[1][5].parse().unwrap();
    let shed_off: u64 = table.rows[0][3].parse().unwrap();
    let shed_on: u64 = table.rows[1][3].parse().unwrap();
    assert_eq!(shed_off, 0, "unbounded admission never sheds");
    assert!(shed_on > 0, "bounded admission must shed under 3× overload");
    assert!(
        p99_on < 1_000.0,
        "with shedding, served p99 stays bounded: {p99_on} ms"
    );
    assert!(
        p99_off > 2.0 * p99_on,
        "without shedding the tail collapses: off={p99_off} ms vs on={p99_on} ms"
    );
}
