//! Shared experiment runner: one [`RunSpec`] and one [`run`] for every
//! measured figure point. A run builds a fresh cluster for a system under
//! test, drives it with YCSB or TPC-C ([`Workload`]) through the closed-loop
//! terminal driver and returns the measurements every figure needs. The
//! spec takes its terminals, warm-up and measurement window from the
//! figure's [`Scale`]; a figure overrides only what it sweeps.

use std::rc::Rc;
use std::time::Duration;

use geotp::{Cluster, ClusterBuilder, Protocol};
use geotp_distdb::DistDb;
use geotp_middleware::{
    Middleware, MiddlewareConfig, Partitioner, SessionService, TransactionSpec, TxnOutcome,
};
use geotp_net::{DynamicLatency, NodeId, RandomLatency};
use geotp_scalardb::ScalarDbCluster;
use geotp_simrt::Runtime;
use geotp_workloads::driver::run_benchmark;
use geotp_workloads::{
    BenchmarkReport, DriverConfig, TpccConfig, TpccGenerator, WorkloadMix, YcsbConfig,
    YcsbGenerator,
};

use crate::scale::Scale;

/// Which system a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemUnderTest {
    /// The middleware coordinator with the given protocol (GeoTP, SSP, ...).
    Middleware(Protocol),
    /// The ScalarDB-style baseline (DM-side concurrency control).
    ScalarDb,
    /// ScalarDB+ (ScalarDB architecture + GeoTP's scheduler).
    ScalarDbPlus,
    /// The YugabyteDB-like distributed database baseline.
    DistDb,
}

impl SystemUnderTest {
    /// Display name used in tables.
    pub fn name(&self) -> String {
        match self {
            SystemUnderTest::Middleware(p) => p.name().to_string(),
            SystemUnderTest::ScalarDb => "ScalarDB".to_string(),
            SystemUnderTest::ScalarDbPlus => "ScalarDB+".to_string(),
            SystemUnderTest::DistDb => "YugabyteDB".to_string(),
        }
    }

    /// The standard comparison set of Fig. 5 (DM systems only).
    pub fn overall_set() -> Vec<SystemUnderTest> {
        vec![
            SystemUnderTest::Middleware(Protocol::SspXa),
            SystemUnderTest::Middleware(Protocol::SspLocal),
            SystemUnderTest::ScalarDb,
            SystemUnderTest::ScalarDbPlus,
            SystemUnderTest::Middleware(Protocol::geotp()),
        ]
    }

    /// The scheduling-technique comparison set of Fig. 7/9.
    pub fn scheduling_set() -> Vec<SystemUnderTest> {
        vec![
            SystemUnderTest::Middleware(Protocol::SspXa),
            SystemUnderTest::Middleware(Protocol::Quro),
            SystemUnderTest::Middleware(Protocol::Chiller),
            SystemUnderTest::Middleware(Protocol::geotp()),
        ]
    }
}

/// How the WAN links between the middleware and each data source behave.
#[derive(Debug, Clone)]
pub enum LatencyConfig {
    /// Fixed RTT per data source (milliseconds).
    Static(Vec<u64>),
    /// RTT drawn uniformly in `[base, base*max_factor]` per message.
    Random {
        /// Base RTT per data source.
        base_ms: Vec<u64>,
        /// Upper multiplication factor (the paper uses 1.5).
        max_factor: f64,
    },
    /// Piecewise-constant schedule: `per_node[i][w]` is node `i`'s RTT during
    /// window `w` of length `window`.
    Dynamic {
        /// Window length.
        window: Duration,
        /// Per-node schedules (milliseconds).
        per_node: Vec<Vec<u64>>,
    },
}

impl LatencyConfig {
    /// The paper's default deployment: 0 / 27 / 73 / 251 ms.
    fn paper_default() -> Self {
        LatencyConfig::Static(geotp_net::PAPER_DEFAULT_RTTS_MS.to_vec())
    }

    fn base_rtts(&self) -> Vec<u64> {
        match self {
            LatencyConfig::Static(v) => v.clone(),
            LatencyConfig::Random { base_ms, .. } => base_ms.clone(),
            LatencyConfig::Dynamic { per_node, .. } => per_node
                .iter()
                .map(|s| s.first().copied().unwrap_or(0))
                .collect(),
        }
    }

    /// Install the non-static models on an already-built cluster network.
    fn apply(&self, cluster: &Cluster, dm: NodeId) {
        match self {
            LatencyConfig::Static(_) => {}
            LatencyConfig::Random {
                base_ms,
                max_factor,
            } => {
                for (i, base) in base_ms.iter().enumerate() {
                    cluster.network().set_link(
                        dm,
                        NodeId::data_source(i as u32),
                        RandomLatency::new(Duration::from_millis(*base), 1.0, *max_factor),
                    );
                }
            }
            LatencyConfig::Dynamic { window, per_node } => {
                for (i, schedule) in per_node.iter().enumerate() {
                    cluster.network().set_link(
                        dm,
                        NodeId::data_source(i as u32),
                        DynamicLatency::evenly_spaced(
                            *window,
                            schedule
                                .iter()
                                .map(|ms| Duration::from_millis(*ms))
                                .collect(),
                        ),
                    );
                }
            }
        }
    }
}

/// The workload a run drives, with its generator's configuration.
#[derive(Clone)]
pub enum Workload {
    /// The transactional YCSB variant.
    Ycsb(YcsbConfig),
    /// TPC-C with its configured mix.
    Tpcc(TpccConfig),
}

/// Specification of one measured run.
#[derive(Clone)]
pub struct RunSpec {
    /// System under test.
    pub system: SystemUnderTest,
    /// WAN latency configuration. A [`LatencyConfig::Dynamic`] network also
    /// turns on the coordinator's background RTT monitor.
    pub latency: LatencyConfig,
    /// Workload configuration.
    pub workload: Workload,
    /// Closed-loop terminals.
    pub terminals: usize,
    /// Warm-up excluded from measurement.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
}

impl RunSpec {
    /// A run over the paper's default deployment with `scale`'s terminals,
    /// warm-up and measurement window.
    pub fn new(system: SystemUnderTest, workload: Workload, scale: Scale) -> Self {
        Self {
            system,
            latency: LatencyConfig::paper_default(),
            workload,
            terminals: scale.terminals(),
            warmup: scale.warmup(),
            measure: scale.measure(),
            seed: 42,
        }
    }
}

/// Everything a figure might need from one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// System label.
    pub label: String,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Mean latency of committed transactions.
    pub mean_latency: Duration,
    /// Mean latency of committed *centralized* transactions (Fig. 1b).
    pub mean_centralized_latency: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// 99.9th-percentile latency.
    pub p999: Duration,
    /// Abort rate over attempts.
    pub abort_rate: f64,
    /// Committed transactions in the measurement window.
    pub committed: u64,
    /// `(latency, cumulative fraction)` CDF points over committed txns.
    pub cdf: Vec<(Duration, f64)>,
    /// Committed throughput per timeline window (tx/s).
    pub timeline_tps: Vec<f64>,
    /// One-way messages sent over the simulated WAN during the run.
    pub net_messages: u64,
    /// Scheduler/executor polls performed by the simulation runtime.
    pub sim_polls: u64,
    /// Hot records tracked by the hotspot footprint at the end of the run.
    pub hotspot_entries: usize,
}

fn build_cluster(spec: &RunSpec, records_per_node: u64) -> Cluster {
    // The baselines ride a cluster wired for SSP; its coordinator stays idle.
    let protocol = match spec.system {
        SystemUnderTest::Middleware(protocol) => protocol,
        _ => Protocol::SspXa,
    };
    let mut builder = ClusterBuilder::new()
        .seed(spec.seed)
        .records_per_node(records_per_node)
        .protocol(protocol)
        .background_monitor(matches!(spec.latency, LatencyConfig::Dynamic { .. }));
    for rtt in spec.latency.base_rtts() {
        builder = builder.data_source(rtt);
    }
    let cluster = builder.build();
    spec.latency.apply(&cluster, NodeId::middleware(0));
    cluster
}

/// A system under test standing on a wired cluster, driven through its
/// one-shot door. One type so both workloads drive every system through the
/// same `run_benchmark` call.
#[derive(Clone)]
pub(crate) enum Deployed {
    Middleware(Rc<Middleware>),
    ScalarDb(Rc<ScalarDbCluster>),
    DistDb(Rc<DistDb>),
}

impl Deployed {
    /// Run one whole transaction.
    pub(crate) async fn run(&self, spec: &TransactionSpec) -> TxnOutcome {
        match self {
            Deployed::Middleware(mw) => mw.run_transaction(spec).await,
            Deployed::ScalarDb(cluster) => cluster.run(spec).await,
            Deployed::DistDb(db) => db.run(spec).await,
        }
    }

    /// Display name used in experiment tables.
    pub(crate) fn label(&self) -> String {
        match self {
            Deployed::Middleware(mw) => mw.label(),
            Deployed::ScalarDb(cluster) => cluster.label(),
            Deployed::DistDb(_) => "YugabyteDB-like".to_string(),
        }
    }

    /// Drive this system with the closed-loop terminals, each a client of
    /// its one-shot door.
    pub(crate) async fn benchmark(
        self,
        workload: WorkloadMix,
        driver: DriverConfig,
    ) -> BenchmarkReport {
        run_benchmark(self.label(), workload, driver, move |_| {
            let system = self.clone();
            async move |spec: &TransactionSpec| system.run(spec).await
        })
        .await
    }
}

/// Stand `system` up at the client's node over the cluster's network and
/// (already loaded) data sources, routing with the workload's `partitioner`.
pub(crate) fn deploy(
    system: SystemUnderTest,
    cluster: &Cluster,
    partitioner: Partitioner,
) -> Deployed {
    let dm = NodeId::middleware(0);
    let (net, sources) = (Rc::clone(cluster.network()), cluster.data_sources());
    match system {
        SystemUnderTest::Middleware(_) if partitioner == cluster.partitioner() => {
            Deployed::Middleware(Rc::clone(cluster.middleware()))
        }
        // The cluster's own coordinator routes by range; a workload laid out
        // differently (TPC-C's warehouses) gets a coordinator that follows it.
        SystemUnderTest::Middleware(protocol) => Deployed::Middleware(Middleware::connect(
            MiddlewareConfig::new(dm, protocol, partitioner),
            net,
            sources,
            None,
        )),
        SystemUnderTest::ScalarDb => {
            Deployed::ScalarDb(ScalarDbCluster::new(dm, net, sources, partitioner))
        }
        SystemUnderTest::ScalarDbPlus => {
            Deployed::ScalarDb(ScalarDbCluster::new_plus(dm, net, sources, partitioner))
        }
        SystemUnderTest::DistDb => Deployed::DistDb(DistDb::new(dm, net, sources, partitioner)),
    }
}

/// Run one experiment point. Builds a dedicated runtime and cluster so every
/// point starts from identical, independent state.
pub fn run(spec: &RunSpec) -> RunResult {
    let mut rt = Runtime::new();
    let driver = DriverConfig {
        terminals: spec.terminals,
        warmup: spec.warmup,
        measure: spec.measure,
        seed: spec.seed,
        think_time: Duration::ZERO,
    };
    let mut result = rt.block_on(async {
        let (cluster, workload, partitioner) = match &spec.workload {
            Workload::Ycsb(ycsb) => {
                assert_eq!(
                    spec.latency.base_rtts().len(),
                    ycsb.nodes as usize,
                    "latency config and YCSB node count must agree"
                );
                let cluster = build_cluster(spec, ycsb.records_per_node);
                let generator = Rc::new(YcsbGenerator::new(*ycsb));
                generator.load(cluster.data_sources());
                (cluster, WorkloadMix::Ycsb(generator), ycsb.partitioner())
            }
            // TPC-C keeps the cluster's 1 000-row range; `deploy` routes by warehouse.
            Workload::Tpcc(tpcc) => {
                let cluster = build_cluster(spec, 1_000);
                let generator = Rc::new(TpccGenerator::new(tpcc.clone()));
                generator.load(cluster.data_sources());
                (cluster, WorkloadMix::Tpcc(generator), tpcc.partitioner())
            }
        };
        let service = deploy(spec.system, &cluster, partitioner);
        let BenchmarkReport { metrics, label, .. } =
            service.clone().benchmark(workload, driver).await;
        RunResult {
            label,
            throughput: metrics.throughput(spec.measure),
            mean_latency: metrics.latency().mean(),
            mean_centralized_latency: metrics.centralized_latency().mean(),
            p99: metrics.latency().percentile(99.0),
            p999: metrics.latency().percentile(99.9),
            abort_rate: metrics.abort_rate(),
            committed: metrics.committed(),
            cdf: metrics.latency().cdf(100),
            timeline_tps: metrics.timeline().series_tps(),
            net_messages: cluster.network().total_messages(),
            sim_polls: 0,
            hotspot_entries: match service {
                Deployed::Middleware(mw) => mw.scheduler().footprint().borrow().len(),
                _ => 0,
            },
        }
    });
    result.sim_polls = rt.metrics().polls;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_workloads::Contention;

    fn quick_ycsb(system: SystemUnderTest) -> RunResult {
        let ycsb = YcsbConfig::new(2, 500)
            .with_contention(Contention::Medium)
            .with_distributed_ratio(0.2);
        let mut spec = RunSpec::new(system, Workload::Ycsb(ycsb), Scale::Quick);
        spec.terminals = 4;
        spec.measure = Duration::from_secs(2);
        spec.latency = LatencyConfig::Static(vec![10, 100]);
        run(&spec)
    }

    #[test]
    fn ycsb_runner_produces_throughput_for_every_system() {
        for system in [
            SystemUnderTest::Middleware(Protocol::geotp()),
            SystemUnderTest::Middleware(Protocol::SspXa),
            SystemUnderTest::ScalarDb,
            SystemUnderTest::DistDb,
        ] {
            let result = quick_ycsb(system);
            assert!(result.committed > 0, "{} committed nothing", system.name());
            assert!(result.throughput > 0.0);
            assert!(result.mean_latency > Duration::ZERO);
            assert!(result.p99 >= result.mean_latency / 2);
        }
    }

    #[test]
    fn geotp_beats_ssp_in_the_runner_too() {
        let geotp = quick_ycsb(SystemUnderTest::Middleware(Protocol::geotp()));
        let ssp = quick_ycsb(SystemUnderTest::Middleware(Protocol::SspXa));
        assert!(
            geotp.throughput > ssp.throughput,
            "GeoTP {:.1} vs SSP {:.1}",
            geotp.throughput,
            ssp.throughput
        );
    }

    /// Every system runs TPC-C as itself: the database used to fall through
    /// to the SSP arm and be measured under a "YugabyteDB" column header.
    #[test]
    fn tpcc_runner_commits_transactions() {
        for (system, label) in [
            (SystemUnderTest::Middleware(Protocol::geotp()), "GeoTP"),
            (SystemUnderTest::ScalarDbPlus, "ScalarDB+"),
            (SystemUnderTest::DistDb, "YugabyteDB-like"),
        ] {
            let mut tpcc = TpccConfig::new(2, 2);
            tpcc.items = 100;
            tpcc.customers_per_district = 30;
            let mut spec = RunSpec::new(system, Workload::Tpcc(tpcc), Scale::Quick);
            spec.terminals = 4;
            spec.measure = Duration::from_secs(2);
            spec.latency = LatencyConfig::Static(vec![10, 100]);
            let result = run(&spec);
            assert_eq!(result.label, label);
            assert!(result.committed > 0, "{label} committed nothing");
            assert!(result.throughput > 0.0);
        }
    }

    #[test]
    fn run_results_are_deterministic() {
        let a = quick_ycsb(SystemUnderTest::Middleware(Protocol::geotp()));
        let b = quick_ycsb(SystemUnderTest::Middleware(Protocol::geotp()));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.mean_latency, b.mean_latency);
    }
}
