//! Shared experiment runner: builds a fresh cluster for a system under test,
//! drives it with YCSB or TPC-C through the closed-loop terminal driver and
//! returns the measurements every figure needs.

use std::rc::Rc;
use std::time::Duration;

use geotp::{Cluster, ClusterBuilder, Dialect, Protocol};
use geotp_distdb::DistDb;
use geotp_middleware::{
    Middleware, MiddlewareConfig, Partitioner, SessionService, TransactionSpec, TxnOutcome,
};
use geotp_net::{DynamicLatency, JitteredLatency, NodeId, RandomLatency};
use geotp_scalardb::ScalarDbCluster;
use geotp_simrt::Runtime;
use geotp_storage::{CostModel, EngineConfig};
use geotp_workloads::driver::run_benchmark;
use geotp_workloads::{
    BenchmarkReport, DriverConfig, TpccConfig, TpccGenerator, WorkloadMix, YcsbConfig,
    YcsbGenerator,
};

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
    /// Gaussian jitter: `(mean_ms, std_ms)` per data source.
    Jittered(Vec<(u64, u64)>),
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
    pub fn paper_default() -> Self {
        LatencyConfig::Static(geotp_net::PAPER_DEFAULT_RTTS_MS.to_vec())
    }

    fn node_count(&self) -> usize {
        match self {
            LatencyConfig::Static(v) => v.len(),
            LatencyConfig::Jittered(v) => v.len(),
            LatencyConfig::Random { base_ms, .. } => base_ms.len(),
            LatencyConfig::Dynamic { per_node, .. } => per_node.len(),
        }
    }

    fn base_rtts(&self) -> Vec<u64> {
        match self {
            LatencyConfig::Static(v) => v.clone(),
            LatencyConfig::Jittered(v) => v.iter().map(|(m, _)| *m).collect(),
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
            LatencyConfig::Jittered(params) => {
                for (i, (mean, std)) in params.iter().enumerate() {
                    cluster.network().set_link(
                        dm,
                        NodeId::data_source(i as u32),
                        JitteredLatency::new(
                            Duration::from_millis(*mean),
                            Duration::from_millis(*std),
                        ),
                    );
                }
            }
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

/// Specification of one YCSB run.
#[derive(Clone)]
pub struct YcsbRunSpec {
    /// System under test.
    pub system: SystemUnderTest,
    /// WAN latency configuration.
    pub latency: LatencyConfig,
    /// Per-data-source dialect (defaults to MySQL everywhere).
    pub dialects: Option<Vec<Dialect>>,
    /// Workload configuration (records, skew, distributed ratio, ...).
    pub ycsb: YcsbConfig,
    /// Closed-loop terminals.
    pub terminals: usize,
    /// Warm-up excluded from measurement.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
    /// Data-source lock-wait timeout (the paper configures 5 s).
    pub lock_wait_timeout: Duration,
    /// Spawn the background RTT monitor (needed when latency changes online).
    pub background_monitor: bool,
}

impl YcsbRunSpec {
    /// A run over the paper's default deployment with the given system,
    /// workload and driver parameters.
    pub fn new(
        system: SystemUnderTest,
        ycsb: YcsbConfig,
        terminals: usize,
        measure: Duration,
    ) -> Self {
        Self {
            system,
            latency: LatencyConfig::paper_default(),
            dialects: None,
            ycsb,
            terminals,
            warmup: Duration::from_millis(500),
            measure,
            seed: 42,
            lock_wait_timeout: Duration::from_secs(5),
            background_monitor: false,
        }
    }
}

/// Specification of one TPC-C run.
#[derive(Clone)]
pub struct TpccRunSpec {
    /// System under test.
    pub system: SystemUnderTest,
    /// WAN latency configuration.
    pub latency: LatencyConfig,
    /// Workload configuration.
    pub tpcc: TpccConfig,
    /// Closed-loop terminals.
    pub terminals: usize,
    /// Warm-up excluded from measurement.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
}

impl TpccRunSpec {
    /// A run over the paper's default deployment.
    pub fn new(
        system: SystemUnderTest,
        tpcc: TpccConfig,
        terminals: usize,
        measure: Duration,
    ) -> Self {
        Self {
            system,
            latency: LatencyConfig::paper_default(),
            tpcc,
            terminals,
            warmup: Duration::from_millis(500),
            measure,
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
    /// Mean latency of committed *distributed* transactions.
    pub mean_distributed_latency: Duration,
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

fn report_to_result(report: &BenchmarkReport, measure: Duration) -> RunResult {
    RunResult {
        label: report.label.clone(),
        throughput: report.metrics.throughput(measure),
        mean_latency: report.metrics.latency().mean(),
        mean_centralized_latency: report.metrics.centralized_latency().mean(),
        mean_distributed_latency: report.metrics.distributed_latency().mean(),
        p99: report.metrics.latency().percentile(99.0),
        p999: report.metrics.latency().percentile(99.9),
        abort_rate: report.metrics.abort_rate(),
        committed: report.metrics.committed(),
        cdf: report.metrics.latency().cdf(100),
        timeline_tps: report.metrics.timeline().series_tps(),
        net_messages: 0,
        sim_polls: 0,
        hotspot_entries: 0,
    }
}

fn engine_config(lock_wait_timeout: Duration) -> EngineConfig {
    EngineConfig {
        lock_wait_timeout,
        cost: CostModel::default(),
        record_history: false,
        ..EngineConfig::default()
    }
}

fn build_cluster(
    system: SystemUnderTest,
    latency: &LatencyConfig,
    dialects: &Option<Vec<Dialect>>,
    records_per_node: u64,
    lock_wait_timeout: Duration,
    seed: u64,
    background_monitor: bool,
) -> Cluster {
    // The baselines ride a cluster wired for SSP; its coordinator stays idle.
    let protocol = match system {
        SystemUnderTest::Middleware(protocol) => protocol,
        _ => Protocol::SspXa,
    };
    let rtts = latency.base_rtts();
    let mut builder = ClusterBuilder::new()
        .seed(seed)
        .records_per_node(records_per_node)
        .protocol(protocol)
        .engine_config(engine_config(lock_wait_timeout))
        .background_monitor(background_monitor);
    for (i, rtt) in rtts.iter().enumerate() {
        let dialect = dialects
            .as_ref()
            .and_then(|d| d.get(i).copied())
            .unwrap_or(Dialect::MySql);
        builder = builder.data_source(*rtt, dialect);
    }
    let cluster = builder.build();
    latency.apply(&cluster, NodeId::middleware(0));
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

/// Deploy `system` on the loaded cluster, drive it and collect the result.
async fn measure(
    system: SystemUnderTest,
    cluster: &Cluster,
    partitioner: Partitioner,
    workload: WorkloadMix,
    driver: DriverConfig,
) -> RunResult {
    let service = deploy(system, cluster, partitioner);
    let report = service.clone().benchmark(workload, driver).await;
    let mut result = report_to_result(&report, driver.measure);
    result.net_messages = cluster.network().total_messages();
    if let Deployed::Middleware(middleware) = service {
        result.hotspot_entries = middleware.scheduler().footprint().borrow().len();
    }
    result
}

/// Run one YCSB experiment point. Builds a dedicated runtime and cluster so
/// every point starts from identical, independent state.
pub fn run_ycsb(spec: &YcsbRunSpec) -> RunResult {
    assert_eq!(
        spec.latency.node_count(),
        spec.ycsb.nodes as usize,
        "latency config and YCSB node count must agree"
    );
    let mut rt = Runtime::new();
    let driver = DriverConfig {
        terminals: spec.terminals,
        warmup: spec.warmup,
        measure: spec.measure,
        seed: spec.seed,
        think_time: Duration::ZERO,
    };
    let generator = Rc::new(YcsbGenerator::new(spec.ycsb));
    let mut result = rt.block_on(async {
        let cluster = build_cluster(
            spec.system,
            &spec.latency,
            &spec.dialects,
            spec.ycsb.records_per_node,
            spec.lock_wait_timeout,
            spec.seed,
            spec.background_monitor,
        );
        generator.load(cluster.data_sources());
        let workload = WorkloadMix::Ycsb(Rc::clone(&generator));
        measure(
            spec.system,
            &cluster,
            spec.ycsb.partitioner(),
            workload,
            driver,
        )
        .await
    });
    result.sim_polls = rt.metrics().polls;
    result
}

/// Run one TPC-C experiment point.
pub fn run_tpcc(spec: &TpccRunSpec) -> RunResult {
    let mut rt = Runtime::new();
    let driver = DriverConfig {
        terminals: spec.terminals,
        warmup: spec.warmup,
        measure: spec.measure,
        seed: spec.seed,
        think_time: Duration::ZERO,
    };
    let generator = Rc::new(TpccGenerator::new(spec.tpcc.clone()));
    let mut result = rt.block_on(async {
        let cluster = build_cluster(
            spec.system,
            &spec.latency,
            &None,
            1_000,
            Duration::from_secs(5),
            spec.seed,
            false,
        );
        generator.load(cluster.data_sources());
        let workload = WorkloadMix::Tpcc(Rc::clone(&generator));
        measure(
            spec.system,
            &cluster,
            spec.tpcc.partitioner(),
            workload,
            driver,
        )
        .await
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
        let mut spec = YcsbRunSpec::new(system, ycsb, 4, Duration::from_secs(2));
        spec.latency = LatencyConfig::Static(vec![10, 100]);
        run_ycsb(&spec)
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
            let mut spec = TpccRunSpec::new(system, tpcc, 4, Duration::from_secs(2));
            spec.latency = LatencyConfig::Static(vec![10, 100]);
            let result = run_tpcc(&spec);
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
