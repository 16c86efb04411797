//! Closed-loop terminal driver (the Benchbase stand-in).
//!
//! The paper drives every system with the same Benchbase terminals: each
//! terminal submits one transaction, waits for its outcome and immediately
//! submits the next. [`run_benchmark`] is that one loop, for a configurable
//! number of terminals, warm-up period and measurement window (all in
//! virtual time). Each terminal connects its own client, and a client is any
//! async closure from a [`TransactionSpec`] to its [`TxnOutcome`]. There are
//! two kinds:
//!
//! * a session — [`run_session_benchmark`] connects one [`SessionService`]
//!   session per terminal and replays its specs through live transaction
//!   handles, with optional client think time between statement rounds
//!   (the GeoTP/SSP middleware, the coordinator tier, ScalarDB);
//! * a one-shot door that takes a whole spec — `mw.run_transaction(spec)`,
//!   ScalarDB's `cluster.run(spec)` and the distributed database's
//!   `db.run(spec)`, its only door.

use std::rc::Rc;
use std::time::Duration;

use geotp_middleware::session::SessionService;
use geotp_middleware::{TransactionSpec, TxnOutcome};
use geotp_simrt::{now, spawn};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::MetricsCollector;
use crate::tpcc::TpccGenerator;
use crate::ycsb::YcsbGenerator;

/// Which workload the terminals run.
pub enum WorkloadMix {
    /// The transactional YCSB variant.
    Ycsb(Rc<YcsbGenerator>),
    /// TPC-C with its configured mix.
    Tpcc(Rc<TpccGenerator>),
    /// An arbitrary generator closure.
    Custom(Rc<dyn Fn(&mut StdRng) -> TransactionSpec>),
}

impl WorkloadMix {
    fn next(&self, rng: &mut StdRng) -> TransactionSpec {
        match self {
            WorkloadMix::Ycsb(g) => g.generate(rng).0,
            WorkloadMix::Tpcc(g) => g.generate(rng).0,
            WorkloadMix::Custom(f) => f(rng),
        }
    }
}

impl Clone for WorkloadMix {
    fn clone(&self) -> Self {
        match self {
            WorkloadMix::Ycsb(g) => WorkloadMix::Ycsb(Rc::clone(g)),
            WorkloadMix::Tpcc(g) => WorkloadMix::Tpcc(Rc::clone(g)),
            WorkloadMix::Custom(f) => WorkloadMix::Custom(Rc::clone(f)),
        }
    }
}

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Number of closed-loop client terminals (the paper's default is 64).
    pub terminals: usize,
    /// Warm-up period excluded from measurement.
    pub warmup: Duration,
    /// Measurement period.
    pub measure: Duration,
    /// Seed for workload generation (each terminal derives its own stream).
    pub seed: u64,
    /// Client think time between the statement rounds of one transaction
    /// (the interactive-terminal shape; lands in the latency breakdown's
    /// `think_time` slice). Zero replays specs back-to-back. Read by
    /// [`run_session_benchmark`]'s sessions; a one-shot door submits whole
    /// specs and has no rounds to think between.
    pub think_time: Duration,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            terminals: 64,
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(10),
            seed: 42,
            think_time: Duration::ZERO,
        }
    }
}

impl DriverConfig {
    /// A small configuration for unit tests and quick-scale benchmarks.
    pub fn quick(terminals: usize, measure: Duration) -> Self {
        Self {
            terminals,
            warmup: Duration::from_millis(500),
            measure,
            seed: 42,
            think_time: Duration::ZERO,
        }
    }
}

/// The result of one benchmark run.
pub struct BenchmarkReport {
    /// Merged metrics over the measurement period.
    pub metrics: MetricsCollector,
    /// Length of the measurement period.
    pub measured: Duration,
    /// Label of the service under test.
    pub label: String,
}

impl BenchmarkReport {
    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.metrics.throughput(self.measured)
    }

    /// Mean latency of committed transactions.
    pub fn mean_latency(&self) -> Duration {
        self.metrics.latency().mean()
    }

    /// p99 latency of committed transactions.
    pub fn p99_latency(&self) -> Duration {
        self.metrics.latency().percentile(99.0)
    }

    /// Abort rate over the measurement period.
    pub fn abort_rate(&self) -> f64 {
        self.metrics.abort_rate()
    }
}

/// Run a closed-loop benchmark of `workload`: each terminal `t` calls
/// `connect(t)` once, in its own task, and submits its generated specs
/// through the client it gets back, one at a time. A refused connection (no
/// live coordinator) is not recorded: the terminal backs off and retries
/// with a new spec, like a real client reconnecting, so a dead deployment
/// cannot busy-loop the driver.
pub async fn run_benchmark<T>(
    label: String,
    workload: WorkloadMix,
    config: DriverConfig,
    connect: impl Fn(u64) -> T + 'static,
) -> BenchmarkReport
where
    T: AsyncFnMut(&TransactionSpec) -> TxnOutcome + 'static,
{
    let start = now();
    let measure_start = start + config.warmup;
    let end = measure_start + config.measure;
    let connect = Rc::new(connect);

    let mut handles = Vec::with_capacity(config.terminals);
    for terminal in 0..config.terminals {
        let connect = Rc::clone(&connect);
        let workload = workload.clone();
        let mut rng = StdRng::seed_from_u64(
            config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(terminal as u64),
        );
        handles.push(spawn(async move {
            let mut collector = MetricsCollector::new(measure_start);
            let mut client = connect(terminal as u64);
            while now() < end {
                let spec = workload.next(&mut rng);
                let outcome = client(&spec).await;
                if outcome.is_refusal() {
                    geotp_simrt::sleep(Duration::from_millis(250)).await;
                    continue;
                }
                let finished = now();
                if finished >= measure_start && finished < end {
                    collector.record(&outcome, finished);
                }
            }
            collector
        }));
    }

    // Await the terminals in order (see `join_all` on why not through it).
    let mut merged = MetricsCollector::new(measure_start);
    for handle in handles {
        merged.merge(&handle.await);
    }
    BenchmarkReport {
        metrics: merged,
        measured: config.measure,
        label,
    }
}

/// [`run_benchmark`] through the session front door: each terminal connects
/// one session (`session_id == terminal`) and replays its specs through live
/// transaction handles, thinking [`DriverConfig::think_time`] between rounds.
pub async fn run_session_benchmark<S>(
    service: Rc<S>,
    workload: WorkloadMix,
    config: DriverConfig,
) -> BenchmarkReport
where
    S: SessionService + 'static,
{
    let think_time = config.think_time;
    run_benchmark(service.label(), workload, config, move |terminal| {
        let mut session = service.connect(terminal);
        async move |spec: &TransactionSpec| session.run_spec_thinking(spec, think_time).await
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_datasource::{DataSource, DataSourceConfig};
    use geotp_middleware::{Middleware, MiddlewareConfig, Protocol};
    use geotp_net::{NetworkBuilder, NodeId};
    use geotp_simrt::Runtime;
    use geotp_storage::{CostModel, EngineConfig};

    use crate::ycsb::{Contention, YcsbConfig};

    /// The middleware's one-shot door as each terminal's client.
    async fn one_shot(
        mw: Rc<Middleware>,
        workload: WorkloadMix,
        config: DriverConfig,
    ) -> BenchmarkReport {
        run_benchmark(mw.label(), workload, config, move |_| {
            let mw = Rc::clone(&mw);
            async move |spec: &TransactionSpec| mw.run_transaction(spec).await
        })
        .await
    }

    fn build_cluster(protocol: Protocol) -> (Rc<Middleware>, Rc<YcsbGenerator>) {
        let dm = NodeId::middleware(0);
        let rtts = [10u64, 50];
        let mut builder = NetworkBuilder::new(5).default_lan_rtt(Duration::from_micros(200));
        for (i, rtt) in rtts.iter().enumerate() {
            builder = builder.static_link(
                dm,
                NodeId::data_source(i as u32),
                Duration::from_millis(*rtt),
            );
        }
        let net = builder.build();
        let ycsb = YcsbConfig::new(2, 200)
            .with_contention(Contention::Medium)
            .with_distributed_ratio(0.3);
        let generator = Rc::new(YcsbGenerator::new(ycsb));
        let sources: Vec<_> = (0..2)
            .map(|i| {
                let mut cfg = DataSourceConfig::new(NodeId::data_source(i));
                cfg.engine = EngineConfig {
                    lock_wait_timeout: Duration::from_secs(2),
                    cost: CostModel::default(),
                    record_history: false,
                    ..EngineConfig::default()
                };
                DataSource::new(cfg, Rc::clone(&net))
            })
            .collect();
        for a in &sources {
            for b in &sources {
                if a.index() != b.index() {
                    a.register_peer(b);
                }
            }
        }
        generator.load(&sources);
        let mw = Middleware::connect(
            MiddlewareConfig::new(dm, protocol, ycsb.partitioner()),
            net,
            &sources,
            None,
        );
        (mw, generator)
    }

    #[test]
    fn closed_loop_driver_produces_sane_throughput() {
        let mut rt = Runtime::new();
        let report = rt.block_on(async {
            let (mw, generator) = build_cluster(Protocol::geotp());
            one_shot(
                mw,
                WorkloadMix::Ycsb(generator),
                DriverConfig {
                    terminals: 8,
                    warmup: Duration::from_millis(500),
                    measure: Duration::from_secs(3),
                    seed: 1,
                    think_time: Duration::ZERO,
                },
            )
            .await
        });
        assert_eq!(report.label, "GeoTP");
        assert!(
            report.metrics.attempts() > 50,
            "attempts {}",
            report.metrics.attempts()
        );
        assert!(
            report.throughput() > 10.0,
            "throughput {}",
            report.throughput()
        );
        assert!(report.mean_latency() > Duration::from_millis(20));
        assert!(report.p99_latency() >= report.mean_latency());
    }

    #[test]
    fn geotp_outperforms_ssp_on_the_same_workload() {
        let mut rt = Runtime::new();
        let (geotp_tput, ssp_tput) = rt.block_on(async {
            let cfg = DriverConfig {
                terminals: 16,
                warmup: Duration::from_millis(500),
                measure: Duration::from_secs(4),
                seed: 9,
                think_time: Duration::ZERO,
            };
            let (geotp_mw, geotp_gen) = build_cluster(Protocol::geotp());
            let geotp = one_shot(geotp_mw, WorkloadMix::Ycsb(geotp_gen), cfg).await;
            let (ssp_mw, ssp_gen) = build_cluster(Protocol::SspXa);
            let ssp = one_shot(ssp_mw, WorkloadMix::Ycsb(ssp_gen), cfg).await;
            (geotp.throughput(), ssp.throughput())
        });
        assert!(
            geotp_tput > ssp_tput,
            "GeoTP ({geotp_tput:.1} tps) should outperform SSP ({ssp_tput:.1} tps)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        fn once() -> (u64, u64) {
            let mut rt = Runtime::new();
            rt.block_on(async {
                let (mw, generator) = build_cluster(Protocol::geotp());
                let report = one_shot(
                    mw,
                    WorkloadMix::Ycsb(generator),
                    DriverConfig::quick(4, Duration::from_secs(2)),
                )
                .await;
                (report.metrics.committed(), report.metrics.aborted())
            })
        }
        assert_eq!(once(), once());
    }

    /// A crashed coordinator refuses the one-shot door without awaiting
    /// anything, so a terminal that did not back off would spin at one
    /// virtual instant and the run would never end.
    #[test]
    fn one_shot_terminals_back_off_from_a_crashed_coordinator() {
        let mut rt = Runtime::new();
        let report = rt.block_on(async {
            let (mw, generator) = build_cluster(Protocol::geotp());
            let crashing = Rc::clone(&mw);
            spawn(async move {
                geotp_simrt::sleep(Duration::from_secs(1)).await;
                crashing.crash();
            });
            let config = DriverConfig {
                warmup: Duration::ZERO,
                ..DriverConfig::quick(4, Duration::from_secs(2))
            };
            one_shot(mw, WorkloadMix::Ycsb(generator), config).await
        });
        assert!(report.metrics.committed() > 0);
    }

    #[test]
    fn session_driver_matches_one_shot_driver_without_think_time() {
        // With a co-located client and zero think time the session driver is
        // the one-shot driver: same terminals, same RNG streams, same
        // committed counts and latency distribution.
        let mut rt = Runtime::new();
        let (oneshot, sessions) = rt.block_on(async {
            let cfg = DriverConfig::quick(6, Duration::from_secs(3));
            let (mw_a, gen_a) = build_cluster(Protocol::geotp());
            let oneshot = one_shot(mw_a, WorkloadMix::Ycsb(gen_a), cfg).await;
            let (mw_b, gen_b) = build_cluster(Protocol::geotp());
            let sessions = run_session_benchmark(mw_b, WorkloadMix::Ycsb(gen_b), cfg).await;
            (oneshot, sessions)
        });
        assert_eq!(oneshot.metrics.committed(), sessions.metrics.committed());
        assert_eq!(oneshot.metrics.aborted(), sessions.metrics.aborted());
        assert_eq!(oneshot.mean_latency(), sessions.mean_latency());
    }

    fn build_tpcc_cluster(
        tpcc: &crate::tpcc::TpccConfig,
    ) -> (Rc<Middleware>, Rc<crate::tpcc::TpccGenerator>) {
        let dm = NodeId::middleware(0);
        let mut builder = NetworkBuilder::new(5).default_lan_rtt(Duration::from_micros(200));
        for (i, rtt) in [10u64, 50].iter().enumerate() {
            builder = builder.static_link(
                dm,
                NodeId::data_source(i as u32),
                Duration::from_millis(*rtt),
            );
        }
        let net = builder.build();
        let sources: Vec<_> = (0..2)
            .map(|i| {
                let mut cfg = DataSourceConfig::new(NodeId::data_source(i));
                cfg.engine = EngineConfig {
                    lock_wait_timeout: Duration::from_secs(2),
                    cost: CostModel::default(),
                    record_history: false,
                    ..EngineConfig::default()
                };
                DataSource::new(cfg, Rc::clone(&net))
            })
            .collect();
        for a in &sources {
            for b in &sources {
                if a.index() != b.index() {
                    a.register_peer(b);
                }
            }
        }
        let generator = Rc::new(crate::tpcc::TpccGenerator::new(tpcc.clone()));
        generator.load(&sources);
        let mw = Middleware::connect(
            MiddlewareConfig::new(dm, Protocol::geotp(), tpcc.partitioner()),
            net,
            &sources,
            None,
        );
        (mw, generator)
    }

    #[test]
    fn think_time_slows_terminals_and_lands_in_latency() {
        let mut rt = Runtime::new();
        let (eager, thinking) = rt.block_on(async {
            let cfg = DriverConfig::quick(4, Duration::from_secs(3));
            // TPC-C transactions are multi-round, so think time has
            // between-round windows to land in.
            let tpcc = {
                let mut t = crate::tpcc::TpccConfig::new(2, 1);
                t.items = 40;
                t.customers_per_district = 20;
                t
            };
            let (mw_a, gen_a) = build_tpcc_cluster(&tpcc);
            let eager = run_session_benchmark(mw_a, WorkloadMix::Tpcc(gen_a), cfg).await;
            let (mw_b, gen_b) = build_tpcc_cluster(&tpcc);
            let thinking = run_session_benchmark(
                mw_b,
                WorkloadMix::Tpcc(gen_b),
                DriverConfig {
                    think_time: Duration::from_millis(50),
                    ..cfg
                },
            )
            .await;
            (eager, thinking)
        });
        assert!(eager.metrics.committed() > 0 && thinking.metrics.committed() > 0);
        assert!(
            thinking.throughput() < eager.throughput(),
            "think time must cost throughput: {} vs {}",
            thinking.throughput(),
            eager.throughput()
        );
        assert!(
            thinking.mean_latency() > eager.mean_latency(),
            "think time is part of the client-observed latency"
        );
    }

    #[test]
    fn custom_workload_mix_runs() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (mw, _generator) = build_cluster(Protocol::geotp());
            let custom = WorkloadMix::Custom(Rc::new(|rng: &mut StdRng| {
                use geotp_middleware::{ClientOp, GlobalKey};
                use geotp_storage::TableId;
                use rand::Rng;
                let key = GlobalKey::new(TableId(0), rng.gen_range(0..100));
                TransactionSpec::single_round(vec![ClientOp::Read(key)])
            }));
            let report = one_shot(mw, custom, DriverConfig::quick(2, Duration::from_secs(1))).await;
            assert!(report.metrics.committed() > 0);
            assert!(report.abort_rate() < 0.01);
        });
    }
}
