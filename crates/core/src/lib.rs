//! # geotp — latency-aware geo-distributed transaction processing
//!
//! This is the public facade of the GeoTP reproduction
//! ("GeoTP: Latency-aware Geo-Distributed Transaction Processing in Database
//! Middlewares", ICDE 2025). It re-exports the component crates and provides
//! [`ClusterBuilder`], a one-stop way to assemble a simulated geo-distributed
//! deployment: a WAN latency matrix, data sources with their geo-agents, and
//! one or more middleware instances running any of the evaluated protocols
//! (GeoTP, SSP, SSP(local), QURO, Chiller).
//!
//! ```
//! use geotp::prelude::*;
//! use std::time::Duration;
//!
//! let mut rt = geotp::runtime();
//! rt.block_on(async {
//!     // Two data sources: one local (10 ms RTT), one remote (100 ms RTT).
//!     let cluster = ClusterBuilder::new()
//!         .data_source(10)
//!         .data_source(100)
//!         .records_per_node(1_000)
//!         .protocol(Protocol::geotp())
//!         .build();
//!     cluster.load_uniform(1_000, 10_000);
//!
//!     // Connect a client session and transfer 100 units between accounts
//!     // on different continents, one statement round at a time. The
//!     // `/*+ last */` round (`execute_last`) triggers GeoTP's
//!     // decentralized prepare as soon as it finishes.
//!     let mut session = cluster.connect(1);
//!     let mut txn = session.begin().await.unwrap();
//!     txn.execute(&[ClientOp::add(GlobalKey::new(geotp::USERTABLE, 1), -100)])
//!         .await
//!         .unwrap();
//!     txn.execute_last(&[ClientOp::add(GlobalKey::new(geotp::USERTABLE, 1_001), 100)])
//!         .await
//!         .unwrap();
//!     let outcome = txn.commit().await;
//!     assert!(outcome.committed);
//!     // Decentralized prepare + latency-aware scheduling: two WAN round
//!     // trips (~200 ms) instead of the three (~300 ms) a classic XA
//!     // middleware needs.
//!     assert!(outcome.latency < Duration::from_millis(220));
//!
//!     // Whole scripts still replay through the same live path.
//!     let spec = TransactionSpec::single_round(vec![
//!         ClientOp::add(GlobalKey::new(geotp::USERTABLE, 1), -100),
//!         ClientOp::add(GlobalKey::new(geotp::USERTABLE, 1_001), 100),
//!     ]);
//!     assert!(session.run_spec(&spec).await.committed);
//! });
//! ```

use std::rc::Rc;
use std::time::Duration;

pub use geotp_chaos as chaos;
pub use geotp_cluster as cluster;
pub use geotp_datasource as datasource;
pub use geotp_distdb as distdb;
pub use geotp_middleware as middleware;
pub use geotp_net as net;
pub use geotp_scalardb as scalardb;
pub use geotp_simrt as simrt;
pub use geotp_storage as storage;
pub use geotp_telemetry as telemetry;
pub use geotp_workloads as workloads;

pub use geotp_chaos::{
    preset, shrink_schedule, shrink_workload, ChaosConfig, ChaosReport, ChaosWorkload, Door,
    DrillWorkload, Fault, FaultEvent, FaultSchedule, InteractiveTransferWorkload, InvariantReport,
    LinkEffect, Preset, ShrinkReport, TierConfig, TpccChaosWorkload, TransferWorkload,
    WorkloadShrinkReport, PRESETS,
};
pub use geotp_cluster::{
    run_open_loop, AdmissionPolicy, ClusterConfig, CoordinatorCluster, CoordinatorLoad,
    MembershipConfig, MembershipTable, OpenLoopConfig, OpenLoopReport, SessionReaperConfig,
    SessionRouter, TierLayout,
};
pub use geotp_datasource::{DataSource, DataSourceConfig, DsConnection};
pub use geotp_middleware::{
    ClientOp, GlobalKey, Middleware, MiddlewareConfig, MiddlewareSessionService, Partitioner,
    Protocol, RetriedOutcome, RetryPolicy, RoundResult, Session, SessionService, TransactionSpec,
    Txn, TxnError, TxnOutcome,
};
pub use geotp_net::{LatencyModel, Network, NetworkBuilder, NodeId, StaticLatency};
pub use geotp_simrt::Runtime;
pub use geotp_storage::{EngineConfig, Row, TableId};
pub use geotp_workloads::run_session_benchmark;
pub use geotp_workloads::ycsb::USERTABLE;

/// Commonly used items for building and driving a cluster.
pub mod prelude {
    pub use crate::{Cluster, ClusterBuilder};
    pub use geotp_middleware::{
        ClientOp, GlobalKey, Middleware, Partitioner, Protocol, RoundResult, Session,
        SessionService, TransactionSpec, Txn, TxnError, TxnOutcome,
    };
    pub use geotp_net::NodeId;
    pub use geotp_storage::Row;
    pub use geotp_workloads::driver::{run_benchmark, run_session_benchmark};
    pub use geotp_workloads::{
        Contention, DriverConfig, TpccConfig, TpccGenerator, WorkloadMix, YcsbConfig, YcsbGenerator,
    };
}

/// Create a fresh simulated-time runtime (convenience re-export).
pub fn runtime() -> Runtime {
    Runtime::new()
}

/// Builds a complete simulated geo-distributed deployment.
pub struct ClusterBuilder {
    seed: u64,
    /// Middleware↔data-source RTT in milliseconds, one per source.
    source_rtts_ms: Vec<u64>,
    protocol: Protocol,
    records_per_node: u64,
    engine: EngineConfig,
    analysis_cost: Duration,
    log_flush_cost: Duration,
    agent_lan_rtt: Duration,
    partitioner: Option<Partitioner>,
    background_monitor: bool,
    extra_middlewares: Vec<Vec<u64>>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// Start building a cluster.
    pub fn new() -> Self {
        Self {
            seed: 42,
            source_rtts_ms: Vec::new(),
            protocol: Protocol::geotp(),
            records_per_node: 1_000,
            engine: EngineConfig::default(),
            analysis_cost: Duration::from_millis(1),
            log_flush_cost: Duration::from_micros(500),
            agent_lan_rtt: Duration::from_micros(500),
            partitioner: None,
            background_monitor: false,
            extra_middlewares: Vec::new(),
        }
    }

    /// Seed for all randomized behaviour (network jitter, admission lottery).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a data source with the given RTT (in milliseconds) from the
    /// (first) middleware.
    pub fn data_source(mut self, rtt_ms: u64) -> Self {
        self.source_rtts_ms.push(rtt_ms);
        self
    }

    /// Add the paper's default deployment: four data sources at
    /// 0 / 27 / 73 / 251 ms RTT.
    pub fn paper_default_sources(mut self) -> Self {
        self.source_rtts_ms
            .extend_from_slice(&geotp_net::PAPER_DEFAULT_RTTS_MS);
        self
    }

    /// Select the commit protocol / optimization set.
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Records per data node used by the default range partitioner and by
    /// [`Cluster::load_uniform`].
    pub fn records_per_node(mut self, records: u64) -> Self {
        self.records_per_node = records;
        self
    }

    /// Storage-engine configuration applied to every data source.
    pub fn engine_config(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Middleware analysis cost per transaction (parse/route/schedule).
    pub fn analysis_cost(mut self, cost: Duration) -> Self {
        self.analysis_cost = cost;
        self
    }

    /// Commit-log flush cost.
    pub fn log_flush_cost(mut self, cost: Duration) -> Self {
        self.log_flush_cost = cost;
        self
    }

    /// LAN RTT between each geo-agent and its co-located database.
    pub fn agent_lan_rtt(mut self, rtt: Duration) -> Self {
        self.agent_lan_rtt = rtt;
        self
    }

    /// Override the partitioner (defaults to range partitioning with
    /// `records_per_node` rows per data source).
    pub fn partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = Some(partitioner);
        self
    }

    /// Spawn the background RTT-monitor ping tasks (needed for the dynamic
    /// network experiments; off by default to keep unit tests quiet).
    pub fn background_monitor(mut self, enabled: bool) -> Self {
        self.background_monitor = enabled;
        self
    }

    /// Add an additional middleware (multi-region deployment, Fig. 15) with
    /// its own RTT vector towards the same data sources.
    pub fn extra_middleware(mut self, rtts_ms: Vec<u64>) -> Self {
        self.extra_middlewares.push(rtts_ms);
        self
    }

    /// Assemble the cluster.
    pub fn build(self) -> Cluster {
        assert!(
            !self.source_rtts_ms.is_empty(),
            "a cluster needs at least one data source"
        );
        let n = self.source_rtts_ms.len() as u32;

        // DM↔DS links as configured (one RTT vector per middleware), DS↔DS
        // links and the geo-agents by the shared wiring convention.
        let mut coordinator_rtts_ms = vec![self.source_rtts_ms];
        coordinator_rtts_ms.extend(self.extra_middlewares.iter().cloned());
        let (net, sources) = geotp_cluster::wire(&geotp_cluster::Wiring {
            seed: self.seed,
            coordinator_rtts_ms,
            control_rtt_ms: None,
            engine: self.engine,
            agent_lan_rtt: self.agent_lan_rtt,
        });

        let partitioner = self.partitioner.unwrap_or(Partitioner::Range {
            rows_per_node: self.records_per_node,
            nodes: n,
        });

        // Middlewares.
        let mut middlewares = Vec::new();
        for m in 0..=self.extra_middlewares.len() {
            let node = NodeId::middleware(m as u32);
            let mut cfg = MiddlewareConfig::new(node, self.protocol, partitioner);
            cfg.analysis_cost = self.analysis_cost;
            cfg.log_flush_cost = self.log_flush_cost;
            cfg.background_monitor = self.background_monitor;
            cfg.scheduler.seed = self.seed.wrapping_add(m as u64);
            middlewares.push(Middleware::connect(cfg, Rc::clone(&net), &sources, None));
        }

        Cluster {
            net,
            sources,
            middlewares,
            partitioner,
            analysis_cost: self.analysis_cost,
        }
    }
}

/// A fully wired simulated deployment.
pub struct Cluster {
    net: Rc<Network>,
    sources: Vec<Rc<DataSource>>,
    middlewares: Vec<Rc<Middleware>>,
    partitioner: Partitioner,
    analysis_cost: Duration,
}

impl Cluster {
    /// The simulated network.
    pub fn network(&self) -> &Rc<Network> {
        &self.net
    }

    /// The data sources, indexed by their data-source id.
    pub fn data_sources(&self) -> &[Rc<DataSource>] {
        &self.sources
    }

    /// The primary middleware.
    pub fn middleware(&self) -> &Rc<Middleware> {
        &self.middlewares[0]
    }

    /// Connect a client session to the primary middleware (the session-first
    /// front door; co-located client, so statement rounds pay no extra hops).
    pub fn connect(&self, session_id: u64) -> Session {
        SessionService::connect(&self.middlewares[0], session_id)
    }

    /// Connect a client session placed at `client`: every statement round
    /// pays the client↔middleware round trip, which lands in
    /// [`geotp_middleware::LatencyBreakdown::client_rtt`].
    pub fn connect_from(&self, client: NodeId, session_id: u64) -> Session {
        self.middlewares[0]
            .session_service_from(client)
            .connect(session_id)
    }

    /// All middlewares (more than one in multi-region deployments).
    pub fn middlewares(&self) -> &[Rc<Middleware>] {
        &self.middlewares
    }

    /// The partitioner used by the middlewares.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// The middleware analysis cost configured at build time.
    pub fn analysis_cost(&self) -> Duration {
        self.analysis_cost
    }

    /// Populate the cluster with `records_per_node × nodes` rows of the YCSB
    /// usertable, each holding the integer `initial_value`.
    ///
    /// Every key is placed on the data source `self.partitioner` routes it
    /// to, so lookups through the same partitioner (the middleware's router,
    /// [`Cluster::sum_records`]) always find the loaded rows. The previous
    /// implementation computed a per-node base offset of
    /// `records_per_node.max(configured)`, which diverged from the range
    /// partitioner's routing whenever the argument exceeded the configured
    /// `records_per_node` — rows were loaded onto nodes that would never be
    /// asked for them.
    pub fn load_uniform(&self, records_per_node: u64, initial_value: i64) {
        let total = records_per_node * self.sources.len() as u64;
        for row in 0..total {
            let key = GlobalKey::new(USERTABLE, row);
            let ds = self.partitioner.route(key) as usize;
            self.sources[ds].load(key.storage_key(), Row::int(initial_value));
        }
    }

    /// Sum a set of records across the cluster (verification helper: a set of
    /// balance-transfer transactions must conserve this sum).
    pub fn sum_records(&self, keys: impl IntoIterator<Item = GlobalKey>) -> i64 {
        keys.into_iter()
            .map(|k| {
                let ds = self.partitioner.route(k) as usize;
                self.sources[ds]
                    .engine()
                    .peek(k.storage_key())
                    .and_then(|r| r.int_value())
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_paper_default_deployment() {
        let mut rt = runtime();
        rt.block_on(async {
            let cluster = ClusterBuilder::new()
                .paper_default_sources()
                .records_per_node(100)
                .protocol(Protocol::geotp())
                .build();
            assert_eq!(cluster.data_sources().len(), 4);
            assert_eq!(
                cluster
                    .network()
                    .nominal_rtt(NodeId::middleware(0), NodeId::data_source(3)),
                Duration::from_millis(251)
            );
            assert_eq!(
                cluster
                    .network()
                    .nominal_rtt(NodeId::data_source(1), NodeId::data_source(3)),
                Duration::from_millis(251),
                "inter-data-source latency follows the farther endpoint"
            );
        });
    }

    #[test]
    fn load_and_transfer_preserves_total_balance() {
        let mut rt = runtime();
        rt.block_on(async {
            let cluster = ClusterBuilder::new()
                .data_source(10)
                .data_source(100)
                .records_per_node(500)
                .protocol(Protocol::geotp())
                .build();
            cluster.load_uniform(500, 1_000);
            let keys = [GlobalKey::new(USERTABLE, 3), GlobalKey::new(USERTABLE, 503)];
            let before = cluster.sum_records(keys);
            let spec = TransactionSpec::single_round(vec![
                ClientOp::add(keys[0], -250),
                ClientOp::add(keys[1], 250),
            ]);
            assert!(cluster.middleware().run_transaction(&spec).await.committed);
            assert_eq!(cluster.sum_records(keys), before);
        });
    }

    #[test]
    fn load_uniform_routes_through_the_partitioner() {
        let mut rt = runtime();
        rt.block_on(async {
            // Regression test: loading *more* rows per node than the
            // configured `records_per_node` used to compute key bases from
            // `max(configured, requested)`, placing rows on nodes the range
            // partitioner would never route a lookup to.
            let cluster = ClusterBuilder::new()
                .data_source(10)
                .data_source(100)
                .records_per_node(100)
                .build();
            cluster.load_uniform(250, 7);
            let partitioner = cluster.partitioner();
            for row in 0..500u64 {
                let key = GlobalKey::new(USERTABLE, row);
                let ds = partitioner.route(key) as usize;
                assert_eq!(
                    cluster.data_sources()[ds]
                        .engine()
                        .peek(key.storage_key())
                        .and_then(|r| r.int_value()),
                    Some(7),
                    "row {row} must live on the node the partitioner routes it to"
                );
            }
            // And the sum helper (which reads through the partitioner) sees
            // every loaded row.
            assert_eq!(
                cluster.sum_records((0..500).map(|r| GlobalKey::new(USERTABLE, r))),
                500 * 7
            );
        });
    }

    #[test]
    fn load_uniform_respects_custom_partitioners() {
        let mut rt = runtime();
        rt.block_on(async {
            let cluster = ClusterBuilder::new()
                .data_source(10)
                .data_source(100)
                .records_per_node(100)
                .partitioner(Partitioner::Hash { nodes: 2 })
                .build();
            cluster.load_uniform(100, 1);
            assert_eq!(
                cluster.sum_records((0..200).map(|r| GlobalKey::new(USERTABLE, r))),
                200
            );
            // Hash partitioning interleaves: each node holds every other row.
            assert_eq!(cluster.data_sources()[0].engine().record_count(), 100);
            assert_eq!(cluster.data_sources()[1].engine().record_count(), 100);
        });
    }

    #[test]
    fn multi_middleware_deployment_has_independent_coordinators() {
        let mut rt = runtime();
        rt.block_on(async {
            let cluster = ClusterBuilder::new()
                .paper_default_sources()
                .records_per_node(100)
                .extra_middleware(geotp_net::PAPER_DM2_RTTS_MS.to_vec())
                .build();
            cluster.load_uniform(100, 0);
            assert_eq!(cluster.middlewares().len(), 2);
            assert_eq!(
                cluster
                    .network()
                    .nominal_rtt(NodeId::middleware(1), NodeId::data_source(0)),
                Duration::from_millis(251)
            );
            // Both middlewares can commit transactions against the same data.
            let spec =
                TransactionSpec::single_round(vec![ClientOp::add(GlobalKey::new(USERTABLE, 1), 1)]);
            for mw in cluster.middlewares() {
                assert!(mw.run_transaction(&spec).await.committed);
            }
            assert_eq!(
                cluster.sum_records([GlobalKey::new(USERTABLE, 1)]),
                2,
                "updates from both middlewares applied"
            );
        });
    }
}
