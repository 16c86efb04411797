//! # geotp-workloads — benchmark workloads and measurement harness
//!
//! Re-implements the workloads the paper evaluates with (Benchbase-generated
//! YCSB and TPC-C) plus the measurement plumbing:
//!
//! * [`zipfian`]: the YCSB Zipfian key-chooser (the paper's *skew factor* is
//!   the Zipfian theta: 0.3 / 0.9 / 1.5 for low / medium / high contention),
//! * [`ycsb`]: the transactional YCSB variant (5 operations per transaction,
//!   50% reads / 50% writes, configurable distributed-transaction ratio),
//! * [`tpcc`]: a TPC-C implementation (NewOrder, Payment, OrderStatus,
//!   Delivery, StockLevel) over warehouse-partitioned data,
//! * [`metrics`]: latency histograms, percentiles, throughput and abort-rate
//!   accounting, CDF extraction and a throughput timeline,
//! * [`driver`]: the one closed-loop terminal driver (the Benchbase
//!   stand-in); each terminal's client is a session (the GeoTP middleware,
//!   the coordinator tier, the ScalarDB-style baseline) or a one-shot door
//!   that takes a whole spec (the middleware and both baselines).

pub mod driver;
pub mod metrics;
pub mod tpcc;
pub mod ycsb;
pub mod zipfian;

pub use driver::{run_session_benchmark, BenchmarkReport, DriverConfig, WorkloadMix};
pub use metrics::{Histogram, MetricsCollector, ThroughputTimeline};
pub use tpcc::{consistency_violations, TpccConfig, TpccGenerator, TpccTransaction};
pub use ycsb::{Contention, YcsbConfig, YcsbGenerator};
pub use zipfian::ZipfianGenerator;
