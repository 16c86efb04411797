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
//! * [`driver`]: a closed-loop terminal driver (the Benchbase stand-in) that
//!   runs any [`driver::TransactionService`] — the GeoTP middleware, the
//!   ScalarDB-style baseline or the distributed-database baseline.

pub mod driver;
pub mod metrics;
pub mod tpcc;
pub mod ycsb;
pub mod zipfian;

pub use driver::{
    run_session_benchmark, BenchmarkReport, DriverConfig, TransactionService, WorkloadMix,
};
pub use metrics::{Histogram, MetricsCollector, ThroughputTimeline};
pub use tpcc::{consistency_violations, TpccConfig, TpccGenerator, TpccTransaction};
pub use ycsb::{Contention, YcsbConfig, YcsbGenerator};
pub use zipfian::ZipfianGenerator;
