//! Run a small YCSB benchmark (the paper's default medium-contention
//! configuration, scaled down) against SSP, QURO, Chiller and GeoTP and print
//! a Fig. 7-style comparison.
//!
//! ```text
//! cargo run --release --example ycsb_comparison
//! ```

use std::rc::Rc;
use std::time::Duration;

use geotp::prelude::*;

fn main() {
    let protocols = [
        Protocol::SspXa,
        Protocol::Quro,
        Protocol::Chiller,
        Protocol::geotp(),
    ];
    println!("== YCSB, medium contention, 20% distributed transactions, 4 regions ==\n");
    println!(
        "{:<12} {:>16} {:>16} {:>12} {:>12}",
        "middleware", "tput (txn/s)", "avg lat (ms)", "p99 (ms)", "abort rate"
    );
    for protocol in protocols {
        let mut rt = geotp::runtime();
        let report = rt.block_on(async {
            let cluster = ClusterBuilder::new()
                .paper_default_sources()
                .records_per_node(2_000)
                .protocol(protocol)
                .build();
            let ycsb = YcsbConfig::new(4, 2_000)
                .with_contention(Contention::Medium)
                .with_distributed_ratio(0.2);
            let generator = Rc::new(YcsbGenerator::new(ycsb));
            generator.load(cluster.data_sources());
            let driver = DriverConfig {
                terminals: 16,
                warmup: Duration::from_secs(1),
                measure: Duration::from_secs(8),
                seed: 7,
                think_time: Duration::ZERO,
            };
            // Each terminal submits whole transactions through the
            // middleware's one-shot door.
            let mw = Rc::clone(cluster.middleware());
            run_benchmark(
                mw.label(),
                WorkloadMix::Ycsb(generator),
                driver,
                move |_| {
                    let mw = Rc::clone(&mw);
                    async move |spec: &TransactionSpec| mw.run_transaction(spec).await
                },
            )
            .await
        });
        println!(
            "{:<12} {:>16.1} {:>16.1} {:>12.1} {:>11.1}%",
            report.label,
            report.throughput(),
            report.mean_latency().as_secs_f64() * 1e3,
            report.p99_latency().as_secs_f64() * 1e3,
            report.abort_rate() * 100.0
        );
    }
    println!("\n(virtual-time measurement; wall-clock runtime is a small fraction of the simulated window)");
}
