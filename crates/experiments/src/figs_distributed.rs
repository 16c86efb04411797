//! Fig. 7 (YCSB, varying distributed-transaction ratio), Fig. 8 (latency
//! CDFs) and Fig. 9 (TPC-C, varying distributed-transaction ratio).

use geotp::Protocol;
use geotp_workloads::{Contention, TpccConfig, TpccTransaction, YcsbConfig};

use crate::report::{ms, pct, tput, Table};
use crate::runner::{run, RunSpec, SystemUnderTest, Workload};
use crate::scale::Scale;

/// Fig. 7: throughput and average latency as the fraction of distributed
/// transactions grows, at the three contention levels, for SSP, QURO, Chiller
/// and GeoTP.
pub fn fig07_dist_ratio_ycsb(scale: Scale) -> Vec<Table> {
    let systems = SystemUnderTest::scheduling_set();
    let mut tables = Vec::new();
    for contention in [Contention::Low, Contention::Medium, Contention::High] {
        let mut headers: Vec<String> = vec!["dist_ratio".to_string()];
        for s in &systems {
            headers.push(format!("{} tput", s.name()));
            headers.push(format!("{} lat (ms)", s.name()));
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(
            format!("Fig. 7 — YCSB {} contention", contention.name()),
            &header_refs,
        );
        for dr in scale.dist_ratios() {
            let mut row = vec![format!("{dr:.1}")];
            for system in &systems {
                let ycsb = YcsbConfig::new(4, scale.records_per_node())
                    .with_contention(contention)
                    .with_distributed_ratio(dr);
                let result = run(&RunSpec::new(*system, Workload::Ycsb(ycsb), scale));
                row.push(tput(result.throughput));
                row.push(ms(result.mean_latency));
            }
            table.push_row(row);
        }
        tables.push(table);
    }
    tables
}

/// Fig. 8: latency distribution (percentile summary of the CDF) with 60%
/// distributed transactions, for SSP, SSP(local) and GeoTP at each contention
/// level.
pub fn fig08_latency_cdf(scale: Scale) -> Vec<Table> {
    let systems = [
        SystemUnderTest::Middleware(Protocol::SspXa),
        SystemUnderTest::Middleware(Protocol::SspLocal),
        SystemUnderTest::Middleware(Protocol::geotp()),
    ];
    let mut tables = Vec::new();
    for contention in [Contention::Low, Contention::Medium, Contention::High] {
        let mut table = Table::new(
            format!(
                "Fig. 8 — latency CDF summary, {} contention, 60% distributed",
                contention.name()
            ),
            &[
                "system",
                "p50 (ms)",
                "p90 (ms)",
                "p95 (ms)",
                "p99 (ms)",
                "p99.9 (ms)",
                "abort rate",
            ],
        );
        for system in systems {
            let ycsb = YcsbConfig::new(4, scale.records_per_node())
                .with_contention(contention)
                .with_distributed_ratio(0.6);
            let result = run(&RunSpec::new(system, Workload::Ycsb(ycsb), scale));
            let at = |frac: f64| {
                result
                    .cdf
                    .iter()
                    .find(|(_, f)| *f >= frac)
                    .map(|(d, _)| *d)
                    .unwrap_or(result.p999)
            };
            table.push_row(vec![
                result.label.clone(),
                ms(at(0.50)),
                ms(at(0.90)),
                ms(at(0.95)),
                ms(result.p99),
                ms(result.p999),
                pct(result.abort_rate),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Fig. 9: TPC-C Payment (a) and NewOrder (b) throughput and latency as the
/// distributed-transaction ratio grows.
pub fn fig09_dist_ratio_tpcc(scale: Scale) -> Vec<Table> {
    let systems = SystemUnderTest::scheduling_set();
    let mut tables = Vec::new();
    for profile in [TpccTransaction::Payment, TpccTransaction::NewOrder] {
        let mut headers: Vec<String> = vec!["dist_ratio".to_string()];
        for s in &systems {
            headers.push(format!("{} tput", s.name()));
            headers.push(format!("{} lat (ms)", s.name()));
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(format!("Fig. 9 — TPC-C {}", profile.name()), &header_refs);
        for dr in scale.dist_ratios() {
            let mut row = vec![format!("{dr:.1}")];
            for system in &systems {
                let tpcc = TpccConfig::new(4, scale.warehouses_per_node())
                    .with_only(profile)
                    .with_distributed_ratio(dr);
                let result = run(&RunSpec::new(*system, Workload::Tpcc(tpcc), scale));
                row.push(tput(result.throughput));
                row.push(ms(result.mean_latency));
            }
            table.push_row(row);
        }
        tables.push(table);
    }
    tables
}
