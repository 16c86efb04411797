//! Fig. 12 (ablation of O1/O2/O3 across skew factors) and Fig. 14
//! (transaction length and interactive round count).

use geotp::Protocol;
use geotp_workloads::{Contention, YcsbConfig};

use crate::report::{ms, pct, tput, Table};
use crate::runner::{run, RunSpec, SystemUnderTest, Workload};
use crate::scale::Scale;

/// Fig. 12: SSP vs GeoTP(O1) vs GeoTP(O1–O2) vs GeoTP(O1–O3) with 50%
/// distributed transactions across skew factors; throughput, p99 latency and
/// abort rate.
pub fn fig12_ablation(scale: Scale) -> Vec<Table> {
    let systems = [
        ("SSP", Protocol::SspXa),
        ("GeoTP(O1)", Protocol::geotp_o1()),
        ("GeoTP(O1-O2)", Protocol::geotp_o1_o2()),
        ("GeoTP(O1-O3)", Protocol::geotp()),
    ];
    let mut headers: Vec<String> = vec!["skew".to_string()];
    headers.extend(systems.iter().map(|(n, _)| n.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut throughput = Table::new("Fig. 12 — throughput (txn/s) vs skew factor", &header_refs);
    let mut p99 = Table::new("Fig. 12 — p99 latency (ms) vs skew factor", &header_refs);
    let mut aborts = Table::new("Fig. 12 — abort rate vs skew factor", &header_refs);

    for skew in scale.skew_sweep() {
        let mut tput_row = vec![format!("{skew:.1}")];
        let mut p99_row = vec![format!("{skew:.1}")];
        let mut abort_row = vec![format!("{skew:.1}")];
        for (_, protocol) in &systems {
            let mut ycsb = YcsbConfig::new(4, scale.records_per_node()).with_distributed_ratio(0.5);
            ycsb.theta = skew;
            let system = SystemUnderTest::Middleware(*protocol);
            let result = run(&RunSpec::new(system, Workload::Ycsb(ycsb), scale));
            tput_row.push(tput(result.throughput));
            p99_row.push(ms(result.p99));
            abort_row.push(pct(result.abort_rate));
        }
        throughput.push_row(tput_row);
        p99.push_row(p99_row);
        aborts.push_row(abort_row);
    }
    vec![throughput, p99, aborts]
}

/// Fig. 14: (a) throughput vs transaction length at medium contention;
/// (b)/(c) throughput vs number of interactive rounds at low and medium
/// contention, SSP vs GeoTP.
pub fn fig14_txn_length(scale: Scale) -> Vec<Table> {
    let lengths: Vec<usize> = match scale {
        Scale::Quick => vec![5, 15, 25],
        Scale::Full => vec![5, 10, 15, 20, 25],
    };
    let mut length_table = Table::new(
        "Fig. 14a — throughput vs transaction length (medium contention)",
        &["length", "SSP (txn/s)", "GeoTP (txn/s)"],
    );
    for length in &lengths {
        let mut row = vec![length.to_string()];
        for protocol in [Protocol::SspXa, Protocol::geotp()] {
            let mut ycsb = YcsbConfig::new(4, scale.records_per_node())
                .with_contention(Contention::Medium)
                .with_distributed_ratio(0.2);
            ycsb.ops_per_txn = *length;
            let system = SystemUnderTest::Middleware(protocol);
            let spec = RunSpec::new(system, Workload::Ycsb(ycsb), scale);
            row.push(tput(run(&spec).throughput));
        }
        length_table.push_row(row);
    }

    let rounds: Vec<usize> = match scale {
        Scale::Quick => vec![1, 3, 6],
        Scale::Full => vec![1, 2, 3, 4, 5, 6],
    };
    let mut tables = vec![length_table];
    for contention in [Contention::Low, Contention::Medium] {
        let mut round_table = Table::new(
            format!(
                "Fig. 14{} — throughput vs interaction rounds ({} contention)",
                if contention == Contention::Low {
                    "b"
                } else {
                    "c"
                },
                contention.name()
            ),
            &["rounds", "SSP (txn/s)", "GeoTP (txn/s)"],
        );
        for round_count in &rounds {
            let mut row = vec![round_count.to_string()];
            for protocol in [Protocol::SspXa, Protocol::geotp()] {
                let mut ycsb = YcsbConfig::new(4, scale.records_per_node())
                    .with_contention(contention)
                    .with_distributed_ratio(0.2);
                ycsb.ops_per_txn = 6.max(*round_count);
                ycsb.rounds = *round_count;
                let system = SystemUnderTest::Middleware(protocol);
                let spec = RunSpec::new(system, Workload::Ycsb(ycsb), scale);
                row.push(tput(run(&spec).throughput));
            }
            round_table.push_row(row);
        }
        tables.push(round_table);
    }
    tables
}
