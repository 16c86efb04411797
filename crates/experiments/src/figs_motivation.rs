//! Fig. 1b (motivating example) and Fig. 6 (resource utilisation & latency
//! breakdown).

use std::time::Duration;

use geotp::{ClientOp, ClusterBuilder, GlobalKey, Protocol, TransactionSpec};
use geotp_storage::{CostModel, EngineConfig};
use geotp_workloads::ycsb::USERTABLE;
use geotp_workloads::{Contention, YcsbConfig};

use crate::report::{ms, tput, Table};
use crate::runner::{run_ycsb, LatencyConfig, SystemUnderTest, YcsbRunSpec};
use crate::scale::Scale;

/// Fig. 1b: average latency of *centralized* transactions (which only touch
/// DS1, 10 ms away) as the latency to DS2 grows, under low and medium
/// contention, on a classic XA middleware (SSP). Reproduces the observation
/// that motivates the paper: remote latency leaks into local transactions
/// through lock contention.
pub fn fig01_motivation(scale: Scale) -> Vec<Table> {
    let ds2_rtts: Vec<u64> = match scale {
        Scale::Quick => vec![20, 60, 100],
        Scale::Full => vec![20, 40, 60, 80, 100],
    };
    let mut table = Table::new(
        "Fig. 1b — avg latency of centralized transactions vs DM–DS2 RTT (SSP)",
        &[
            "ds2_rtt_ms",
            "LC centralized avg (ms)",
            "MC centralized avg (ms)",
        ],
    );
    for rtt in &ds2_rtts {
        let mut cells = vec![rtt.to_string()];
        for contention in [Contention::Low, Contention::Medium] {
            let mut ycsb = YcsbConfig::new(2, scale.records_per_node())
                .with_contention(contention)
                .with_distributed_ratio(0.2);
            // All centralized transactions hit DS1 (node 0), as in the paper's
            // motivating setup.
            ycsb.home_node = Some(0);
            let mut spec = YcsbRunSpec::new(
                SystemUnderTest::Middleware(Protocol::SspXa),
                ycsb,
                scale.terminals(),
                scale.measure(),
            );
            spec.latency = LatencyConfig::Static(vec![10, *rtt]);
            spec.warmup = scale.warmup();
            let result = run_ycsb(&spec);
            cells.push(ms(result.mean_centralized_latency));
        }
        table.push_row(cells);
    }
    vec![table]
}

/// Fig. 6: (a/b) resource utilisation proxies under the virtual clock —
/// simulation polls, WAN messages and hotspot-footprint size — for SSP vs
/// GeoTP on the default YCSB workload, and (c) the per-phase latency
/// breakdown of one distributed GeoTP transaction.
pub fn fig06_breakdown(scale: Scale) -> Vec<Table> {
    // (a)/(b): resource proxies over the default workload.
    let mut resources = Table::new(
        "Fig. 6a/6b — resource proxies over YCSB (virtual-clock substitutes for CPU%/memory)",
        &[
            "system",
            "throughput (txn/s)",
            "sim polls",
            "WAN messages",
            "hotspot entries",
        ],
    );
    for system in [
        SystemUnderTest::Middleware(Protocol::SspXa),
        SystemUnderTest::Middleware(Protocol::geotp()),
    ] {
        let ycsb = YcsbConfig::new(4, scale.records_per_node())
            .with_contention(Contention::Medium)
            .with_distributed_ratio(0.2);
        let mut spec = YcsbRunSpec::new(system, ycsb, scale.terminals(), scale.measure());
        spec.warmup = scale.warmup();
        let result = run_ycsb(&spec);
        resources.push_row(vec![
            result.label.clone(),
            tput(result.throughput),
            result.sim_polls.to_string(),
            result.net_messages.to_string(),
            result.hotspot_entries.to_string(),
        ]);
    }

    // (c): single-transaction latency breakdown, paper-default deployment.
    let mut breakdown = Table::new(
        "Fig. 6c — latency breakdown of one distributed GeoTP transaction (paper deployment)",
        &["phase", "latency (ms)"],
    );
    let mut rt = geotp_simrt::Runtime::new();
    rt.block_on(async {
        let cluster = ClusterBuilder::new()
            .paper_default_sources()
            .records_per_node(1_000)
            .protocol(Protocol::geotp())
            .engine_config(EngineConfig {
                lock_wait_timeout: Duration::from_secs(5),
                cost: CostModel::default(),
                record_history: false,
                ..EngineConfig::default()
            })
            .build();
        cluster.load_uniform(1_000, 10_000);
        // A transfer between the Beijing node (0) and the Singapore node (2).
        let spec = TransactionSpec::single_round(vec![
            ClientOp::add(GlobalKey::new(USERTABLE, 1), -100),
            ClientOp::add(GlobalKey::new(USERTABLE, 2_001), 100),
        ]);
        let outcome = cluster.middleware().run_transaction(&spec).await;
        assert!(outcome.committed, "breakdown transaction must commit");
        let b = outcome.breakdown;
        breakdown.push_row(vec!["analysis".into(), ms(b.analysis)]);
        breakdown.push_row(vec!["execution (incl. network)".into(), ms(b.execution)]);
        breakdown.push_row(vec!["prepare wait".into(), ms(b.prepare_wait)]);
        breakdown.push_row(vec!["commit log flush".into(), ms(b.log_flush)]);
        breakdown.push_row(vec!["commit dispatch".into(), ms(b.commit)]);
        breakdown.push_row(vec!["total".into(), ms(outcome.latency)]);
    });
    vec![resources, breakdown]
}

/// Fig. 6c re-derived from the distributed trace: run the same
/// single-transaction paper deployment with `geotp-telemetry` installed,
/// rebuild each phase window from the recorded span tree, and cross-check it
/// against the hand-instrumented [`geotp::middleware::LatencyBreakdown`].
/// The two instrumentations are independent — the breakdown is accumulated
/// by stopwatch code inside the coordinator, the spans by the tracer — so
/// agreement here validates both. A third table shows what only the trace
/// can produce: the critical-path attribution of the transaction's latency
/// to its blocking chain, including the data-source side (agent execution,
/// lock waits, decentralized prepare) that the middleware stopwatch cannot
/// see.
pub fn fig06_trace_breakdown(_scale: Scale) -> Vec<Table> {
    use geotp::telemetry::{self, SpanKind};

    let mut cross = Table::new(
        "Fig. 6c (trace-derived) — phase windows from the span tree vs the \
         hand-instrumented breakdown",
        &["phase", "trace (ms)", "instrumented (ms)"],
    );
    let mut path_table = Table::new(
        "Fig. 6c (trace-derived) — critical-path attribution of the same transaction",
        &["span kind", "blocking time (ms)"],
    );
    let mut rt = geotp_simrt::Runtime::new();
    rt.block_on(async {
        let session = telemetry::install();
        let cluster = ClusterBuilder::new()
            .paper_default_sources()
            .records_per_node(1_000)
            .protocol(Protocol::geotp())
            .engine_config(EngineConfig {
                lock_wait_timeout: Duration::from_secs(5),
                cost: CostModel::default(),
                record_history: false,
                ..EngineConfig::default()
            })
            .build();
        cluster.load_uniform(1_000, 10_000);
        let spec = TransactionSpec::single_round(vec![
            ClientOp::add(GlobalKey::new(USERTABLE, 1), -100),
            ClientOp::add(GlobalKey::new(USERTABLE, 2_001), 100),
        ]);
        let outcome = cluster.middleware().run_transaction(&spec).await;
        telemetry::uninstall();
        assert!(outcome.committed, "breakdown transaction must commit");
        let spans = session.tracer.spans();
        let gtrid = outcome.gtrid;
        let phase = |kind: SpanKind| -> u64 {
            spans
                .iter()
                .filter(|s| s.id.gtrid == gtrid && s.kind == kind)
                .map(|s| s.duration_micros())
                .sum()
        };
        let b = outcome.breakdown;
        let pairs: [(&str, u64, Duration); 6] = [
            ("analysis", phase(SpanKind::Analysis), b.analysis),
            (
                "execution (incl. network)",
                phase(SpanKind::Round),
                b.execution,
            ),
            ("prepare wait", phase(SpanKind::VoteWait), b.prepare_wait),
            ("commit log flush", phase(SpanKind::LogFlush), b.log_flush),
            ("commit dispatch", phase(SpanKind::CommitDispatch), b.commit),
            ("total", phase(SpanKind::Txn), outcome.latency),
        ];
        for (name, traced_micros, instrumented) in pairs {
            let drift = traced_micros.abs_diff(instrumented.as_micros() as u64);
            assert!(
                drift <= 100,
                "{name}: trace says {traced_micros}us, stopwatch says {}us",
                instrumented.as_micros()
            );
            cross.push_row(vec![
                name.into(),
                ms(Duration::from_micros(traced_micros)),
                ms(instrumented),
            ]);
        }
        let path =
            telemetry::critical_path(&spans, gtrid).expect("the committed transaction has a trace");
        assert_eq!(
            path.total_micros,
            outcome.latency.as_micros() as u64,
            "critical path must account for the whole client-observed latency"
        );
        for (kind, micros) in path.rows() {
            path_table.push_row(vec![kind.label().into(), ms(Duration::from_micros(micros))]);
        }
    });
    vec![cross, path_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06_trace_breakdown_cross_checks_against_the_stopwatch() {
        // The experiment function itself asserts trace-vs-stopwatch
        // agreement (≤100us per phase) and full critical-path coverage;
        // here we additionally pin the table shape.
        let tables = fig06_trace_breakdown(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 6);
        assert!(
            tables[1].len() >= 3,
            "critical path should cross several span kinds"
        );
    }

    #[test]
    fn fig06_breakdown_produces_the_expected_phases() {
        let table = fig06_breakdown_single_txn_only();
        assert_eq!(table.headers, vec!["phase", "latency (ms)"]);
        assert_eq!(table.len(), 6);
        // The transfer involves the Beijing (0 ms) and Singapore (73 ms)
        // nodes: the commit dispatch is roughly one 73 ms WAN round trip, and
        // the prepare wait is small because the prepare is decentralized.
        let commit: f64 = table
            .cell("commit dispatch", "latency (ms)")
            .unwrap()
            .parse()
            .unwrap();
        assert!((73.0..95.0).contains(&commit), "commit {commit}");
        let prepare: f64 = table
            .cell("prepare wait", "latency (ms)")
            .unwrap()
            .parse()
            .unwrap();
        assert!(prepare < 10.0, "prepare wait {prepare}");
    }

    /// Cheap helper used by the unit test: only the single-transaction
    /// breakdown part of Fig. 6.
    fn fig06_breakdown_single_txn_only() -> Table {
        let mut rt = geotp_simrt::Runtime::new();
        let mut breakdown = Table::new("test", &["phase", "latency (ms)"]);
        rt.block_on(async {
            let cluster = ClusterBuilder::new()
                .paper_default_sources()
                .records_per_node(100)
                .protocol(Protocol::geotp())
                .build();
            cluster.load_uniform(100, 0);
            let spec = TransactionSpec::single_round(vec![
                ClientOp::add(GlobalKey::new(USERTABLE, 1), -1),
                ClientOp::add(GlobalKey::new(USERTABLE, 201), 1),
            ]);
            let outcome = cluster.middleware().run_transaction(&spec).await;
            assert!(outcome.committed);
            let b = outcome.breakdown;
            breakdown.push_row(vec!["analysis".into(), ms(b.analysis)]);
            breakdown.push_row(vec!["execution (incl. network)".into(), ms(b.execution)]);
            breakdown.push_row(vec!["prepare wait".into(), ms(b.prepare_wait)]);
            breakdown.push_row(vec!["commit log flush".into(), ms(b.log_flush)]);
            breakdown.push_row(vec!["commit dispatch".into(), ms(b.commit)]);
            breakdown.push_row(vec!["total".into(), ms(outcome.latency)]);
        });
        breakdown
    }
}
