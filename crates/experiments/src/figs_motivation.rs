//! Fig. 1b (motivating example) and Fig. 6 (resource utilisation & latency
//! breakdown).

use std::time::Duration;

use geotp::telemetry::{self, Span, SpanKind};
use geotp::{ClientOp, ClusterBuilder, GlobalKey, Protocol, TransactionSpec, TxnOutcome};
use geotp_workloads::ycsb::USERTABLE;
use geotp_workloads::{Contention, YcsbConfig};

use crate::report::{ms, tput, Table};
use crate::runner::{run, LatencyConfig, RunSpec, SystemUnderTest, Workload};
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
            let system = SystemUnderTest::Middleware(Protocol::SspXa);
            let mut spec = RunSpec::new(system, Workload::Ycsb(ycsb), scale);
            spec.latency = LatencyConfig::Static(vec![10, *rtt]);
            let result = run(&spec);
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
        let result = run(&RunSpec::new(system, Workload::Ycsb(ycsb), scale));
        resources.push_row(vec![
            result.label.clone(),
            tput(result.throughput),
            result.sim_polls.to_string(),
            result.net_messages.to_string(),
            result.hotspot_entries.to_string(),
        ]);
    }

    vec![resources, fig06c_breakdown()]
}

/// Fig. 6c's one transaction on a fresh paper-default deployment: a transfer
/// between the Beijing node (0) and the Singapore node (2). With `traced`,
/// the tracer is installed for the run and its spans come back too.
fn fig06c_transfer(traced: bool) -> (TxnOutcome, Vec<Span>) {
    let mut rt = geotp_simrt::Runtime::new();
    rt.block_on(async {
        let session = traced.then(telemetry::install);
        let cluster = ClusterBuilder::new()
            .paper_default_sources()
            .records_per_node(1_000)
            .protocol(Protocol::geotp())
            .build();
        cluster.load_uniform(1_000, 10_000);
        let spec = TransactionSpec::single_round(vec![
            ClientOp::add(GlobalKey::new(USERTABLE, 1), -100),
            ClientOp::add(GlobalKey::new(USERTABLE, 2_001), 100),
        ]);
        let outcome = cluster.middleware().run_transaction(&spec).await;
        let spans = session.map_or_else(Vec::new, |session| {
            telemetry::uninstall();
            session.tracer.spans().clone()
        });
        assert!(outcome.committed, "breakdown transaction must commit");
        (outcome, spans)
    })
}

/// Fig. 6c's rows: each phase's label, the span kind that times it in the
/// trace, and its stopwatch slice of `outcome`.
fn fig06c_phases(outcome: &TxnOutcome) -> [(&'static str, SpanKind, Duration); 6] {
    let b = outcome.breakdown;
    [
        ("analysis", SpanKind::Analysis, b.analysis),
        ("execution (incl. network)", SpanKind::Round, b.execution),
        ("prepare wait", SpanKind::VoteWait, b.prepare_wait),
        ("commit log flush", SpanKind::LogFlush, b.log_flush),
        ("commit dispatch", SpanKind::CommitDispatch, b.commit),
        ("total", SpanKind::Txn, outcome.latency),
    ]
}

/// Fig. 6c: the stopwatch breakdown of the untraced transfer.
fn fig06c_breakdown() -> Table {
    let mut breakdown = Table::new(
        "Fig. 6c — latency breakdown of one distributed GeoTP transaction (paper deployment)",
        &["phase", "latency (ms)"],
    );
    let (outcome, _) = fig06c_transfer(false);
    for (phase, _, latency) in fig06c_phases(&outcome) {
        breakdown.push_row(vec![phase.into(), ms(latency)]);
    }
    breakdown
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
    let mut cross = Table::new(
        "Fig. 6c (trace-derived) — phase windows from the span tree vs the \
         hand-instrumented breakdown",
        &["phase", "trace (ms)", "instrumented (ms)"],
    );
    let mut path_table = Table::new(
        "Fig. 6c (trace-derived) — critical-path attribution of the same transaction",
        &["span kind", "blocking time (ms)"],
    );
    let (outcome, spans) = fig06c_transfer(true);
    let gtrid = outcome.gtrid;
    for (name, kind, instrumented) in fig06c_phases(&outcome) {
        let traced_micros: u64 = spans
            .iter()
            .filter(|s| s.id.gtrid == gtrid && s.kind == kind)
            .map(|s| s.duration_micros())
            .sum();
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
        let table = fig06c_breakdown();
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
}
