//! The telemetry golden gate: installing the tracer must not move a single
//! event in a chaos run.
//!
//! `geotp-telemetry` promises zero schedule perturbation — it never consumes
//! randomness, never sleeps, never spawns. The only acceptable proof is
//! end-to-end: run the same preset and seed with and without a collector
//! installed and require the replay fingerprints (an order-sensitive FNV-1a
//! over the full event trace) to be *byte-identical*. Any telemetry call
//! that so much as reorders two timer wakeups breaks this test.

use geotp_chaos::{attach_trace_on_failure, preset, traced, write_failure_artifact, DrillWorkload};
use geotp_telemetry::SpanKind;

/// Presets covering every instrumented subsystem: decentralized prepare and
/// early abort, partitions (net drops), coordinator failover + recovery
/// spans, the interactive session path with admission, and the seeded-random
/// schedule as a catch-all.
const GOLDEN_SCENARIOS: &[&str] = &[
    "prepare_phase_crash",
    "commit_phase_partition",
    "coordinator_failover",
    "interactive_client_chaos",
    "randomized_faults",
];

#[test]
fn fingerprints_are_byte_identical_with_tracing_on_and_off() {
    for scenario in GOLDEN_SCENARIOS.iter().map(|name| preset(name)) {
        for seed in [1u64, 7, 23] {
            let untraced = scenario.run(seed);
            let (traced, telemetry) = traced(|| scenario.run(seed));
            assert_eq!(
                untraced.fingerprint, traced.fingerprint,
                "{} seed {seed}: tracing perturbed the schedule",
                scenario.name
            );
            assert_eq!(
                untraced.trace, traced.trace,
                "{} seed {seed}: event traces diverged line-for-line",
                scenario.name
            );
            assert!(
                !telemetry.tracer.is_empty(),
                "{} seed {seed}: traced run recorded no spans",
                scenario.name
            );
            // The registry must agree with the report on commits: every
            // client-observed commit was recorded by some coordinator
            // incarnation (commits whose reply was lost to a crash make the
            // counter strictly larger, never smaller).
            let committed = telemetry.metrics.snapshot().counter_total("mw.committed");
            assert!(
                committed >= traced.committed,
                "{} seed {seed}: registry saw {committed} commits, clients saw {}",
                scenario.name,
                traced.committed
            );
        }
    }
}

#[test]
fn tpcc_mix_fingerprint_survives_tracing() {
    let brownout = preset("wan_brownout");
    let untraced = brownout.run_with(5, DrillWorkload::Tpcc);
    let (traced, telemetry) = traced(|| brownout.run_with(5, DrillWorkload::Tpcc));
    assert_eq!(untraced.fingerprint, traced.fingerprint);
    assert!(!telemetry.tracer.is_empty());
}

#[test]
fn traced_spans_reconstruct_per_txn_trees_with_rounds_and_votes() {
    let (report, telemetry) = traced(|| preset("prepare_phase_crash").run(11));
    assert!(report.committed > 0);
    let spans = telemetry.tracer.spans();
    // Every traced transaction has exactly one root Txn span, and at least
    // one committed transaction's tree reaches down to data-source work.
    let mut saw_agent_exec = false;
    for gtrid in telemetry.tracer.gtrids() {
        let mine: Vec<_> = spans.iter().filter(|s| s.id.gtrid == gtrid).collect();
        let roots = mine
            .iter()
            .filter(|s| s.kind == SpanKind::Txn && s.parent.is_none())
            .count();
        assert!(
            roots <= 1,
            "gtrid {gtrid}: {roots} Txn roots on one coordinator trace"
        );
        saw_agent_exec |= mine.iter().any(|s| s.kind == SpanKind::AgentExec);
    }
    assert!(
        saw_agent_exec,
        "no data-source span joined a coordinator trace"
    );
    // Critical-path analysis works straight off the recorded spans.
    let gtrids = telemetry.tracer.gtrids();
    let agg = geotp_telemetry::aggregate_critical_path(&spans, &gtrids);
    assert!(agg.txns > 0);
    assert!(agg.total_micros > 0);
}

#[test]
fn failure_artifact_is_written_only_for_red_runs() {
    let (report, telemetry) = traced(|| preset("prepare_phase_crash").run(3));
    assert!(report.invariants.all_hold());
    let dir = std::path::Path::new("../../target/chaos/test_artifacts");
    // Green run: attach_trace_on_failure declines to write.
    let none = attach_trace_on_failure(dir, "green_run", &report, &telemetry).unwrap();
    assert!(none.is_none());
    assert!(!dir.join("green_run.trace.json").exists());
    assert!(!dir.join("green_run.metrics.txt").exists());
    // Forced write (the path a failed minimized drill takes): all three
    // artifact files appear and the trace file is Chrome-trace JSON.
    let path = write_failure_artifact(dir, "forced", &report, &telemetry).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.starts_with("{\"displayTimeUnit\"") && json.contains("\"ph\":\"X\""));
    let events = std::fs::read_to_string(dir.join("forced.events.txt")).unwrap();
    assert!(events.contains("scenario start"));
    assert!(events.contains("mw.committed"));
    // The standalone metrics snapshot matches what the event log embeds:
    // every line of metrics.txt also closes out events.txt.
    let metrics = std::fs::read_to_string(dir.join("forced.metrics.txt")).unwrap();
    assert!(metrics.contains("mw.committed"));
    assert!(!metrics.contains("scenario start"));
    assert!(events.ends_with(&metrics));
}
