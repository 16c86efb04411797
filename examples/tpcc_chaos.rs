//! TPC-C under chaos, plus the "my nightly failed" workflow: catch an
//! isolation bug with the serializability checker and shrink the failing
//! fault schedule to a minimal, replayable timeline.
//!
//! ```text
//! cargo run --release --example tpcc_chaos [seed]
//! ```
//!
//! Part 1 runs the real five-profile TPC-C mix through a named chaos preset
//! and prints the four checker verdicts (atomicity, durability, liveness,
//! serializability). Part 2 arms the storage engines' lock-bypass fail point
//! (every 2nd read skips its shared lock — a deliberately injected isolation
//! bug), proves the checker catches it under a noisy seeded-random schedule,
//! then delta-debugs the schedule down to a minimal repro and writes it to
//! `target/chaos/minimized_timeline.txt`, replays the minimized repro with
//! the deterministic tracer installed, and attaches the span tree as
//! `target/chaos/minimized.trace.json` (Perfetto-loadable; the chaos-drills
//! CI job uploads both files as artifacts).

use geotp::chaos::{
    attach_trace_on_failure, preset, run, shrink_schedule, traced, DrillWorkload, FaultSchedule,
};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);

    // ---------------- part 1: TPC-C under a chaos preset ----------------
    let scenario = preset("crash_during_brownout");
    println!("== TPC-C under chaos: {} (seed {seed}) ==\n", scenario.name);
    let report = scenario.run_with(seed, DrillWorkload::Tpcc);
    for line in report.trace.iter().rev().take(8).rev() {
        println!("  {line}");
    }
    println!(
        "\nclient view: {} committed, {} aborted, {} indeterminate",
        report.committed, report.aborted, report.indeterminate
    );
    println!(
        "invariants: atomicity={} durability={} liveness={} serializability={}",
        report.invariants.atomicity_ok,
        report.invariants.durability_ok,
        report.invariants.liveness_ok,
        report.invariants.serializability_ok
    );
    assert!(
        report.invariants.all_hold(),
        "{:?}",
        report.invariants.violations
    );
    assert_eq!(
        report.fingerprint,
        scenario.run_with(seed, DrillWorkload::Tpcc).fingerprint,
        "replay must be bit-identical"
    );
    println!("replay fingerprint matches — the run is bit-reproducible.");

    // ---------------- part 2: inject a bug, catch it, shrink it ----------------
    println!("\n== injected isolation bug: catch + shrink ==\n");
    let (mut config, _) = preset("randomized_faults").build(seed);
    config.isolation_bug_read_stride = Some(2);
    let noisy = FaultSchedule::random(config.seed, 8);
    let fails = |schedule: &FaultSchedule| {
        let workload = DrillWorkload::Tpcc.build(&config);
        let report = run(config.clone(), schedule.clone(), workload);
        !report.invariants.serializability_ok
    };
    println!("noisy schedule: {} events", noisy.events.len());
    let Some(shrink) = shrink_schedule(&noisy, 80, fails) else {
        // CI runs this as a gate: a shrink that silently does nothing must
        // fail the step, not upload no artifact. (Regression-pinned seeds
        // live in crates/chaos/tests/shrink_repro.rs; seed 1 trips the bug.)
        eprintln!("seed {seed} did not trip the injected bug — the shrink gate is vacuous");
        std::process::exit(1);
    };
    println!(
        "checker caught the bug; ddmin: {} -> {} event(s) in {} run(s)",
        shrink.initial_events, shrink.minimized_events, shrink.runs
    );
    let timeline = shrink.timeline();
    println!("minimized replayable timeline:\n{timeline}");
    let replayed = FaultSchedule::parse_timeline(&timeline).expect("timeline parses");
    assert!(fails(&replayed), "replayed timeline must still fail");
    println!("replayed timeline still fails — minimal repro confirmed.");

    let out_dir = std::path::Path::new("target/chaos");
    std::fs::create_dir_all(out_dir).expect("create target/chaos");
    let out = out_dir.join("minimized_timeline.txt");
    std::fs::write(&out, &timeline).expect("write timeline artifact");
    println!("artifact written: {}", out.display());

    // Replay the minimized repro once more with the deterministic tracer
    // installed (tracing never changes the schedule, so it reproduces the
    // exact same failure) and attach the full span tree to the bug report:
    // a Chrome-trace/Perfetto JSON plus the event trace + metrics snapshot.
    let workload = DrillWorkload::Tpcc.build(&config);
    let (traced_run, telemetry) = traced(|| run(config.clone(), replayed, workload));
    assert!(
        !traced_run.invariants.serializability_ok,
        "traced replay must reproduce the failure"
    );
    let trace_artifact = attach_trace_on_failure(out_dir, "minimized", &traced_run, &telemetry)
        .expect("write trace artifact")
        .expect("a failing run always attaches its trace");
    println!(
        "trace attached: {} ({} spans) — load it in ui.perfetto.dev",
        trace_artifact.display(),
        telemetry.tracer.len()
    );
}
