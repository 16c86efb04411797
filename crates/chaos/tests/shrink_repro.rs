//! Checker validation + schedule shrinking, end to end.
//!
//! Jepsen practice: a checker you have never seen catch a bug is not a
//! checker. These tests arm the storage engines' lock-bypass fail point (a
//! *deliberately injected* isolation bug: every n-th read skips its shared
//! lock), run TPC-C under a seeded-random fault schedule, and require that
//!
//! 1. the serializability checker turns red (the dirty reads are caught),
//! 2. the QuickCheck-style shrinker reduces the failing schedule to a
//!    minimal repro (≤ 5 events — for an unconditional engine bug it
//!    typically reaches the *empty* schedule, correctly reporting that no
//!    fault is needed at all), and
//! 3. the minimized schedule round-trips through the replayable timeline
//!    format and still fails when replayed from it.

use geotp_chaos::{
    client_scripts, preset, run, run_scripted, shrink_schedule, shrink_workload, ChaosConfig,
    DrillWorkload, FaultSchedule, RandomFaultConfig,
};

/// The failing configuration: TPC-C at drill scale with every 2nd read
/// bypassing its shared lock. Deterministic — seed 1 reliably produces dirty
/// reads under contention on the warehouse/district hotspot rows.
fn bugged_config() -> ChaosConfig {
    let (mut config, _) = preset("randomized_faults").build(1);
    config.isolation_bug_read_stride = Some(2);
    config
}

fn tpcc_fails(config: &ChaosConfig, schedule: &FaultSchedule) -> bool {
    let workload = DrillWorkload::Tpcc.build(config);
    let report = run(config.clone(), schedule.clone(), workload);
    !report.invariants.serializability_ok
}

#[test]
fn injected_isolation_bug_is_caught_and_shrunk_to_a_minimal_timeline() {
    let config = bugged_config();
    let schedule = FaultSchedule::random(
        config.seed,
        &RandomFaultConfig {
            data_sources: 3,
            faults: 8,
            horizon: std::time::Duration::from_secs(60),
        },
    );
    assert!(
        schedule.events.len() >= 8,
        "the starting schedule should be noisy ({} events)",
        schedule.events.len()
    );

    // 1. The checker catches the injected bug under the noisy schedule.
    let workload = DrillWorkload::Tpcc.build(&config);
    let report = run(config.clone(), schedule.clone(), workload);
    assert!(
        !report.invariants.serializability_ok,
        "the injected lock-bypass bug must turn the serializability checker red"
    );
    assert!(
        report
            .invariants
            .violations
            .iter()
            .any(|v| v.contains("dirty read") || v.contains("cycle")),
        "violations should name the anomaly: {:?}",
        report.invariants.violations
    );

    // 2. Shrink to a minimal repro.
    let shrink = shrink_schedule(&schedule, 80, |candidate| tpcc_fails(&config, candidate))
        .expect("the initial schedule fails, so shrinking must engage");
    assert!(
        shrink.minimized_events <= 5,
        "expected a ≤5-event repro, got {} (runs spent: {})",
        shrink.minimized_events,
        shrink.runs
    );
    assert!(
        tpcc_fails(&config, &shrink.minimized),
        "the minimized schedule must still fail"
    );

    // 3. The emitted timeline replays to the same still-failing schedule.
    let replayed = FaultSchedule::parse_timeline(&shrink.timeline()).expect("timeline parses");
    assert_eq!(replayed, shrink.minimized);
    assert!(tpcc_fails(&config, &replayed));

    // 4. Value-aware workload shrinking: with the fault schedule minimized,
    //    ddmin the *workload* too. Start from the exact per-client scripts
    //    the seeded run generated; drop clients and transactions while the
    //    serializability checker keeps turning red.
    let scripts = client_scripts(&config, &*DrillWorkload::Tpcc.build(&config));
    let initial_txns: usize = scripts.iter().map(Vec::len).sum();
    let scripted_fails = |candidate: &[Vec<geotp_middleware::TransactionSpec>]| {
        let workload = DrillWorkload::Tpcc.build(&config);
        let report = run_scripted(
            config.clone(),
            shrink.minimized.clone(),
            workload,
            candidate.to_vec(),
        );
        !report.invariants.serializability_ok
    };
    let wshrink = shrink_workload(&scripts, 60, scripted_fails)
        .expect("the full scripted workload reproduces the failure");
    assert!(
        wshrink.minimized_txns < initial_txns / 2,
        "the workload should shrink substantially: {} -> {} txns (runs: {})",
        initial_txns,
        wshrink.minimized_txns,
        wshrink.runs
    );
    assert!(
        wshrink.minimized_clients <= wshrink.initial_clients,
        "clients can only be dropped"
    );
    // The minimized workload still fails when replayed.
    assert!(scripted_fails(&wshrink.minimized));
}

#[test]
fn without_the_fail_point_the_same_run_is_green() {
    // Control: identical seed and schedule, fail point disarmed — every
    // checker (serializability included) holds. The red verdict above is the
    // bug's doing, not the checker's.
    let mut config = bugged_config();
    config.isolation_bug_read_stride = None;
    let schedule = FaultSchedule::random(
        config.seed,
        &RandomFaultConfig {
            data_sources: 3,
            faults: 8,
            horizon: std::time::Duration::from_secs(60),
        },
    );
    let workload = DrillWorkload::Tpcc.build(&config);
    let report = run(config, schedule, workload);
    assert!(
        report.invariants.all_hold(),
        "control run must be green: {:?}",
        report.invariants.violations
    );
}
