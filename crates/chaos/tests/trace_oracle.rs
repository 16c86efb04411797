//! The trace oracle has teeth.
//!
//! The seeded write-ahead violation (`ChaosConfig::commit_before_flush_bug`:
//! the coordinator dispatches voted-2PC commits *before* flushing the
//! decision) leaves durably correct final state — every commit the client
//! saw is in every WAL, nothing is stuck, histories serialize. The four
//! state-based checkers therefore stay green, which is exactly the blind
//! spot the fifth, trace-based checker exists to cover: its
//! flush-before-dispatch rule convicts the reordering from the span record
//! alone, and the conviction is ddmin-shrinkable to a replayable timeline
//! like any other chaos failure.

use geotp_chaos::{
    preset, run, shrink_schedule, traced, ChaosConfig, ChaosReport, DrillWorkload, FaultSchedule,
};

fn run_transfers(config: ChaosConfig, schedule: FaultSchedule) -> ChaosReport {
    let workload = DrillWorkload::Transfer.build(&config);
    run(config, schedule, workload)
}

/// The armed preset: a real fault schedule (data-source crash mid-prepare)
/// plus the coordinator-side reordering bug.
fn armed(seed: u64) -> (ChaosConfig, FaultSchedule) {
    let (mut config, schedule) = preset("prepare_phase_crash").build(seed);
    config.commit_before_flush_bug = true;
    (config, schedule)
}

#[test]
fn write_ahead_violation_is_convicted_only_by_the_trace_oracle() {
    let (config, schedule) = armed(11);
    let (report, _telemetry) = traced(|| run_transfers(config, schedule));
    let inv = &report.invariants;
    assert!(
        !inv.trace_ok,
        "the trace oracle must convict the dispatch-before-flush reordering"
    );
    assert!(
        inv.atomicity_ok && inv.durability_ok && inv.liveness_ok && inv.serializability_ok,
        "the state-based checkers must stay green — the bug leaves correct \
         durable state — but saw: {:?}",
        inv.violations
    );
    assert!(
        inv.violations
            .iter()
            .any(|v| v.contains("before the earliest log flush ends")),
        "the conviction must name the write-ahead rule: {:?}",
        inv.violations
    );
}

#[test]
fn untraced_runs_demonstrate_the_state_checkers_blind_spot() {
    // The same buggy run without telemetry: the fifth checker is vacuous and
    // all four state-based checkers pass — i.e. before the trace oracle this
    // bug was undetectable.
    let (config, schedule) = armed(11);
    let report = run_transfers(config, schedule);
    assert!(
        report.invariants.all_hold(),
        "without a trace the bug must go unnoticed, but: {:?}",
        report.invariants.violations
    );
}

#[test]
fn unarmed_run_passes_the_trace_oracle() {
    let (config, schedule) = preset("prepare_phase_crash").build(11);
    let (report, _telemetry) = traced(|| run_transfers(config, schedule));
    assert!(report.invariants.trace_ok);
    assert!(
        report.invariants.all_hold(),
        "{:?}",
        report.invariants.violations
    );
}

#[test]
fn trace_conviction_shrinks_to_a_replayable_timeline() {
    let (config, schedule) = armed(11);
    let initial_events = schedule.events.len();
    assert!(initial_events > 0, "the preset must have faults to strip");

    let probe_config = config.clone();
    let report = shrink_schedule(&schedule, 60, move |candidate| {
        let (report, _telemetry) =
            traced(|| run_transfers(probe_config.clone(), candidate.clone()));
        !report.invariants.trace_ok
    })
    .expect("the armed run fails the oracle, so the shrink must start");

    // The bug lives in the coordinator, not in the fault schedule: ddmin
    // should discover that every injected fault is irrelevant.
    assert_eq!(
        report.minimized_events,
        0,
        "no fault event is needed to reproduce a coordinator-side bug:\n{}",
        report.timeline()
    );

    // The minimized schedule round-trips through its timeline and still
    // produces the same conviction — a self-contained repro.
    let replayed = FaultSchedule::parse_timeline(&report.timeline()).expect("timeline parses");
    let (replay, _telemetry) = traced(|| run_transfers(config, replayed));
    assert!(
        !replay.invariants.trace_ok,
        "the minimized timeline must still fail the trace oracle"
    );
    assert!(
        replay.invariants.atomicity_ok
            && replay.invariants.durability_ok
            && replay.invariants.liveness_ok
            && replay.invariants.serializability_ok,
        "still invisible to the state-based checkers after shrinking: {:?}",
        replay.invariants.violations
    );
}
