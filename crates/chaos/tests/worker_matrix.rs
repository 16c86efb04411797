//! Scheduler-independence matrix: chaos traces are a pure function of
//! `(preset, seed, workload)` — never of the simulator's worker-shard
//! count. Three presets × three seeds run at `workers ∈ {1, 2, 4, 8}` and
//! must produce bit-identical fingerprints (plus one TPC-C drill, whose
//! multi-round statement streams exercise a different scheduling shape).
//!
//! The chaos deployment is a single `Rc`-shared object graph pinned to
//! shard 0, so this pins down exactly the property the sharded runtime
//! promises: extra shards idle at the conservative barrier without
//! perturbing the shard-0 schedule by a single poll.

use geotp_chaos::{preset, run, traced, ChaosReport, DrillWorkload};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Run `name` under `workload` on an explicit worker-shard count (presets
/// otherwise honour `GEOTP_WORKERS`).
fn run_on_workers(name: &str, workload: DrillWorkload, seed: u64, workers: usize) -> ChaosReport {
    let (mut config, schedule) = preset(name).build(seed);
    config.workers = Some(workers);
    let workload = workload.build(&config);
    run(config, schedule, workload)
}

fn assert_worker_independent(name: &str, workload: DrillWorkload, seed: u64) {
    let baseline = run_on_workers(name, workload, seed, 1);
    assert!(
        baseline.invariants.all_hold(),
        "{name} ({workload:?}) seed {seed} violated invariants at workers=1"
    );
    for workers in &WORKER_COUNTS[1..] {
        let report = run_on_workers(name, workload, seed, *workers);
        assert_eq!(
            baseline.fingerprint, report.fingerprint,
            "{name} ({workload:?}) seed {seed}: trace fingerprint diverged at workers={workers}"
        );
        assert_eq!(
            baseline.trace, report.trace,
            "{name} ({workload:?}) seed {seed}: fingerprints collided but traces differ at \
             workers={workers}"
        );
    }
}

#[test]
fn prepare_phase_crash_is_worker_independent() {
    for seed in 1..=3 {
        assert_worker_independent("prepare_phase_crash", DrillWorkload::Transfer, seed);
    }
}

#[test]
fn coordinator_failover_is_worker_independent() {
    for seed in 1..=3 {
        assert_worker_independent("coordinator_failover", DrillWorkload::Transfer, seed);
    }
}

#[test]
fn wan_brownout_is_worker_independent() {
    for seed in 1..=3 {
        assert_worker_independent("wan_brownout", DrillWorkload::Transfer, seed);
    }
}

#[test]
fn tpcc_drill_is_worker_independent() {
    assert_worker_independent("prepare_phase_crash", DrillWorkload::Tpcc, 1);
}

/// The trace oracle's verdict is part of the same promise: a traced run at
/// any worker count produces the identical fifth-checker verdict and the
/// identical violation list — both for a green preset and for the armed
/// write-ahead fail point (which every worker count must convict).
#[test]
fn trace_oracle_verdict_is_worker_independent() {
    for armed in [false, true] {
        let run = |workers: usize| {
            traced(|| {
                let (mut config, schedule) = preset("prepare_phase_crash").build(2);
                config.commit_before_flush_bug = armed;
                config.workers = Some(workers);
                let workload = DrillWorkload::Transfer.build(&config);
                run(config, schedule, workload)
            })
            .0
        };
        let baseline = run(1);
        assert_eq!(
            baseline.invariants.trace_ok, !armed,
            "armed={armed}: unexpected baseline verdict: {:?}",
            baseline.invariants.violations
        );
        for workers in [2, 4] {
            let report = run(workers);
            assert_eq!(
                baseline.invariants.trace_ok, report.invariants.trace_ok,
                "armed={armed}: trace verdict diverged at workers={workers}"
            );
            assert_eq!(
                baseline.invariants.violations, report.invariants.violations,
                "armed={armed}: violation lists diverged at workers={workers}"
            );
            assert_eq!(baseline.fingerprint, report.fingerprint);
        }
    }
}
