//! Seeded chaos sweeps and the replayability acceptance checks.
//!
//! Every row of the preset table runs across a spread of seeds, under its
//! own workload and every other workload it declares, behind whichever
//! front door it deploys; all five checkers must stay green (the
//! `write_skew_*` rows must instead be *convicted*). The sweep width is 4
//! seeds per preset by default (fast enough for every CI push) and ≥32 seeds
//! with `GEOTP_CHAOS_SWEEP=32` or `GEOTP_FULL=1`, which the chaos-drills CI
//! job and the nightly sweep both set.
//!
//! Beside the table-driven sweeps sit the per-preset proofs that a drill
//! exercises what it claims to (the interactive preset abandons
//! transactions, the takeover presets take over, the flash crowd sheds and
//! reaps, snapshot readers take zero locks, group commit batches), and
//! replayability, checked twice: in-process (two runs
//! of the same seed and preset must produce bit-identical traces) and
//! *across processes* — the parent test re-executes this test binary as a
//! child with `GEOTP_CHAOS_EMIT_FP` set and compares fingerprints, proving
//! the trace does not depend on address-space layout, environment or any
//! other process-local accident.

use geotp_chaos::{
    preset, traced, traced_capped, ChaosReport, Door, DrillWorkload, Expect, Preset, PRESETS,
};
use geotp_telemetry::{MetricValue, Telemetry};

/// Seeds per preset: 4 by default, honouring `GEOTP_CHAOS_SWEEP` /
/// `GEOTP_FULL=1` (which bumps to 32) for the paper-scale runs.
fn sweep_seeds() -> u64 {
    if let Ok(v) = std::env::var("GEOTP_CHAOS_SWEEP") {
        if let Ok(n) = v.parse::<u64>() {
            return n.max(1);
        }
    }
    if std::env::var("GEOTP_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        32
    } else {
        4
    }
}

fn assert_green(scenario: &Preset, workload: DrillWorkload, seed: u64, report: &ChaosReport) {
    let name = scenario.name;
    assert!(
        report.invariants.all_hold(),
        "{name} ({workload:?}) seed {seed} violated invariants:\n  {}\ntrace tail:\n  {}",
        report.invariants.violations.join("\n  "),
        report
            .trace
            .iter()
            .rev()
            .take(30)
            .rev()
            .cloned()
            .collect::<Vec<_>>()
            .join("\n  "),
    );
    assert!(
        report.committed > 0,
        "{name} ({workload:?}) seed {seed}: a drill where nothing commits proves nothing"
    );
}

/// Sweep `scenario` under `workload` across the seed spread.
fn sweep(scenario: &Preset, workload: DrillWorkload) {
    for seed in 1..=sweep_seeds() {
        // Sweeps run traced so the trace oracle (the fifth checker, folded
        // into `all_hold`) is exercised on every preset × seed. Tracing never
        // perturbs the schedule, so the drills themselves are unchanged. The
        // TPC-C legs and the flash crowd (the largest span volume in the
        // suite) use a capped tracer to prove the per-gtrid rules survive
        // whole-txn eviction mid-drill.
        let go = || scenario.run_with(seed, workload);
        let (report, _telemetry) = if scenario.name == "flash_crowd" {
            traced_capped(8192, go)
        } else if workload == DrillWorkload::Tpcc {
            traced_capped(4096, go)
        } else {
            traced(go)
        };
        assert_green(scenario, workload, seed, &report);
    }
}

/// The rows of the table the checkers must keep green behind `door`.
fn green_presets(door: Door) -> impl Iterator<Item = &'static Preset> {
    PRESETS
        .iter()
        .filter(move |p| p.door == door && p.expect == Expect::AllGreen)
}

#[test]
fn sweep_single_door_presets_under_their_own_workload() {
    for scenario in green_presets(Door::Single) {
        sweep(scenario, scenario.workloads[0]);
    }
}

#[test]
fn sweep_tier_presets_under_their_own_workload() {
    for scenario in green_presets(Door::Tier) {
        sweep(scenario, scenario.workloads[0]);
    }
}

/// Every other workload a row declares — the TPC-C mix under each
/// workload-generic single-middleware drill, and *through the coordinator
/// tier* with a takeover mid-`NewOrder` (all checkers, including the TPC-C
/// consistency conditions).
#[test]
fn sweep_presets_under_their_other_declared_workloads() {
    for scenario in PRESETS.iter().filter(|p| p.expect == Expect::AllGreen) {
        for workload in &scenario.workloads[1..] {
            sweep(scenario, *workload);
        }
    }
}

/// The interactive preset genuinely exercises the new surface: client crashes
/// are booked on the coordinator (aborted without a ledger entry), think time
/// spreads the statement stream, and the invariants still hold.
#[test]
fn interactive_preset_abandons_transactions_mid_flight() {
    let interactive = preset("interactive_client_chaos");
    let (config, _schedule) = interactive.build(1);
    assert_eq!(interactive.workloads[0], DrillWorkload::InteractiveTransfer);
    assert_eq!(config.client_crash_every, Some(4));
    let report = interactive.run(1);
    assert!(
        report.invariants.all_hold(),
        "{:?}",
        report.invariants.violations
    );
    // Each client abandons every 4th transaction: those never reach the
    // client-side ledger, so the ledger is visibly smaller than the offered
    // transaction count (minus the indeterminate coordinator-crash window).
    let offered = (config.clients * config.txns_per_client) as u64;
    let recorded = report.committed + report.aborted + report.indeterminate;
    assert!(
        recorded < offered,
        "abandoned transactions must be missing from the ledger: {recorded} vs {offered}"
    );
}

/// The checkers are not vacuous: a protocol that genuinely lacks atomicity
/// (SSP "local" mode one-phase-commits every branch independently) must turn
/// at least one drill red across a handful of seeds.
#[test]
fn checkers_catch_ssp_local_atomicity_violations() {
    let mut caught = false;
    for seed in 1..=6 {
        let (mut config, schedule) = preset("prepare_phase_crash").build(seed);
        config.protocol = geotp_chaos::Protocol::SspLocal;
        config.distributed_ratio = 1.0;
        let workload = DrillWorkload::Transfer.build(&config);
        let report = geotp_chaos::run(config, schedule, workload);
        if !report.invariants.all_hold() {
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "SSP(local) under a crash drill should violate atomicity/durability at least once"
    );
}

/// Same seed + same schedule ⇒ bit-identical trace, within one process.
#[test]
fn replay_is_bit_identical_in_process() {
    let failover = preset("coordinator_failover");
    let a = failover.run(7);
    let b = failover.run(7);
    assert_eq!(a.trace, b.trace, "traces must match line for line");
    assert_eq!(a.fingerprint, b.fingerprint);
    let c = failover.run(8);
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "different seeds must diverge (the fingerprint is not a constant)"
    );
}

/// Child half of the cross-process check: when `GEOTP_CHAOS_EMIT_FP` names a
/// `scenario:seed`, print the fingerprint and do nothing else.
#[test]
fn replay_fingerprint_child() {
    let Ok(spec) = std::env::var("GEOTP_CHAOS_EMIT_FP") else {
        return; // Only active when invoked by the parent test below.
    };
    let (name, seed) = spec.split_once(':').expect("format: <scenario>:<seed>");
    let seed: u64 = seed.parse().expect("numeric seed");
    let report = preset(name).run(seed);
    println!("CHAOS_FINGERPRINT={:016x}", report.fingerprint);
}

/// Same seed + same schedule ⇒ bit-identical trace **across two processes**.
#[test]
fn replay_is_bit_identical_across_processes() {
    if std::env::var("GEOTP_CHAOS_EMIT_FP").is_ok() {
        return; // We *are* the child; the parent drives the comparison.
    }
    let scenario = preset("prepare_phase_crash");
    let seed = 13;
    let local = scenario.run(seed).fingerprint;

    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(exe)
        .args(["--exact", "replay_fingerprint_child", "--nocapture"])
        .env("GEOTP_CHAOS_EMIT_FP", format!("{}:{}", scenario.name, seed))
        .output()
        .expect("spawn child test process");
    assert!(
        output.status.success(),
        "child process failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // libtest may glue the marker onto its own "test ... " line, so search
    // within lines rather than at line starts.
    let remote = stdout
        .lines()
        .find_map(|l| l.split("CHAOS_FINGERPRINT=").nth(1))
        .map(|tail| {
            tail.trim()
                .chars()
                .take_while(char::is_ascii_hexdigit)
                .collect::<String>()
        })
        .unwrap_or_else(|| panic!("child printed no fingerprint:\n{stdout}"));
    assert_eq!(
        u64::from_str_radix(&remote, 16).expect("hex fingerprint"),
        local,
        "cross-process trace fingerprints diverged"
    );
}

/// The flash-crowd preset actually degrades gracefully rather than merely
/// surviving: admission sheds load, the reaper drains the 200k-session
/// registries, and the mid-spike coordinator crash is taken over — all in
/// the same run.
#[test]
fn flash_crowd_sheds_reaps_and_takes_over() {
    let report = preset("flash_crowd").run(1);
    assert!(
        report.invariants.all_hold(),
        "{:?}",
        report.invariants.violations
    );
    let trace = report.trace.join("\n");
    assert!(
        trace.contains("flash crowd: 200000 idle session(s) registered"),
        "the crowd must be registered:\n{trace}"
    );
    assert!(
        trace.contains("shed by admission"),
        "bounded admission must shed under the spike:\n{trace}"
    );
    assert!(
        trace.contains("session(s) reaped") && !trace.contains("0 idle session(s) reaped"),
        "the reaper must evict idle sessions:\n{trace}"
    );
    let takeovers_line = report
        .trace
        .iter()
        .find(|l| l.contains("takeovers so far:"))
        .expect("trace records the takeover count");
    assert!(
        !takeovers_line.contains("takeovers so far: 0"),
        "the mid-spike crash must be taken over: {takeovers_line}"
    );
    assert!(report.committed > 0);
}

/// Flash-crowd replay is bit-identical: the spike's session choices, specs
/// and jittered backoff schedules are all pure functions of the seed.
#[test]
fn flash_crowd_replay_is_bit_identical_in_process() {
    let a = preset("flash_crowd").run(3);
    let b = preset("flash_crowd").run(3);
    assert_eq!(a.trace, b.trace, "traces must match line for line");
    assert_eq!(a.fingerprint, b.fingerprint);
    let c = preset("flash_crowd").run(4);
    assert_ne!(a.fingerprint, c.fingerprint);
}

/// The cold-restart preset really goes through the dark window: both
/// coordinators die, clients see refusals while nobody is alive, successors
/// re-register at fresh epochs, and traffic commits again afterwards.
#[test]
fn dual_crash_recovers_from_cold_and_recommits() {
    let report = preset("dual_coordinator_cold_restart").run(1);
    assert!(
        report.invariants.all_hold(),
        "{:?}",
        report.invariants.violations
    );
    let trace = report.trace.join("\n");
    assert!(
        trace.contains("crash coordinator dm0")
            || trace.contains("dm0 after next commit-log flush"),
        "dm0 must die:\n{trace}"
    );
    assert!(trace.contains("crash coordinator dm1"), "dm1 must die");
    assert!(
        trace.contains("restart coordinator dm0") && trace.contains("restart coordinator dm1"),
        "both slots must restart"
    );
    assert!(
        trace.contains("refused"),
        "the all-dead window must refuse connections:\n{trace}"
    );
    assert!(report.committed > 0);
}

/// The crash-takeover preset actually exercises the takeover machinery: the
/// trace must show the supervisor adopting the dead coordinator (not just the
/// clients failing over), and the run must still commit traffic afterwards.
#[test]
fn crash_takeover_preset_actually_takes_over() {
    let report = preset("coordinator_crash_takeover").run(1);
    assert!(
        report.invariants.all_hold(),
        "{:?}",
        report.invariants.violations
    );
    let takeovers_line = report
        .trace
        .iter()
        .find(|l| l.contains("takeovers so far:"))
        .expect("trace records the takeover count");
    assert!(
        !takeovers_line.contains("takeovers so far: 0"),
        "the supervisor should have performed a takeover: {takeovers_line}"
    );
}

/// Replayability holds one tier up: same seed + same schedule ⇒ bit-identical
/// trace.
#[test]
fn cluster_replay_is_bit_identical_in_process() {
    let a = preset("coordinator_crash_takeover").run(7);
    let b = preset("coordinator_crash_takeover").run(7);
    assert_eq!(a.trace, b.trace, "traces must match line for line");
    assert_eq!(a.fingerprint, b.fingerprint);
    let c = preset("coordinator_crash_takeover").run(8);
    assert_ne!(a.fingerprint, c.fingerprint);
}

/// Total sample count across every `(label, index)` series of one
/// histogram name.
fn histogram_samples(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry
        .metrics
        .snapshot()
        .entries
        .iter()
        .filter(|((n, _, _), _)| *n == name)
        .map(|(_, v)| match v {
            MetricValue::Histogram { count, .. } => *count,
            _ => 0,
        })
        .sum()
}

/// Snapshot readers acquire zero locks: across the whole sweep, not one
/// sample lands in the `storage.lock_wait` histogram (writers never collide
/// by construction, and versioned reads bypass the lock table entirely),
/// while the coordinator's read-only fast path visibly commits the scans.
#[test]
fn sweep_long_readers_snapshot_holds_and_takes_zero_locks() {
    for seed in 1..=sweep_seeds() {
        let scenario = preset("long_readers_snapshot");
        let (report, telemetry) = traced(|| scenario.run(seed));
        assert_green(scenario, scenario.workloads[0], seed, &report);
        let lock_waits = histogram_samples(&telemetry, "storage.lock_wait");
        assert_eq!(
            lock_waits, 0,
            "seed {seed}: snapshot readers must not touch the lock table \
             ({lock_waits} lock-wait sample(s) recorded)"
        );
        let fast_path = telemetry
            .metrics
            .snapshot()
            .counter_total("mw.readonly_commits");
        assert!(
            fast_path > 0,
            "seed {seed}: the snapshot-read fast path never fired"
        );
    }
}

/// The contrast run: the same scans under strict 2PL do contend — the
/// lock-wait histogram is non-empty, which is exactly the cost the
/// snapshot-read path removes.
#[test]
fn sweep_long_readers_2pl_holds_but_readers_block_writers() {
    for seed in 1..=sweep_seeds() {
        let scenario = preset("long_readers_2pl");
        let (report, telemetry) = traced(|| scenario.run(seed));
        assert_green(scenario, scenario.workloads[0], seed, &report);
        assert!(
            histogram_samples(&telemetry, "storage.lock_wait") > 0,
            "seed {seed}: long 2PL scans against an OLTP stream must contend"
        );
    }
}

/// The adversarial leg: under the deliberately weak isolation modes, the
/// write-skew hot pair must produce at least one run the serializability
/// checker convicts — proving the checker observes real version chains, not
/// a vacuous approximation.
#[test]
fn serializability_checker_convicts_write_skew_under_weak_isolation() {
    let adversarial: Vec<&Preset> = PRESETS
        .iter()
        .filter(|p| p.expect == Expect::SerializabilityConviction)
        .collect();
    assert_eq!(adversarial.len(), 2, "snapshot and read-committed legs");
    for scenario in adversarial {
        let mut caught = false;
        for seed in 1..=8 {
            let report = scenario.run(seed);
            if !report.invariants.serializability_ok {
                caught = true;
                break;
            }
        }
        assert!(
            caught,
            "{}: write skew under weak isolation must trip the \
             serializability checker at least once across seeds",
            scenario.name
        );
    }
}

/// Crashing a data source with a 10 ms group-commit window open lands the
/// crash between WAL appends and their deferred flush: unacknowledged
/// commits roll back on recovery and all five checkers stay green, while
/// the group path demonstrably batches (group-cause flushes recorded).
#[test]
fn sweep_group_commit_crash_window_holds() {
    for seed in 1..=sweep_seeds() {
        let scenario = preset("group_commit_crash_window");
        let (report, telemetry) = traced(|| scenario.run(seed));
        assert_green(scenario, scenario.workloads[0], seed, &report);
        let snapshot = telemetry.metrics.snapshot();
        let group_flushes: u64 = (0..3)
            .map(
                |ds| match snapshot.get("storage.wal_flushes", "group", ds) {
                    Some(MetricValue::Counter(c)) => *c,
                    _ => 0,
                },
            )
            .sum();
        assert!(
            group_flushes > 0,
            "seed {seed}: a 10 ms window under concurrent committers must \
             produce group-cause flushes"
        );
    }
}

/// FNV-1a over `bytes`, continuing from `fnv`.
fn fnv1a(fnv: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(fnv, |fnv, byte| {
        (fnv ^ *byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The 32-seed sweep pinned byte for byte: one line per table row × declared
/// workload, holding an FNV-1a over seeds 1–32 of `committed aborted
/// indeterminate fingerprint` from untraced runs (the fingerprint covers the
/// checkers' verdict line). A harness or coordinator refactor is correct iff
/// this file does not move. Checked only at `GEOTP_CHAOS_SWEEP=32` (the
/// chaos-drills CI job; about 8 s in release); `GEOTP_BLESS=1` re-records it.
#[test]
fn chaos_sweep_32_matches_its_golden() {
    if std::env::var("GEOTP_CHAOS_SWEEP").as_deref() != Ok("32") {
        return;
    }
    let mut actual = String::from(
        "# preset workload fnv1a(seeds 1-32: committed aborted indeterminate fingerprint)\n",
    );
    for scenario in PRESETS.iter() {
        for workload in scenario.workloads {
            let mut fnv = 0xcbf2_9ce4_8422_2325;
            for seed in 1..=32 {
                let report = scenario.run_with(seed, *workload);
                let row = format!(
                    "{} {} {} {:016x}\n",
                    report.committed, report.aborted, report.indeterminate, report.fingerprint
                );
                fnv = fnv1a(fnv, row.as_bytes());
            }
            actual.push_str(&format!("{} {workload:?} {fnv:016x}\n", scenario.name));
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/chaos_sweep_32.txt"
    );
    if std::env::var("GEOTP_BLESS").as_deref() == Ok("1") {
        std::fs::write(path, &actual).expect("write the chaos sweep golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("tests/golden/chaos_sweep_32.txt is missing; record it with GEOTP_BLESS=1");
    assert!(
        expected == actual,
        "the 32-seed chaos sweep drifted from tests/golden/chaos_sweep_32.txt; if intended, \
         re-record with GEOTP_BLESS=1 and list the moved rows in CHANGES.md\n\
         golden:\n{expected}\nactual:\n{actual}"
    );
}
