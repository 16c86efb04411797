//! MVCC read-path gate: snapshot readers never block writers.
//!
//! Runs the long-reader-vs-OLTP drill twice — once under
//! `IsolationLevel::SnapshotRead` with the coordinator's read-only fast
//! path, once under legacy strict 2PL — and **fails the build** unless the
//! structural contrast holds on every seed:
//!
//! * snapshot runs record **zero** `storage.lock_wait` samples (versioned
//!   reads bypass the lock table, so readers cannot block writers), while
//!   the read-only fast path visibly commits the scans;
//! * the identical workload under 2PL records a non-empty lock-wait
//!   histogram — the contention the versioned read path removes;
//! * snapshot-run GC costs what it reclaims: summed over engines,
//!   `gc_chains_examined <= versions_gced + gc_passes` — a table walk per
//!   pass (what every snapshot close once paid) breaks it at once.
//!
//! Both runs execute in virtual time on the deterministic simulator, so the
//! gate is machine-independent: no calibration, no tolerance knobs. The 2PL
//! run's mean lock wait is printed as the headline "cost removed" figure.
//!
//! ```text
//! cargo bench -p geotp-bench --bench mvcc_read_path
//! ```

use geotp_chaos::{preset, traced};
use geotp_telemetry::{MetricValue, Telemetry};

const SEEDS: u64 = 3;

/// Total samples and mean (µs) across every series of one histogram name.
fn histogram_stats(telemetry: &Telemetry, name: &str) -> (u64, f64) {
    let mut samples = 0u64;
    let mut weighted_mean_us = 0f64;
    for ((n, _, _), value) in telemetry.metrics.snapshot().entries.iter() {
        if *n == name {
            if let MetricValue::Histogram { count, mean, .. } = value {
                samples += count;
                weighted_mean_us += *count as f64 * mean.as_secs_f64() * 1e6;
            }
        }
    }
    let mean = if samples > 0 {
        weighted_mean_us / samples as f64
    } else {
        0.0
    };
    (samples, mean)
}

fn main() {
    let mut failed = false;
    for seed in 1..=SEEDS {
        let (snap_report, snap_telemetry) = traced(|| preset("long_readers_snapshot").run(seed));
        let (snap_waits, _) = histogram_stats(&snap_telemetry, "storage.lock_wait");
        let fast_path = snap_telemetry
            .metrics
            .snapshot()
            .counter_total("mw.readonly_commits");

        let (legacy_report, legacy_telemetry) = traced(|| preset("long_readers_2pl").run(seed));
        let (legacy_waits, legacy_mean_us) =
            histogram_stats(&legacy_telemetry, "storage.lock_wait");

        println!(
            "mvcc_read_path seed {seed}: snapshot {} committed, {snap_waits} lock waits, \
             {fast_path} fast-path commits, gc examined {} chains for {} versions in {} passes \
             | 2pl {} committed, {legacy_waits} lock waits (mean {legacy_mean_us:.0} us)",
            snap_report.committed,
            snap_report.mvcc.gc_chains_examined,
            snap_report.mvcc.versions_gced,
            snap_report.mvcc.gc_passes,
            legacy_report.committed
        );

        for (label, ok) in [
            (
                "snapshot run keeps every checker green",
                snap_report.invariants.all_hold(),
            ),
            (
                "2pl run keeps every checker green",
                legacy_report.invariants.all_hold(),
            ),
            ("snapshot readers take zero locks", snap_waits == 0),
            ("read-only fast path commits the scans", fast_path > 0),
            ("2pl contrast run contends", legacy_waits > 0),
            (
                "snapshot run garbage-collects",
                snap_report.mvcc.gc_passes > 0,
            ),
            (
                "gc examines no more chains than it reclaims versions",
                snap_report.mvcc.gc_chains_examined
                    <= snap_report.mvcc.versions_gced + snap_report.mvcc.gc_passes,
            ),
        ] {
            if !ok {
                eprintln!("mvcc_read_path seed {seed}: FAILED: {label}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("mvcc_read_path: readers-don't-block-writers contrast ok on {SEEDS} seeds");
}
