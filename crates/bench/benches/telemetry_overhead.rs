//! Telemetry-overhead gate: tracing must stay (almost) free.
//!
//! The exact gate runs first: this binary's allocator counts the heap
//! allocations of one untraced and one traced run of the scaled drill, and
//! the tracer's span count. Each is pinned ([`UNTRACED_ALLOCATIONS`],
//! [`TRACED_ALLOCATIONS`], [`SPANS`]); any increase fails the build on any
//! machine. The host-time ratio below is the second gate.
//!
//! `geotp-telemetry` instruments every tier — coordinator span trees, the
//! metrics registry, lock-wait and WAL counters, per-message network
//! counters. The design contract is that all of it is append-only work on
//! the side of the schedule, so the *wall-clock* cost of running a scenario
//! with a collector installed must stay within 25% of running it without
//! one. This target measures exactly that ratio on a full chaos preset
//! (every instrumented subsystem fires: admission, rounds, agent execution,
//! lock waits, decentralized prepare, commit, recovery) and **fails the
//! build** when `enabled > 1.25 × disabled`.
//!
//! The ratio gate is hardware-independent (both sides run on the same box in
//! the same process), so it needs no calibration scaling. Shared boxes drift
//! by 2x within a second, so the estimator is the **median of paired
//! ratios**: each probe times an untraced and a traced run back-to-back (in
//! alternating order, so warm-up and load shifts hit both sides alike) and
//! the gate checks the median of the per-pair ratios — robust to any single
//! probe landing on a load spike. The absolute figures recorded in
//! `BENCH_hotpath.json`'s `telemetry_baseline` block are informational.
//! Re-record with `GEOTP_SMOKE_RECORD=1` after an intentional change.
//!
//! ```text
//! cargo bench -p geotp-bench --bench telemetry_overhead
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use geotp_chaos::{preset, run, traced, ChaosReport, DrillWorkload};

const PROBES: usize = 7;
const SEED: u64 = 11;
const PRESET: &str = "prepare_phase_crash";
/// Heap allocations of one untraced [`scaled_run`]. Exact: any increase
/// fails; lower it when a change saves some.
const UNTRACED_ALLOCATIONS: u64 = 34_579;
/// Heap allocations of one traced [`scaled_run`], collector included.
const TRACED_ALLOCATIONS: u64 = 34_691;
/// Spans the tracer holds after one traced [`scaled_run`].
const SPANS: u64 = 13_416;

struct CountingAlloc;

thread_local! {
    /// Allocation calls (`alloc` and `realloc`) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The preset scaled up (16 clients × 100 transactions) so per-transaction
/// tracing cost dominates over the one-time collector setup — a preset-sized
/// run finishes in ~1.5 ms of wall time, where the ratio mostly measures
/// constant overheads.
fn scaled_run() -> ChaosReport {
    let (mut config, schedule) = preset(PRESET).build(SEED);
    config.clients = 16;
    config.txns_per_client = 100;
    let workload = DrillWorkload::Transfer.build(&config);
    run(config, schedule, workload)
}

fn untraced_once() -> f64 {
    let started = Instant::now();
    let report = scaled_run();
    let elapsed = started.elapsed().as_secs_f64() * 1e6;
    assert!(report.invariants.all_hold());
    elapsed
}

fn traced_once() -> (f64, usize) {
    let started = Instant::now();
    let (report, telemetry) = traced(scaled_run);
    let elapsed = started.elapsed().as_secs_f64() * 1e6;
    assert!(report.invariants.all_hold());
    (elapsed, telemetry.tracer.len())
}

/// The exact gate: one untraced and one traced run's allocations, and the
/// traced run's spans, against their pins.
fn exact_gate() {
    let before = allocations();
    let report = scaled_run();
    let untraced = allocations() - before;
    assert!(report.invariants.all_hold());
    drop(report);
    let before = allocations();
    let (report, telemetry) = traced(scaled_run);
    let traced = allocations() - before;
    assert!(report.invariants.all_hold());
    let spans = telemetry.tracer.len() as u64;
    let mut failed = false;
    for (what, measured, pinned) in [
        ("untraced allocations", untraced, UNTRACED_ALLOCATIONS),
        ("traced allocations", traced, TRACED_ALLOCATIONS),
        ("spans", spans, SPANS),
    ] {
        println!("telemetry_overhead/{PRESET}: {measured} {what} (pinned {pinned})");
        if measured > pinned {
            eprintln!("telemetry_overhead: {measured} {what}, more than the pinned {pinned}");
            failed = true;
        } else if measured < pinned {
            println!("telemetry_overhead: fewer {what} than pinned; lower the pin to {measured}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    // One warm-up pair populates caches and the lazy runtime state before
    // anything is counted or timed.
    let _ = untraced_once();
    let _ = traced_once();
    exact_gate();

    let tolerance: f64 = std::env::var("GEOTP_TELEMETRY_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.25);

    let mut ratios = Vec::with_capacity(PROBES);
    let mut best_off = f64::MAX;
    let mut best_on = f64::MAX;
    let mut spans = 0;
    for probe in 0..PROBES {
        // Pair the sides back-to-back and alternate which goes first, so
        // background-load drift cancels within each pair.
        let (off, on) = if probe % 2 == 0 {
            let off = untraced_once();
            let (on, n) = traced_once();
            spans = n;
            (off, on)
        } else {
            let (on, n) = traced_once();
            spans = n;
            (untraced_once(), on)
        };
        best_off = best_off.min(off);
        best_on = best_on.min(on);
        ratios.push(on / off);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ratio = ratios[PROBES / 2];

    if std::env::var("GEOTP_SMOKE_RECORD").is_ok() {
        println!(
            " \"telemetry_baseline\": {{\n  \"note\": \"telemetry_overhead gate: {} drill, \
             median of {PROBES} paired traced/untraced ratios; the ratio (not the absolute \
             best-of figures) is the gate\",\n  \"untraced_us\": {best_off:.1},\n  \
             \"traced_us\": {best_on:.1},\n  \"ratio\": {ratio:.3},\n  \"spans\": {spans}\n }}",
            PRESET
        );
        return;
    }

    println!(
        "{} seed {SEED}: untraced best {best_off:.0} us, traced best {best_on:.0} us \
         ({spans} spans) -> median pair ratio {ratio:.3}x (limit {tolerance:.2}x)",
        PRESET
    );
    if ratio > tolerance {
        eprintln!(
            "telemetry_overhead: tracing costs {ratio:.3}x, over the {tolerance:.2}x budget \
             (set GEOTP_TELEMETRY_TOLERANCE to adjust)"
        );
        std::process::exit(1);
    }
    println!("telemetry overhead within budget.");
}
