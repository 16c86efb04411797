//! Quick-mode regression gate for session-registry churn.
//!
//! The flash-crowd preset registers 200k mostly-idle sessions and leans on
//! the idle-session reaper to keep per-session state memory-lean toward 10^6
//! sessions. This smoke target measures the registry's churn hot path —
//! register 100k sessions, touch them, reap them all — and **fails the
//! build** (non-zero exit) if the cycle regressed more than the tolerance
//! versus the `session_baseline` block in `BENCH_hotpath.json`.
//!
//! Methodology: best-of-N wall time against the recorded baseline with a 25%
//! tolerance, the limit rescaled by a pure-CPU calibration ratio (local
//! machine vs the recorder of the baseline); re-record with
//! `GEOTP_SMOKE_RECORD=1` after an intentional change. Two hardware-
//! independent structural checks ride along: the reaper must evict every
//! idle session (the registry drains to zero), so "lean" is not just fast
//! but actually bounded; and registering plus reaping the sessions makes
//! exactly [`CHURN_ALLOCATIONS`] heap allocations or fewer (counted by this
//! binary's allocator, so the gate convicts on any machine).
//!
//! ```text
//! cargo bench -p geotp-bench --bench session_churn
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use geotp::cluster::{build_tier, ClusterConfig, CoordinatorCluster, TierLayout};
use geotp::{Partitioner, Protocol};
use geotp_simrt::Runtime;
use geotp_storage::{CostModel, EngineConfig};

const SESSIONS: u64 = 100_000;
const PROBES: usize = 10;
/// Allowed regression over the recorded baseline, in percent.
const TOLERANCE_PCT: f64 = 25.0;
/// Heap allocations of one register + reap of `SESSIONS` sessions (the
/// registries' and the router's growth, the reaped-id lists). Exact: any
/// increase fails; lower it when a change saves some.
const CHURN_ALLOCATIONS: u64 = 76;

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

/// One timed churn cycle: register `SESSIONS` sessions (router affinity +
/// registry entry), idle past the reap deadline on the virtual clock (free),
/// then reap them all. Deployment setup is untimed. Also returns the
/// allocations of the register loop and of the reap (the idle minute, in
/// which the tier's background tasks run, is not counted).
fn churn_once() -> (Duration, u64) {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let (net, sources) = build_tier(&TierLayout {
            seed: 42,
            coordinators: 2,
            ds_rtts_ms: vec![10, 60],
            control_rtt_ms: 2,
            engine: EngineConfig {
                lock_wait_timeout: Duration::from_secs(2),
                cost: CostModel::zero(),
                record_history: false,
                ..EngineConfig::default()
            },
            agent_lan_rtt: Duration::ZERO,
        });
        let config = ClusterConfig::new(
            2,
            Protocol::geotp(),
            Partitioner::Range {
                rows_per_node: 1_000,
                nodes: 2,
            },
        );
        let cluster = CoordinatorCluster::build(config, net, &sources);

        let started = Instant::now();
        let before = allocations();
        for session in 0..SESSIONS {
            if let Some(coord) = cluster.router().route(session) {
                cluster.middleware(coord).register_session(session);
            }
        }
        let registered = allocations() - before;
        geotp_simrt::sleep(Duration::from_secs(60)).await;
        let before = allocations();
        let reaped = cluster.reap_idle_sessions_once(Duration::from_secs(30));
        let allocated = registered + allocations() - before;
        let elapsed = started.elapsed();

        // Structural leanness: every idle session must actually be evicted.
        assert_eq!(reaped as u64, SESSIONS, "reaper must drain the registry");
        let left: usize = (0..2)
            .map(|c| cluster.middleware(c).active_sessions())
            .sum();
        assert_eq!(left, 0, "registries must be empty after the reap");
        (elapsed, allocated)
    })
}

fn best_of() -> Duration {
    (0..PROBES).map(|_| churn_once().0).min().expect("probes")
}

/// The exact gate: one cycle's allocations against [`CHURN_ALLOCATIONS`].
fn allocation_gate() {
    let allocated = churn_once().1;
    println!(
        "session_churn/register_reap_100k: {allocated} allocations (pinned {CHURN_ALLOCATIONS})"
    );
    if allocated > CHURN_ALLOCATIONS {
        eprintln!(
            "session_churn: register+reap of {SESSIONS} sessions allocates {allocated} times, \
             more than the pinned {CHURN_ALLOCATIONS}"
        );
        std::process::exit(1);
    }
    if allocated < CHURN_ALLOCATIONS {
        println!(
            "session_churn: fewer allocations than pinned; lower CHURN_ALLOCATIONS to {allocated}"
        );
    }
}

/// Deterministic pure-CPU calibration (FNV-1a over 1 MiB x 8 passes, best of
/// 5): the ratio of local to recorded calibration rescales the regression
/// limit so a slower runner is not misread as a code regression.
fn calibration_us() -> f64 {
    let buf: Vec<u8> = (0..1_048_576u32)
        .map(|i| (i.wrapping_mul(31)) as u8)
        .collect();
    (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..8 {
                for byte in &buf {
                    hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            std::hint::black_box(hash);
            started.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::MAX, f64::min)
}

/// Pull a numeric field out of the baseline JSON's `session_baseline` block
/// without a JSON dependency (offline build; repo-controlled stable shape).
fn baseline_number(json: &str, key: &str) -> Option<f64> {
    let block = &json[json.find("\"session_baseline\"")?..];
    let field = format!("\"{key}\"");
    let rest = &block[block.find(&field)? + field.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    allocation_gate();

    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let json = std::fs::read_to_string(baseline_path).expect("read BENCH_hotpath.json");

    // Re-record the baseline: prints the `session_baseline` JSON block to
    // paste into BENCH_hotpath.json.
    if std::env::var("GEOTP_SMOKE_RECORD").is_ok() {
        let calibration = calibration_us();
        let churn = best_of().as_secs_f64() * 1e6;
        println!(
            " \"session_baseline\": {{\n  \"note\": \"session_churn gate: best-of-{PROBES} \
             register+reap cycle over {SESSIONS} sessions on a 2-coordinator tier; limits \
             scale by local/recorded calibration\",\n  \"calibration_us\": {calibration:.1},\n  \
             \"churn_100k_us\": {churn:.1}\n }}"
        );
        return;
    }

    let local_calibration = calibration_us();
    let recorded_calibration = baseline_number(&json, "calibration_us")
        .expect("BENCH_hotpath.json has session_baseline.calibration_us");
    let speed_scale = (local_calibration / recorded_calibration).clamp(0.25, 8.0);
    println!(
        "calibration: local {local_calibration:.0} us vs recorded {recorded_calibration:.0} us \
         -> limits scaled x{speed_scale:.2}"
    );

    let measured = best_of();
    let measured_us = measured.as_secs_f64() * 1e6;
    let Some(baseline_us) = baseline_number(&json, "churn_100k_us") else {
        eprintln!("session_churn: no session_baseline.churn_100k_us in BENCH_hotpath.json");
        std::process::exit(2);
    };
    let limit = baseline_us * (1.0 + TOLERANCE_PCT / 100.0) * speed_scale;
    let rate = SESSIONS as f64 / measured.as_secs_f64();
    let verdict = if measured_us > limit {
        "REGRESSED"
    } else {
        "ok"
    };
    println!(
        "session_churn/register_reap_100k: {measured_us:.1} us ({rate:.0} sessions/s; \
         baseline {baseline_us:.1} us, limit {limit:.1} us) {verdict}"
    );
    if measured_us > limit {
        eprintln!(
            "session_churn: session-registry churn regressed beyond {TOLERANCE_PCT}% \
             of BENCH_hotpath.json"
        );
        std::process::exit(1);
    }
}
