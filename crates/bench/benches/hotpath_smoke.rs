//! Quick-mode regression gate for two hot-path microbenches.
//!
//! `BENCH_hotpath.json` records the post-overhaul timings of the contended
//! 64-writer promote chain (the hot path PR 1 made O(keys-held)) and of one
//! transaction-key of hotspot-footprint bookkeeping on a footprint churning
//! at capacity (O(1) since PR 14: ~30 ns on the recording box, against
//! ~450 ns for the tree walks it replaced, so the default tolerance convicts
//! a reintroduced walk by ~12×). This smoke target re-measures those exact operations and **fails
//! the build** (non-zero exit) if one regressed more than the tolerance
//! versus the stored baseline — the chaos-drills CI job runs it on every push
//! so a hot-path regression cannot ride in silently behind a green functional
//! suite.
//!
//! Methodology: best-of-N wall time (the minimum is the least noisy location
//! estimate for a microbench on a shared CI box), compared against the
//! baseline's `smoke_baseline` figures with a 25% tolerance by default
//! (`GEOTP_SMOKE_TOLERANCE` overrides, in percent). The limits are rescaled
//! by a pure-CPU calibration ratio (local machine vs the recorder of the
//! baseline), so a slower runner is not misread as a code regression;
//! re-record with `GEOTP_SMOKE_RECORD=1` after an intentional hot-path
//! change. Two hardware-independent *flatness* checks guard the structural
//! claims: the 10 000-entry lock table must not cost more than 2.5× the
//! empty table (the pre-index implementation was ~500× — it scanned the
//! table per release), and the same hand-off chain behind 12 800 abandoned
//! 5 s lock-wait timeouts must not cost more than 2.0× the chain on a
//! drained timer store (a store that looks at pending timers it is not
//! firing read 3–5×, growing with their number).
//!
//! ```text
//! cargo bench -p geotp-bench --bench hotpath_smoke
//! ```

use std::rc::Rc;
use std::time::{Duration, Instant};

use geotp_middleware::{GlobalKey, HotspotConfig, HotspotFootprint};
use geotp_simrt::Runtime;
use geotp_storage::{Key, LockManager, LockMode, TableId, Xid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WRITERS: u64 = 64;
const PROBES: usize = 40;
/// Five-key transactions per footprint probe.
const FOOTPRINT_TXNS: u64 = 20_000;

/// One timed run of the contended promote chain over a lock table prefilled
/// with `table_size` unrelated held keys (prefill untimed).
fn promote_chain_once(table_size: u64) -> Duration {
    let mut rt = Runtime::new();
    let lm = rt.block_on(async move {
        let lm = LockManager::new(Duration::from_secs(30));
        for i in 0..table_size {
            lm.acquire(
                Xid::new(100_000 + i, 0),
                Key::new(TableId(1), i),
                LockMode::Exclusive,
            )
            .await
            .unwrap();
        }
        lm
    });
    let started = Instant::now();
    rt.block_on(async {
        let hot = Key::new(TableId(0), 0);
        let holder = Xid::new(1, 0);
        lm.acquire(holder, hot, LockMode::Exclusive).await.unwrap();
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let lm2 = Rc::clone(&lm);
            handles.push(geotp_simrt::spawn(async move {
                let xid = Xid::new(2 + w, 0);
                lm2.acquire(xid, hot, LockMode::Exclusive).await.unwrap();
                lm2.release_all(xid);
            }));
        }
        geotp_simrt::sleep(Duration::from_millis(1)).await;
        lm.release_all(holder);
        for h in handles {
            h.await;
        }
    });
    started.elapsed()
}

fn best_of(table_size: u64) -> Duration {
    (0..PROBES)
        .map(|_| promote_chain_once(table_size))
        .min()
        .expect("at least one probe")
}

/// Rounds per writer in one hand-off batch of [`stale_timer_ratio`].
const HANDOFF_ROUNDS: u64 = 50;
/// Batches run back to back ahead of the timed one: 4 × 64 × 50 = 12 800
/// granted waits, each leaving its lock-wait timeout pending.
const STALE_BATCHES: u64 = 4;

/// Host time of one hand-off batch: every writer takes the hot row
/// `HANDOFF_ROUNDS` times and holds it across one timer tick, so the others
/// park behind it — arming the manager's wait timeout, which the grant then
/// abandons (nothing cancels a timer; it stays pending until its deadline).
async fn handoff_batch(lm: &Rc<LockManager>, first_gtrid: u64) -> Duration {
    let hot = Key::new(TableId(0), 0);
    let started = Instant::now();
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let lm = Rc::clone(lm);
            geotp_simrt::spawn(async move {
                for r in 0..HANDOFF_ROUNDS {
                    let xid = Xid::new(first_gtrid + w * HANDOFF_ROUNDS + r, 0);
                    lm.acquire(xid, hot, LockMode::Exclusive).await.unwrap();
                    geotp_simrt::sleep(Duration::from_micros(1)).await;
                    lm.release_all(xid);
                }
            })
        })
        .collect();
    for h in handles {
        h.await;
    }
    started.elapsed()
}

/// The construction of the benchmark's `simrt.probe_stale_timer_ratio`: a
/// hand-off batch running behind `STALE_BATCHES` batches' worth of abandoned
/// timeouts, over the same batch on a drained timer store (virtual time run
/// past the timeout first). Best of `PROBES / 4` for each side.
fn stale_timer_ratio() -> f64 {
    let (mut drained, mut stale) = (Duration::MAX, Duration::MAX);
    for _ in 0..PROBES / 4 {
        let mut rt = Runtime::new();
        let (d, s) = rt.block_on(async {
            let lm = LockManager::new(Duration::from_secs(5));
            let settle = lm.wait_timeout() + Duration::from_secs(1);
            let batch = |b: u64| handoff_batch(&lm, b * WRITERS * HANDOFF_ROUNDS);
            batch(0).await; // warm the grant-channel pool
            geotp_simrt::sleep(settle).await;
            let drained = batch(1).await;
            geotp_simrt::sleep(settle).await;
            for b in 0..STALE_BATCHES {
                batch(2 + b).await;
            }
            (drained, batch(2 + STALE_BATCHES).await)
        });
        drained = drained.min(d);
        stale = stale.min(s);
    }
    stale.as_secs_f64() / drained.as_secs_f64()
}

/// One timed run of footprint bookkeeping, in ns per transaction-key: the
/// three calls a transaction makes (`on_access_start`, `on_subtxn_feedback`,
/// `on_txn_finish`) over five-key transactions on a footprint filled to the
/// paper-default capacity (fill untimed). Two keys in five are cold — an
/// insert plus an eviction, the churn `ycsb_paper` shows — and the rest were
/// inserted within the last half-capacity of cold keys, so they are resident.
fn footprint_key_once() -> f64 {
    let capacity = HotspotConfig::default().capacity as u64;
    let key = |row: u64| GlobalKey::new(TableId(0), row);
    let mut fp = HotspotFootprint::with_defaults();
    for row in 0..capacity {
        fp.on_access_start(&[key(row)]);
        fp.on_txn_finish(&[key(row)], true);
    }
    let mut next_cold = capacity;
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let keys: Vec<GlobalKey> = (0..FOOTPRINT_TXNS * 5)
        .map(|i| {
            if i % 5 < 2 {
                next_cold += 1;
                key(next_cold - 1)
            } else {
                key(next_cold - 1 - rng.gen_range(0..capacity / 2))
            }
        })
        .collect();
    let started = Instant::now();
    for txn in keys.chunks_exact(5) {
        fp.on_access_start(txn);
        fp.on_subtxn_feedback(txn, Duration::from_micros(300));
        fp.on_txn_finish(txn, true);
    }
    let elapsed = started.elapsed();
    std::hint::black_box(fp.evictions());
    elapsed.as_secs_f64() * 1e9 / keys.len() as f64
}

fn best_footprint_key_ns() -> f64 {
    (0..PROBES)
        .map(|_| footprint_key_once())
        .fold(f64::MAX, f64::min)
}

/// Deterministic pure-CPU calibration: FNV-1a over 1 MiB × 8 passes, best
/// of 5. The baseline file records this figure from the machine that
/// recorded the baseline timings; the ratio of local to recorded
/// calibration rescales the regression limit, so a slower CI runner is not
/// misread as a code regression (and a faster one does not mask a real
/// one).
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

/// Pull a numeric field out of the baseline JSON's `smoke_baseline` block
/// without a JSON dependency (the build is offline; the file is
/// repo-controlled and the shape is stable).
fn baseline_number(json: &str, key: &str) -> Option<f64> {
    let block = &json[json.find("\"smoke_baseline\"")?..];
    let field = format!("\"{key}\"");
    let rest = &block[block.find(&field)? + field.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let tolerance_pct: f64 = std::env::var("GEOTP_SMOKE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let json = std::fs::read_to_string(baseline_path).expect("read BENCH_hotpath.json");

    // Re-record the baseline (after an intentional hot-path change): prints
    // the `smoke_baseline` JSON block to paste into BENCH_hotpath.json.
    if std::env::var("GEOTP_SMOKE_RECORD").is_ok() {
        let calibration = calibration_us();
        let t0 = best_of(0).as_secs_f64() * 1e6;
        let t10k = best_of(10_000).as_secs_f64() * 1e6;
        let footprint_ns = best_footprint_key_ns();
        println!(
            " \"smoke_baseline\": {{\n  \"note\": \"hotpath_smoke gate: best-of-{PROBES} \
             contended promote chain and footprint transaction-key; limits scale by \
             local/recorded calibration\",\n  \
             \"calibration_us\": {calibration:.1},\n  \"table_0_us\": {t0:.1},\n  \
             \"table_10000_us\": {t10k:.1},\n  \"footprint_key_ns\": {footprint_ns:.1}\n }}"
        );
        return;
    }

    // Machine-speed normalization (clamped: a wildly different calibration
    // means the comparison is meaningless either way, so cap the stretch).
    let local_calibration = calibration_us();
    let recorded_calibration = baseline_number(&json, "calibration_us")
        .expect("BENCH_hotpath.json has smoke_baseline.calibration_us");
    let speed_scale = (local_calibration / recorded_calibration).clamp(0.25, 8.0);
    println!(
        "calibration: local {local_calibration:.0} us vs recorded {recorded_calibration:.0} us \
         -> limits scaled x{speed_scale:.2}"
    );

    let mut failed = false;
    // Compare one measured figure with `smoke_baseline.<key>`.
    let mut gate = |name: &str, key: &str, unit: &str, measured: f64| {
        let Some(baseline) = baseline_number(&json, key) else {
            eprintln!("hotpath_smoke: no smoke_baseline.{key} in BENCH_hotpath.json");
            std::process::exit(2);
        };
        let limit = baseline * (1.0 + tolerance_pct / 100.0) * speed_scale;
        let verdict = if measured > limit { "REGRESSED" } else { "ok" };
        println!(
            "{name}: {measured:.1} {unit} (baseline {baseline:.1} {unit}, \
             limit {limit:.1} {unit}) {verdict}"
        );
        failed |= measured > limit;
    };
    let mut timings = Vec::new();
    for size in [0u64, 10_000] {
        let measured_us = best_of(size).as_secs_f64() * 1e6;
        timings.push(measured_us);
        gate(
            &format!("contended_promote_chain_64_writers/table_{size}"),
            &format!("table_{size}_us"),
            "us",
            measured_us,
        );
    }
    gate(
        "hotspot_footprint/txn_key_at_capacity_40pct_cold",
        "footprint_key_ns",
        "ns",
        best_footprint_key_ns(),
    );

    // Structural flatness: independent of how fast this machine is.
    let (empty, full) = (timings[0], timings[1]);
    let flat = full <= empty * 2.5;
    println!(
        "flatness: table_10000 / table_0 = {:.2}x (must be <= 2.5x) {}",
        full / empty,
        if flat { "ok" } else { "REGRESSED" }
    );
    if !flat {
        failed = true;
    }
    let stale_ratio = stale_timer_ratio();
    let stale_flat = stale_ratio <= 2.0;
    println!(
        "flatness: hand-offs behind {} abandoned timeouts / drained = {stale_ratio:.2}x \
         (must be <= 2.0x) {}",
        STALE_BATCHES * WRITERS * HANDOFF_ROUNDS,
        if stale_flat { "ok" } else { "REGRESSED" }
    );
    if !stale_flat {
        failed = true;
    }

    if failed {
        eprintln!(
            "hotpath_smoke: a hot-path microbench regressed beyond {tolerance_pct}% \
             of BENCH_hotpath.json (set GEOTP_SMOKE_TOLERANCE to adjust)"
        );
        std::process::exit(1);
    }
}
