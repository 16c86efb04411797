//! Quick-mode flatness gate for two hot paths.
//!
//! Both checks are ratios of two timings taken in the same run, so they hold
//! at any host speed and convict a structural regression, not a slow host:
//!
//! * the contended 64-writer promote chain over a 10 000-entry lock table
//!   must not cost more than 2.5× the same chain over an empty table (the
//!   pre-index lock manager read ~500×: it scanned the table per release);
//! * the same hand-off chain behind 12 800 abandoned 5 s lock-wait timeouts
//!   must not cost more than 2.0× the chain on a drained timer store (a store
//!   that looks at pending timers it is not firing read 3–5×, growing with
//!   their number).
//!
//! Each side is the best of N runs (the minimum is the least noisy location
//! estimate for a microbench on a shared box). Absolute timings are not
//! gated: on a shared host they read REGRESSED on a commit and its parent
//! alike. `micro_structures` still times the promote chain and the hotspot
//! footprint for manual before/after comparison.
//!
//! ```text
//! cargo bench -p geotp-bench --bench hotpath_smoke
//! ```

use std::rc::Rc;
use std::time::{Duration, Instant};

use geotp_simrt::Runtime;
use geotp_storage::{Key, LockManager, LockMode, TableId, Xid};

const WRITERS: u64 = 64;
const PROBES: usize = 40;

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

/// Print one flatness line; returns whether `ratio` exceeds `limit`.
fn regressed(name: &str, ratio: f64, limit: f64) -> bool {
    let bad = ratio > limit;
    println!(
        "flatness: {name} = {ratio:.2}x (must be <= {limit:.1}x) {}",
        if bad { "REGRESSED" } else { "ok" }
    );
    bad
}

fn main() {
    let empty = best_of(0).as_secs_f64();
    let full = best_of(10_000).as_secs_f64();
    let mut failed = regressed("table_10000 / table_0", full / empty, 2.5);
    failed |= regressed(
        &format!(
            "hand-offs behind {} abandoned timeouts / drained",
            STALE_BATCHES * WRITERS * HANDOFF_ROUNDS
        ),
        stale_timer_ratio(),
        2.0,
    );
    if failed {
        eprintln!("hotpath_smoke: a within-run flatness ratio regressed");
        std::process::exit(1);
    }
}
