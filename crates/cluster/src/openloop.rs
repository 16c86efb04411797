//! Open-loop load driver for the cluster tier.
//!
//! The paper's closed-loop terminals (and `geotp-workloads::driver`) measure
//! a system that is never offered more load than it can absorb — each
//! terminal waits for its outcome before submitting again, so a saturated
//! coordinator simply slows the terminals down and the throughput ceiling of
//! the *tier* stays invisible. The open-loop driver severs that feedback:
//! transactions arrive on a fixed schedule regardless of completions, queue
//! on the routed coordinator's capacity gate, and latency is measured from
//! *arrival* (queueing included). Under-provisioned tiers show up exactly the
//! way they do in production: completed throughput caps at tier capacity and
//! p99 latency explodes with the backlog.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use geotp_middleware::TransactionSpec;
use geotp_simrt::{now, sleep_until, spawn};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cluster::CoordinatorCluster;

/// Open-loop drive parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopConfig {
    /// Offered load: arrivals per second of virtual time.
    pub arrivals_per_sec: u64,
    /// Distinct client sessions, cycled round-robin over arrivals (sessions
    /// are the unit of router affinity).
    pub sessions: u64,
    /// Arrivals during warm-up are executed but not measured.
    pub warmup: Duration,
    /// Measurement window (starts after `warmup`).
    pub measure: Duration,
    /// Seed for the workload generator stream.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            arrivals_per_sec: 500,
            sessions: 256,
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(4),
            seed: 42,
        }
    }
}

/// What an open-loop run measured. Completions are attributed to the window
/// they *finish* in (goodput): a saturated tier shows its service capacity,
/// not the offered rate, and the backlog shows up in the latency tail.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Transactions offered (arrivals) during the measurement window.
    pub offered: u64,
    /// Transactions whose commit completed inside the measurement window.
    pub committed: u64,
    /// Definite aborts completing inside the window.
    pub aborted: u64,
    /// Arrivals (any time) that found no live coordinator.
    pub refused: u64,
    /// Arrivals (any time) shed by admission control (bounded queue full or
    /// queue-time deadline expired). Sheds are the tier degrading *on
    /// purpose*: they are excluded from `aborted` and from the latency
    /// population, exactly like refusals.
    pub overloaded: u64,
    /// Committed transactions per second of the measurement window.
    pub throughput: f64,
    /// Mean arrival-to-outcome latency of measured committed transactions
    /// (queueing on the coordinator's capacity gate included).
    pub mean_latency: Duration,
    /// p99 arrival-to-outcome latency of measured committed transactions.
    pub p99_latency: Duration,
}

/// Drive `cluster` open-loop: `make_spec` generates each arrival's
/// transaction from a deterministic stream, arrivals are spaced evenly at
/// `config.arrivals_per_sec`, and every arrival runs as its own task (no
/// feedback from completions to arrivals).
pub async fn run_open_loop(
    cluster: &Rc<CoordinatorCluster>,
    make_spec: impl FnMut(&mut StdRng) -> TransactionSpec,
    config: OpenLoopConfig,
) -> OpenLoopReport {
    let mut make_spec = make_spec;
    let start = now();
    let measure_start = start + config.warmup;
    let end = measure_start + config.measure;
    let interval_micros = (1_000_000 / config.arrivals_per_sec).max(1);
    let total_arrivals = ((config.warmup + config.measure).as_micros() as u64) / interval_micros;

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0b5e_55ed_0b5e_55ed);
    let latencies: Rc<RefCell<Vec<Duration>>> = Rc::new(RefCell::new(Vec::new()));
    let committed = Rc::new(std::cell::Cell::new(0u64));
    let aborted = Rc::new(std::cell::Cell::new(0u64));
    let refused = Rc::new(std::cell::Cell::new(0u64));
    let overloaded = Rc::new(std::cell::Cell::new(0u64));
    let mut offered = 0u64;
    let mut tasks = Vec::with_capacity(total_arrivals as usize);

    for arrival in 0..total_arrivals {
        let at = start + Duration::from_micros(arrival * interval_micros);
        sleep_until(at).await;
        let spec = make_spec(&mut rng);
        let session = arrival % config.sessions;
        if at >= measure_start && at < end {
            offered += 1;
        }
        let cluster = Rc::clone(cluster);
        let latencies = Rc::clone(&latencies);
        let committed = Rc::clone(&committed);
        let aborted = Rc::clone(&aborted);
        let refused = Rc::clone(&refused);
        let overloaded = Rc::clone(&overloaded);
        tasks.push(spawn(async move {
            let arrived = now();
            // Each arrival drives its transaction through the session front
            // door (session affinity + per-coordinator worker capacity live
            // behind `begin`).
            let mut conn = cluster.connect(session);
            let outcome = conn.run_spec(&spec).await;
            if outcome.is_refusal() {
                // Refused: no live coordinator took the session's begin.
                refused.set(refused.get() + 1);
                return;
            }
            if outcome.is_overloaded() {
                // Shed by admission control: an explicit, fast rejection —
                // the degradation the bounded queue exists to produce.
                overloaded.set(overloaded.get() + 1);
                return;
            }
            let finished = now();
            if finished < measure_start || finished >= end {
                return;
            }
            if outcome.committed {
                committed.set(committed.get() + 1);
                latencies
                    .borrow_mut()
                    .push(finished.duration_since(arrived));
            } else {
                aborted.set(aborted.get() + 1);
            }
        }));
    }
    // Drain the backlog so no task outlives the run (completions after the
    // window are executed but not counted). One handle after another:
    // `join_all` would re-poll every unfinished arrival on each wake-up.
    for task in tasks {
        task.await;
    }

    let mut lats = latencies.borrow_mut();
    lats.sort_unstable();
    let mean = if lats.is_empty() {
        Duration::ZERO
    } else {
        lats.iter().sum::<Duration>() / lats.len() as u32
    };
    let p99 = lats
        .get(((lats.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(Duration::ZERO);
    OpenLoopReport {
        offered,
        committed: committed.get(),
        aborted: aborted.get(),
        refused: refused.get(),
        overloaded: overloaded.get(),
        throughput: committed.get() as f64 / config.measure.as_secs_f64(),
        mean_latency: mean,
        p99_latency: p99,
    }
}
