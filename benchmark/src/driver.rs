//! The benchmark's own load drivers over `Session::run_spec`.
//!
//! Both keep the raw virtual latency of every committed transaction that
//! finishes inside the measure window (the repository's drivers keep a
//! log-bucket histogram or a mean and one percentile), and both count every
//! outcome: committed, aborted by design, or an error a healthy deployment
//! must not return.
//!
//! * [`closed_loop`]: `terminals` clients, each sending its next transaction
//!   only after the previous outcome; latency is `TxnOutcome::latency`.
//! * [`open_loop`]: arrivals on a fixed virtual-time schedule regardless of
//!   completions; latency runs from the arrival's *due* time, and the
//!   generator's lateness against that schedule is recorded, not assumed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use crate::sut::{
    classify, now, sleep, sleep_until, spawn, ClientOp, Deployment, JoinHandle, OutcomeClass, Rng,
    SeedableRng, SimInstant, StdRng, TransactionSpec, TxnOutcome, USERTABLE,
};

/// Produces the next transaction from a terminal's random stream.
pub type Generator = Rc<dyn Fn(&mut StdRng) -> TransactionSpec>;

/// Everything a drive pass observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Transactions that finished inside the window, by class.
    pub committed: u64,
    pub aborted: u64,
    /// Error-class outcomes at any time in the pass (must stay 0).
    pub errors: u64,
    /// Commits at any time in the pass (warm-up and drain included): the
    /// numerator of host-time throughput, whose wall clock covers them all.
    pub committed_pass: u64,
    /// Virtual latency in microseconds of each commit counted in `committed`.
    pub latencies_us: Vec<u64>,
    /// Net change the pass's commits must have made to the usertable's
    /// column-0 sum (`AddInt` deltas of committed transactions).
    pub committed_delta: i64,
    /// Gtrids of every commit in the pass; collected only when tracing.
    pub committed_gtrids: Vec<u64>,
    /// Open loop: the latest any arrival started after its due time.
    pub max_gen_lag_us: u64,
    /// Open loop: transactions in flight at the end of the window.
    pub inflight_at_end: u64,
}

impl Tally {
    pub fn attempts(&self) -> u64 {
        self.committed + self.aborted
    }

    fn record(
        &mut self,
        spec: &TransactionSpec,
        outcome: &TxnOutcome,
        latency: Duration,
        in_window: bool,
        keep_gtrids: bool,
    ) {
        match classify(outcome) {
            OutcomeClass::Committed => {
                self.committed_pass += 1;
                self.committed_delta += usertable_delta(spec);
                if keep_gtrids {
                    self.committed_gtrids.push(outcome.gtrid);
                }
                if in_window {
                    self.committed += 1;
                    self.latencies_us.push(latency.as_micros() as u64);
                }
            }
            OutcomeClass::Aborted => {
                if in_window {
                    self.aborted += 1;
                }
            }
            OutcomeClass::Error => self.errors += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.errors += other.errors;
        self.committed_pass += other.committed_pass;
        self.latencies_us.extend(other.latencies_us);
        self.committed_delta += other.committed_delta;
        self.committed_gtrids.extend(other.committed_gtrids);
        self.max_gen_lag_us = self.max_gen_lag_us.max(other.max_gen_lag_us);
    }
}

fn usertable_delta(spec: &TransactionSpec) -> i64 {
    spec.all_ops()
        .map(|op| match op {
            ClientOp::AddInt { key, col: 0, delta } if key.table == USERTABLE => *delta,
            _ => 0,
        })
        .sum()
}

/// Await every task in turn. The runtime's `join_all` re-polls each
/// unfinished handle on every wake-up, which is quadratic in the number of
/// tasks; an open-loop pass joins tens of thousands of arrivals, and that
/// cost would be the harness's, not the system's.
pub async fn join_each<T>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut outputs = Vec::with_capacity(handles.len());
    for handle in handles {
        outputs.push(handle.await);
    }
    outputs
}

/// One stream per terminal, derived from the benchmark seed.
fn stream(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(lane))
}

#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warmup: Duration,
    pub measure: Duration,
}

impl Window {
    fn bounds(&self) -> (SimInstant, SimInstant) {
        let start = now() + self.warmup;
        (start, start + self.measure)
    }
}

/// Closed loop: each terminal owns one session and one random stream.
pub async fn closed_loop(
    deployment: &Rc<Deployment>,
    generator: &Generator,
    terminals: usize,
    window: Window,
    seed: u64,
    keep_gtrids: bool,
) -> Tally {
    let (measure_start, end) = window.bounds();
    let mut handles = Vec::with_capacity(terminals);
    for terminal in 0..terminals as u64 {
        let deployment = Rc::clone(deployment);
        let generator = Rc::clone(generator);
        let mut rng = stream(seed, terminal);
        handles.push(spawn(async move {
            let mut tally = Tally::default();
            let mut session = deployment.connect(terminal);
            while now() < end {
                let spec = generator(&mut rng);
                let outcome = session.run_spec(&spec).await;
                if outcome.is_refusal() {
                    // Counted as an error below; the pause keeps a dead
                    // deployment from spinning the terminal.
                    sleep(Duration::from_millis(250)).await;
                }
                let finished = now();
                let in_window = finished >= measure_start && finished < end;
                tally.record(&spec, &outcome, outcome.latency, in_window, keep_gtrids);
            }
            tally
        }));
    }
    let mut merged = Tally::default();
    for tally in join_each(handles).await {
        merged.merge(tally);
    }
    merged
}

/// Open loop: `rate` arrivals per virtual second, evenly spaced, cycled
/// round-robin over `sessions` session ids; each arrival is its own task.
pub async fn open_loop(
    deployment: &Rc<Deployment>,
    generator: &Generator,
    rate: u64,
    sessions: u64,
    window: Window,
    seed: u64,
    keep_gtrids: bool,
) -> Tally {
    let start = now();
    let (measure_start, end) = window.bounds();
    let interval_us = 1_000_000 / rate;
    let arrivals = (window.warmup + window.measure).as_micros() as u64 / interval_us;
    let mut rng = stream(seed, 0);
    let tally = Rc::new(RefCell::new(Tally::default()));
    let inflight = Rc::new(Cell::new(0u64));
    let mut tasks = Vec::with_capacity(arrivals as usize);
    for arrival in 0..arrivals {
        let due = start + Duration::from_micros(arrival * interval_us);
        sleep_until(due).await;
        let spec = generator(&mut rng);
        let deployment = Rc::clone(deployment);
        let tally = Rc::clone(&tally);
        let inflight = Rc::clone(&inflight);
        inflight.set(inflight.get() + 1);
        tasks.push(spawn(async move {
            let lag = now().duration_since(due).as_micros() as u64;
            let mut session = deployment.connect(arrival % sessions);
            let outcome = session.run_spec(&spec).await;
            inflight.set(inflight.get() - 1);
            let finished = now();
            let in_window = finished >= measure_start && finished < end;
            let mut tally = tally.borrow_mut();
            tally.max_gen_lag_us = tally.max_gen_lag_us.max(lag);
            tally.record(
                &spec,
                &outcome,
                finished.duration_since(due),
                in_window,
                keep_gtrids,
            );
        }));
    }
    sleep_until(end).await;
    let inflight_at_end = inflight.get();
    join_each(tasks).await;
    let mut tally = Rc::try_unwrap(tally)
        .expect("every arrival task has finished")
        .into_inner();
    tally.inflight_at_end = inflight_at_end;
    tally
}

/// Uniformly random distinct pair below `n`.
pub fn distinct_pair(rng: &mut StdRng, n: u64) -> (u64, u64) {
    let a = rng.gen_range(0..n);
    let mut b = rng.gen_range(0..n - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}
