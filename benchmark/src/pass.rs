//! One pass: a fresh deployment, bulk load, one drive, drain, and the
//! correctness gate. End-to-end numbers come from untraced passes; a traced
//! pass adds the span collector and the counting allocator.

use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::driver::{closed_loop, open_loop, Tally};
use crate::stats::percentile_sorted;
use crate::sut::{self, Counters, Deployment, RunMetrics, TraceSummary};
use crate::workloads::{Load, Workload};

/// Virtual time allowed after the last client outcome for asynchronous
/// decision dispatches and geo-agent notifications to land before the
/// quiescence gate looks at the engines.
const DRAIN: Duration = Duration::from_secs(2);
/// Transactions whose spans go into the Chrome trace file (the aggregate
/// critical path always covers every committed transaction).
const TRACE_FILE_TXNS: usize = 256;

/// What a traced pass measures on top of an untraced one.
pub struct Traced {
    pub summary: TraceSummary,
    /// `(calls, bytes)` allocated while building and loading the deployment.
    pub setup_alloc: (u64, u64),
    /// `(calls, bytes)` allocated from the first arrival through the drain.
    pub drive_alloc: (u64, u64),
}

pub struct Pass {
    /// Host seconds to build the deployment and bulk-load it.
    pub setup_s: f64,
    /// Host seconds from the first arrival through the drain.
    pub drive_s: f64,
    pub tally: Tally,
    pub counters: Counters,
    pub run: RunMetrics,
    pub rows_loaded: u64,
    pub fingerprint: u64,
    pub window_s: f64,
    pub traced: Option<Traced>,
}

impl Pass {
    pub fn sim_txn_per_s(&self) -> f64 {
        self.tally.committed as f64 / self.window_s
    }

    pub fn sim_p50_ms(&self) -> f64 {
        percentile_sorted(&self.tally.latencies_us, 50.0) as f64 / 1e3
    }

    pub fn sim_p99_ms(&self) -> f64 {
        percentile_sorted(&self.tally.latencies_us, 99.0) as f64 / 1e3
    }

    pub fn sim_fail_ratio(&self) -> f64 {
        self.tally.aborted as f64 / self.tally.attempts().max(1) as f64
    }

    pub fn host_txn_per_s(&self) -> f64 {
        self.tally.committed_pass as f64 / self.drive_s
    }
}

fn since(mark: (u64, u64)) -> (u64, u64) {
    let (calls, bytes) = alloc::counted();
    (calls - mark.0, bytes - mark.1)
}

/// Run one pass of `workload`. `rate` selects the open-loop arrival rate
/// (ignored by closed-loop workloads). With `trace_path` set the pass is
/// traced and the span sample is written there. A pass that fails the
/// correctness gate returns the violations instead of numbers.
pub fn run_pass(
    workload: &Workload,
    seed: u64,
    rate: u64,
    trace_path: Option<&Path>,
) -> Result<Pass, Vec<String>> {
    let mut runtime = workload.deploy.runtime();
    let tracing = trace_path.is_some();
    let result = runtime.block_on(async {
        let mark = alloc::counted();
        alloc::set_counting(tracing);
        let started = Instant::now();
        let deployment = Rc::new(Deployment::build(workload.deploy));
        workload.dataset.load(deployment.sources());
        let setup_s = started.elapsed().as_secs_f64();
        let setup_alloc = since(mark);
        let rows_loaded = deployment.counters().record_count;

        let generator = workload.dataset.generator();
        let telemetry = tracing.then(sut::trace_install);
        let mark = alloc::counted();
        let started = Instant::now();
        let mut tally = match workload.load {
            Load::Closed { terminals } => {
                closed_loop(
                    &deployment,
                    &generator,
                    terminals,
                    workload.window,
                    seed,
                    tracing,
                )
                .await
            }
            Load::Open { sessions, .. } => {
                open_loop(
                    &deployment,
                    &generator,
                    rate,
                    sessions,
                    workload.window,
                    seed,
                    tracing,
                )
                .await
            }
        };
        sut::sleep(DRAIN).await;
        deployment.stop();
        let drive_s = started.elapsed().as_secs_f64();
        let drive_alloc = since(mark);
        alloc::set_counting(false);

        let traced = match (telemetry, trace_path) {
            (Some(telemetry), Some(path)) => Some(Traced {
                summary: sut::trace_finish(
                    telemetry,
                    &mut tally.committed_gtrids,
                    path,
                    TRACE_FILE_TXNS,
                )
                .map_err(|e| vec![format!("writing {}: {e}", path.display())])?,
                setup_alloc,
                drive_alloc,
            }),
            _ => None,
        };

        let mut violations = deployment.quiescence_violations();
        if tally.errors > 0 {
            violations.push(format!(
                "{} outcomes were refusals, crashes, fences or expired sessions",
                tally.errors
            ));
        }
        if tally.max_gen_lag_us > 0 {
            violations.push(format!(
                "open-loop generator ran {} us late",
                tally.max_gen_lag_us
            ));
        }
        let (data_violations, sums) = workload.dataset.check(&deployment, tally.committed_delta);
        violations.extend(data_violations);
        if !violations.is_empty() {
            return Err(violations);
        }

        tally.latencies_us.sort_unstable();
        let counters = deployment.counters();
        Ok(Pass {
            setup_s,
            drive_s,
            fingerprint: fingerprint(&tally, &counters, &sums),
            tally,
            counters,
            // The runtime's counters are read once `block_on` has returned.
            run: RunMetrics::default(),
            rows_loaded,
            window_s: workload.window.measure.as_secs_f64(),
            traced,
        })
    });
    let mut pass = result?;
    pass.run = runtime.metrics();
    Ok(pass)
}

/// FNV-1a over everything virtual-time about the pass: what committed and
/// failed, the latency sum, the stored sums and every layer counter. Equal
/// fingerprints mean a change left the simulated system's behaviour alone.
fn fingerprint(tally: &Tally, counters: &Counters, sums: &[i64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(tally.committed);
    mix(tally.aborted);
    mix(tally.committed_pass);
    mix(tally.latencies_us.iter().sum());
    for sum in sums {
        mix(*sum as u64);
    }
    for (_, value) in counters.fields() {
        mix(value);
    }
    hash
}
