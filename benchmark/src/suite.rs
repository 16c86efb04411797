//! What one invocation does: the end-to-end run (untraced passes over a fixed
//! set of generator streams, host medians over all passes) or the per-layer
//! run (one untraced and one traced pass of the first stream, plus probes).

use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::pass::{run_pass, Pass};
use crate::probes;
use crate::stats::{median, quartiles};
use crate::sut::Counters;
use crate::workloads::{Load, Workload};

/// Limits an open-loop rate must meet to count for `sim_max_rate_ok`.
const P99_LIMIT_MS: f64 = 400.0;
const FAIL_LIMIT: f64 = 0.01;

/// One value with the quartiles of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    fn exact(value: f64) -> Self {
        Self {
            value,
            q1: value,
            q3: value,
        }
    }

    fn median_of(samples: &[f64]) -> Self {
        let (q1, value, q3) = quartiles(samples);
        Self { value, q1, q3 }
    }
}

pub struct EndToEndReport {
    /// `(metric name, value)` in `END_TO_END` order; `sim_max_rate_ok` is
    /// present for open-loop workloads only.
    pub metrics: Vec<(&'static str, Measured)>,
    pub attempted: u64,
    pub committed: u64,
    pub aborted: u64,
    pub latency_samples: u64,
    pub passes: usize,
    /// `host_txn_per_s` of every pass, in run order.
    pub pass_host_txn_per_s: Vec<f64>,
    pub gen_lag_ms: f64,
    pub fingerprint: u64,
    /// Open loop: one row per ladder rate.
    pub ladder: Vec<LadderRow>,
}

pub struct LadderRow {
    pub rate: u64,
    pub sim_txn_per_s: f64,
    pub sim_p99_ms: f64,
    pub sim_fail_ratio: f64,
    pub inflight_at_end: u64,
    pub ok: bool,
}

/// The generator stream of instance `k` of a run seeded with `seed`.
fn stream_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(k as u64)
}

fn reference_rate(workload: &Workload) -> u64 {
    match workload.load {
        Load::Closed { .. } => 0,
        Load::Open { reference_rate, .. } => reference_rate,
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mean_ms(latencies_us: &[u64]) -> f64 {
    latencies_us.iter().sum::<u64>() as f64 / 1e3 / latencies_us.len().max(1) as f64
}

/// Mean of the slowest hundredth of an ascending latency list: everything at
/// or beyond the 99th percentile.
fn tail_ms(sorted_us: &[u64]) -> f64 {
    let from = sorted_us.len() - sorted_us.len().div_ceil(100).max(1).min(sorted_us.len());
    mean_ms(&sorted_us[from..])
}

/// Untraced passes. Each of the workload's `instances` generator streams is
/// run once; then streams are repeated in turn, at least once, until
/// `seconds` of host time have gone by. `sim_*` is the median over the
/// streams (fixed, so it does not depend on how fast the host is), `host_*`
/// and `setup_s` the median over every pass. A repeated pass must reproduce
/// its stream's fingerprint exactly.
pub fn run_end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: u64,
) -> Result<EndToEndReport, Vec<String>> {
    let started = Instant::now();
    let rate = reference_rate(workload);
    let mut firsts: Vec<Pass> = Vec::with_capacity(workload.instances);
    let mut host_txn_per_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut passes = 0;
    loop {
        let k = passes % workload.instances;
        let pass = run_pass(workload, stream_seed(seed, k), rate, None)?;
        host_txn_per_s.push(pass.host_txn_per_s());
        setup_s.push(pass.setup_s);
        passes += 1;
        match firsts.get(k) {
            None => firsts.push(pass),
            Some(first) if first.fingerprint != pass.fingerprint => {
                return Err(vec![format!(
                    "stream {k} is not deterministic: sim_fingerprint {:016x} then {:016x}",
                    first.fingerprint, pass.fingerprint
                )]);
            }
            Some(_) => {}
        }
        if passes > workload.instances && started.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }

    let over_streams = |f: &dyn Fn(&Pass) -> f64| {
        Measured::exact(median(&firsts.iter().map(f).collect::<Vec<_>>()))
    };
    let mut ladder = Vec::new();
    let mut max_rate_ok = None;
    if let Load::Open { ladder: rates, .. } = workload.load {
        let mut max_ok = 0;
        let mut all_ok_so_far = true;
        for &rate in rates {
            let pass = run_pass(workload, stream_seed(seed, 0), rate, None)?;
            // Little's law: with p99 at its limit, a rate keeps at most
            // rate x limit transactions in flight; more is a backlog.
            let backlog_limit = (rate as f64 * P99_LIMIT_MS / 1e3) as u64;
            let ok = pass.sim_p99_ms() <= P99_LIMIT_MS
                && pass.sim_fail_ratio() <= FAIL_LIMIT
                && pass.tally.inflight_at_end <= backlog_limit;
            all_ok_so_far &= ok;
            if all_ok_so_far {
                max_ok = rate;
            }
            ladder.push(LadderRow {
                rate,
                sim_txn_per_s: pass.sim_txn_per_s(),
                sim_p99_ms: pass.sim_p99_ms(),
                sim_fail_ratio: pass.sim_fail_ratio(),
                inflight_at_end: pass.tally.inflight_at_end,
                ok,
            });
        }
        max_rate_ok = Some(("sim_max_rate_ok", Measured::exact(max_ok as f64)));
    }

    // In `END_TO_END` order.
    let fail = over_streams(&|p| p.sim_fail_ratio());
    let mut metrics = vec![
        ("host_txn_per_s", Measured::median_of(&host_txn_per_s)),
        ("sim_txn_per_s", over_streams(&|p| p.sim_txn_per_s())),
        ("sim_p50_ms", over_streams(&|p| p.sim_p50_ms())),
        ("sim_p99_ms", over_streams(&|p| p.sim_p99_ms())),
        (
            "sim_mean_ms",
            over_streams(&|p| mean_ms(&p.tally.latencies_us)),
        ),
        (
            "sim_tail_ms",
            over_streams(&|p| tail_ms(&p.tally.latencies_us)),
        ),
        ("sim_fail_ratio", fail),
        ("sim_commit_ratio", Measured::exact(1.0 - fail.value)),
    ];
    metrics.extend(max_rate_ok);
    metrics.push(("setup_s", Measured::median_of(&setup_s)));
    metrics.push(("peak_rss_mb", Measured::exact(peak_rss_mb())));

    // Every stream's fingerprint, folded in stream order.
    let fingerprint = firsts
        .iter()
        .fold(0u64, |acc, p| acc.rotate_left(7) ^ p.fingerprint);
    Ok(EndToEndReport {
        metrics,
        attempted: firsts.iter().map(|p| p.tally.attempts()).sum(),
        committed: firsts.iter().map(|p| p.tally.committed).sum(),
        aborted: firsts.iter().map(|p| p.tally.aborted).sum(),
        latency_samples: firsts
            .iter()
            .map(|p| p.tally.latencies_us.len() as u64)
            .min()
            .unwrap_or(0),
        passes,
        pass_host_txn_per_s: host_txn_per_s,
        gen_lag_ms: firsts
            .iter()
            .map(|p| p.tally.max_gen_lag_us)
            .max()
            .unwrap_or(0) as f64
            / 1e3,
        fingerprint,
        ladder,
    })
}

pub struct PerLayerReport {
    /// `(metric name, value)` in `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub committed: u64,
    pub fingerprint: u64,
    /// Raw counter sums of the traced pass.
    pub counters: Counters,
    pub probe_spans: Json,
    /// Host nanoseconds per committed transaction of the untraced pass, next
    /// to the peel's four-layer sum: the residual the probes do not explain.
    pub pass_ns_per_txn: f64,
}

/// The per-layer run: the first stream once untraced and once traced (the
/// two must agree on the fingerprint: tracing may not perturb the schedule),
/// counters through the layers' public accessors, the critical path from the
/// span tree, the counting allocator, and the isolated probes.
pub fn run_per_layer(
    workload: &Workload,
    seed: u64,
    trace_path: &Path,
) -> Result<PerLayerReport, Vec<String>> {
    let rate = reference_rate(workload);
    let seed = stream_seed(seed, 0);
    let untraced = run_pass(workload, seed, rate, None)?;
    let traced_pass = run_pass(workload, seed, rate, Some(trace_path))?;
    if untraced.fingerprint != traced_pass.fingerprint {
        return Err(vec![format!(
            "tracing perturbed the schedule: sim_fingerprint {:016x} untraced, {:016x} traced",
            untraced.fingerprint, traced_pass.fingerprint
        )]);
    }
    let traced = traced_pass.traced.as_ref().expect("traced pass");
    let probes = probes::run_all();

    let c = &traced_pass.counters;
    let txns = traced_pass.tally.committed_pass.max(1) as f64;
    let per_txn = |count: u64| count as f64 / txns;
    let ms_per_txn = |micros: u64| micros as f64 / 1e3 / txns;
    let ratio = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let run = &untraced.run;
    let summary = &traced.summary;
    let storage_ns = probes.get("storage.probe_branch_ns");
    let datasource_ns = probes.get("datasource.probe_branch_ns");
    let middleware_ns = probes.get("middleware.probe_txn_ns");
    let cluster_ns = probes.get("cluster.probe_txn_ns");

    let value = |name: &str| -> f64 {
        match name {
            "simrt.polls_per_txn" => per_txn(run.polls),
            "simrt.timers_per_txn" => per_txn(run.timers_registered),
            "simrt.tasks_spawned_per_txn" => per_txn(run.tasks_spawned),
            "simrt.clock_advances_per_txn" => per_txn(run.clock_advances),
            "simrt.host_ns_per_poll" => untraced.drive_s * 1e9 / run.polls.max(1) as f64,
            "net.messages_per_txn" => per_txn(c.net_messages),
            "net.sim_latency_ms_per_txn" => ms_per_txn(c.net_latency_us),
            "storage.reads_per_txn" => per_txn(c.reads),
            "storage.writes_per_txn" => per_txn(c.writes),
            "storage.lock_immediate_per_txn" => per_txn(c.lock_immediate),
            "storage.lock_waited_per_txn" => per_txn(c.lock_waited),
            "storage.lock_timeouts_per_txn" => per_txn(c.lock_timeouts),
            "storage.lock_wait_ms_per_txn" => ms_per_txn(c.lock_wait_us),
            "storage.contention_span_ms" => {
                ratio(c.contention_span_us, c.contention_span_samples) / 1e3
            }
            "storage.branch_commit_ratio" => {
                ratio(c.branch_commits, c.branch_commits + c.branch_aborts)
            }
            "storage.wal_flushes_per_txn" => per_txn(c.wal_flushes),
            "storage.wal_live_records" => c.wal_live_records as f64,
            "storage.snapshot_reads_per_txn" => per_txn(c.snapshot_reads),
            "storage.versions_installed_per_txn" => per_txn(c.versions_installed),
            "storage.versions_gced_per_txn" => per_txn(c.versions_gced),
            "storage.gc_passes_per_txn" => per_txn(c.gc_passes),
            "storage.cp_lock_wait_ms" => summary.cp_ms("lock_wait"),
            "datasource.statements_per_txn" => per_txn(c.statements),
            "datasource.decentralized_prepares_per_txn" => per_txn(c.ds_decentralized_prepares),
            "datasource.early_aborts_per_txn" => per_txn(c.early_aborts),
            "datasource.peer_rollbacks_per_txn" => per_txn(c.peer_rollbacks),
            "datasource.failed_statements_per_txn" => per_txn(c.failed_statements),
            "datasource.cp_agent_exec_ms" => summary.cp_ms("agent_exec"),
            "datasource.cp_prepare_ms" => summary.cp_ms("prepare"),
            "middleware.admission_rejects_per_txn" => per_txn(c.admission_rejections),
            "middleware.exec_failures_per_txn" => per_txn(c.execution_failures),
            "middleware.prepare_failures_per_txn" => per_txn(c.prepare_failures),
            "middleware.postpone_ms_per_txn" => ms_per_txn(c.postpone_us),
            "middleware.decentralized_prepare_ratio" => {
                ratio(c.mw_decentralized_prepares, c.mw_committed + c.mw_aborted)
            }
            "middleware.distributed_ratio" => ratio(c.distributed_committed, c.mw_committed),
            "middleware.log_flushes_per_txn" => per_txn(c.commit_log_flushes),
            "middleware.cp_analysis_ms" => summary.cp_ms("analysis"),
            "middleware.cp_round_ms" => summary.cp_ms("round"),
            "middleware.cp_vote_wait_ms" => summary.cp_ms("vote_wait"),
            "middleware.cp_log_flush_ms" => summary.cp_ms("log_flush"),
            "middleware.cp_commit_dispatch_ms" => summary.cp_ms("commit_dispatch"),
            "middleware.cp_rollback_dispatch_ms" => summary.cp_ms("rollback_dispatch"),
            "cluster.sheds_per_offered" => {
                ratio(c.cluster_sheds, c.cluster_sheds + c.cluster_admitted)
            }
            "cluster.admitted_per_txn" => per_txn(c.cluster_admitted),
            "cluster.takeovers" => c.takeovers as f64,
            "cluster.reaped_sessions" => c.reaped_sessions as f64,
            "cluster.cp_admission_ms" => summary.cp_ms("admission"),
            "cluster.cp_session_begin_ms" => summary.cp_ms("session_begin"),
            "telemetry.spans_per_txn" => per_txn(summary.spans),
            "telemetry.overhead_ratio" => traced_pass.drive_s / untraced.drive_s,
            "alloc.count_per_txn" => per_txn(traced.drive_alloc.0),
            "alloc.bytes_per_txn" => per_txn(traced.drive_alloc.1),
            "alloc.setup_bytes_per_row" => ratio(traced.setup_alloc.1, traced_pass.rows_loaded),
            "ledger.storage_self_ns" => storage_ns,
            "ledger.datasource_self_ns" => datasource_ns - storage_ns,
            "ledger.middleware_self_ns" => middleware_ns - datasource_ns,
            "ledger.cluster_self_ns" => cluster_ns - middleware_ns,
            probe => probes.get(probe),
        }
    };
    let metrics = PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();
    Ok(PerLayerReport {
        metrics,
        attempted: traced_pass.tally.attempts(),
        committed: traced_pass.tally.committed,
        fingerprint: traced_pass.fingerprint,
        counters: traced_pass.counters,
        probe_spans: probes.spans_json(),
        pass_ns_per_txn: untraced.drive_s * 1e9 / untraced.tally.committed_pass.max(1) as f64,
    })
}
