//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and, for end-to-end metrics, the bound `compare` applies.
//!
//! Names say which clock they use: `sim_*` is virtual time (what the modelled
//! deployment would do; repeats bit for bit for a seed), `host_*` and
//! `probe_*` are wall clock of the simulator process (noisy).

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far a metric may move in the worse direction between two result sets
/// of `compare` before the row reads "worse".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline's value.
    Relative(f64),
    /// Share of the baseline's value, or this many units, whichever is larger.
    RelativeOrAbsolute(f64, f64),
    /// Units, whatever the baseline.
    Absolute(f64),
    /// One rung of the open-loop rate ladder.
    LadderStep,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Part of the one-line result the contract in `BENCHMARK.json` reads.
    /// Left out: exact percentiles (static links make them atoms of the RTT
    /// lattice, identical for every seed), the fail ratio (zero on some
    /// workloads; its complement `sim_commit_ratio` is in) and the ladder
    /// result (one workload only).
    pub in_contract: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "host_txn_per_s",
        unit: "txn/s",
        better: Better::Higher,
        bound: Bound::Relative(0.10),
        in_contract: true,
    },
    EndToEnd {
        name: "sim_txn_per_s",
        unit: "txn/s",
        better: Better::Higher,
        bound: Bound::Relative(0.02),
        in_contract: true,
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.02),
        in_contract: false,
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.02),
        in_contract: false,
    },
    EndToEnd {
        name: "sim_mean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.02),
        in_contract: true,
    },
    EndToEnd {
        name: "sim_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.02),
        in_contract: true,
    },
    EndToEnd {
        name: "sim_fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Absolute(0.01),
        in_contract: false,
    },
    EndToEnd {
        name: "sim_commit_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: Bound::Absolute(0.01),
        in_contract: true,
    },
    EndToEnd {
        name: "sim_max_rate_ok",
        unit: "arrivals/s",
        better: Better::Higher,
        bound: Bound::LadderStep,
        in_contract: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::RelativeOrAbsolute(0.25, 0.05),
        in_contract: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        in_contract: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in the order the ledger prints them. Layers are
/// the repository's crates; `probe_*` is host nanoseconds per call of an
/// isolated probe, `cp_*` virtual milliseconds on the critical path per
/// committed transaction, the rest exact counts per committed transaction.
pub const PER_LAYER: &[PerLayer] = &[
    layer("simrt.polls_per_txn", "count", Lower),
    layer("simrt.timers_per_txn", "count", Lower),
    layer("simrt.tasks_spawned_per_txn", "count", Lower),
    layer("simrt.clock_advances_per_txn", "count", Lower),
    layer("simrt.host_ns_per_poll", "ns", Lower),
    layer("simrt.probe_timer_ns", "ns", Lower),
    layer("simrt.probe_spawn_ns", "ns", Lower),
    layer("simrt.probe_channel_ns", "ns", Lower),
    layer("simrt.probe_stale_timer_ratio", "ratio", Lower),
    layer("net.messages_per_txn", "count", Lower),
    layer("net.sim_latency_ms_per_txn", "ms", Lower),
    layer("net.probe_transfer_ns", "ns", Lower),
    layer("storage.reads_per_txn", "count", Lower),
    layer("storage.writes_per_txn", "count", Lower),
    layer("storage.lock_immediate_per_txn", "count", Lower),
    layer("storage.lock_waited_per_txn", "count", Lower),
    layer("storage.lock_timeouts_per_txn", "count", Lower),
    layer("storage.lock_wait_ms_per_txn", "ms", Lower),
    layer("storage.contention_span_ms", "ms", Lower),
    layer("storage.branch_commit_ratio", "ratio", Higher),
    layer("storage.wal_flushes_per_txn", "count", Lower),
    layer("storage.wal_live_records", "count", Lower),
    layer("storage.snapshot_reads_per_txn", "count", Higher),
    layer("storage.versions_installed_per_txn", "count", Lower),
    layer("storage.versions_gced_per_txn", "count", Lower),
    layer("storage.gc_passes_per_txn", "count", Lower),
    layer("storage.cp_lock_wait_ms", "ms", Lower),
    layer("storage.probe_branch_ns", "ns", Lower),
    layer("storage.probe_lock_ns", "ns", Lower),
    layer("storage.probe_lock_contended_ns", "ns", Lower),
    layer("storage.probe_snapshot_branch_ns", "ns", Lower),
    layer("storage.probe_load_ns_per_row", "ns", Lower),
    layer("datasource.statements_per_txn", "count", Lower),
    layer("datasource.decentralized_prepares_per_txn", "count", Higher),
    layer("datasource.early_aborts_per_txn", "count", Lower),
    layer("datasource.peer_rollbacks_per_txn", "count", Lower),
    layer("datasource.failed_statements_per_txn", "count", Lower),
    layer("datasource.cp_agent_exec_ms", "ms", Lower),
    layer("datasource.cp_prepare_ms", "ms", Lower),
    layer("datasource.probe_branch_ns", "ns", Lower),
    layer("middleware.admission_rejects_per_txn", "count", Lower),
    layer("middleware.exec_failures_per_txn", "count", Lower),
    layer("middleware.prepare_failures_per_txn", "count", Lower),
    layer("middleware.postpone_ms_per_txn", "ms", Lower),
    layer("middleware.decentralized_prepare_ratio", "ratio", Higher),
    layer("middleware.distributed_ratio", "ratio", Lower),
    layer("middleware.log_flushes_per_txn", "count", Lower),
    layer("middleware.cp_analysis_ms", "ms", Lower),
    layer("middleware.cp_round_ms", "ms", Lower),
    layer("middleware.cp_vote_wait_ms", "ms", Lower),
    layer("middleware.cp_log_flush_ms", "ms", Lower),
    layer("middleware.cp_commit_dispatch_ms", "ms", Lower),
    layer("middleware.cp_rollback_dispatch_ms", "ms", Lower),
    layer("middleware.probe_txn_ns", "ns", Lower),
    layer("middleware.probe_dist_txn_ns", "ns", Lower),
    layer("middleware.probe_schedule_ns", "ns", Lower),
    layer("middleware.probe_hotspot_ns", "ns", Lower),
    layer("middleware.probe_parse_ns", "ns", Lower),
    layer("middleware.probe_sql_cached_ns", "ns", Lower),
    layer("cluster.sheds_per_offered", "ratio", Lower),
    layer("cluster.admitted_per_txn", "count", Lower),
    layer("cluster.takeovers", "count", Lower),
    layer("cluster.reaped_sessions", "count", Lower),
    layer("cluster.cp_admission_ms", "ms", Lower),
    layer("cluster.cp_session_begin_ms", "ms", Lower),
    layer("cluster.probe_txn_ns", "ns", Lower),
    layer("cluster.probe_route_ns", "ns", Lower),
    layer("telemetry.spans_per_txn", "count", Lower),
    layer("telemetry.overhead_ratio", "ratio", Lower),
    layer("workloads.probe_ycsb_generate_ns", "ns", Lower),
    layer("workloads.probe_tpcc_generate_ns", "ns", Lower),
    layer("alloc.count_per_txn", "count", Lower),
    layer("alloc.bytes_per_txn", "B", Lower),
    layer("alloc.setup_bytes_per_row", "B", Lower),
    layer("ledger.storage_self_ns", "ns", Lower),
    layer("ledger.datasource_self_ns", "ns", Lower),
    layer("ledger.middleware_self_ns", "ns", Lower),
    layer("ledger.cluster_self_ns", "ns", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::NAMES;

    /// `BENCHMARK.json` at the repository root is the contract the driver
    /// reads; the one-line result is built from the tables above. The two
    /// must name the same workloads and metrics, with the same units and
    /// directions, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let Some(Json::Arr(items)) = file.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|item| {
                    fields
                        .iter()
                        .map(|f| item.get(f).and_then(Json::as_str).unwrap_or("").to_string())
                        .collect()
                })
                .collect()
        };
        let names: Vec<Vec<String>> = NAMES.iter().map(|n| vec![n.to_string()]).collect();
        assert_eq!(rows("workloads", &["name"]), names);
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .filter(|m| m.in_contract)
            .map(|m| vec![m.name.into(), m.unit.into(), m.better.label().into()])
            .collect();
        assert_eq!(rows("end_to_end", &["name", "unit", "better"]), end_to_end);
        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|m| vec![m.name.into(), m.unit.into(), m.better.label().into()])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), per_layer);
    }
}
