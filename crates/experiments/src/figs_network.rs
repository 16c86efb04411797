//! Fig. 10 (latency mean/variance sweeps) and Fig. 11 (random and dynamic
//! network latency).

use geotp::Protocol;
use geotp_workloads::{Contention, YcsbConfig};

use crate::report::{tput, Table};
use crate::runner::{run, LatencyConfig, RunSpec, SystemUnderTest, Workload};
use crate::scale::Scale;

/// `protocol` over medium-contention YCSB with distributed ratio `dr`.
fn ycsb_spec(scale: Scale, protocol: Protocol, dr: f64) -> RunSpec {
    let ycsb = YcsbConfig::new(4, scale.records_per_node())
        .with_contention(Contention::Medium)
        .with_distributed_ratio(dr);
    RunSpec::new(
        SystemUnderTest::Middleware(protocol),
        Workload::Ycsb(ycsb),
        scale,
    )
}

/// Fig. 10: (a) fix the latency spread and sweep the mean; (b) fix the mean
/// and sweep the spread. Reports SSP and GeoTP throughput plus the
/// improvement factor.
pub fn fig10_latency_config(scale: Scale) -> Vec<Table> {
    let means: Vec<u64> = match scale {
        Scale::Quick => vec![20, 60],
        Scale::Full => vec![20, 40, 60, 80],
    };
    let mut fixed_std = Table::new(
        "Fig. 10a — fixed spread (±10 ms), sweeping the mean RTT",
        &[
            "mean_rtt_ms",
            "SSP (txn/s)",
            "GeoTP (txn/s)",
            "improvement (x)",
        ],
    );
    for mean in &means {
        let rtts = vec![0, mean.saturating_sub(10), *mean, mean + 10];
        let row = compare_row(scale, LatencyConfig::Static(rtts), &mean.to_string());
        fixed_std.push_row(row);
    }

    let spreads: Vec<u64> = match scale {
        Scale::Quick => vec![0, 40],
        Scale::Full => vec![0, 20, 40, 60],
    };
    let mut fixed_mean = Table::new(
        "Fig. 10b — fixed mean (60 ms), sweeping the spread",
        &[
            "spread_ms",
            "SSP (txn/s)",
            "GeoTP (txn/s)",
            "improvement (x)",
        ],
    );
    for spread in &spreads {
        let rtts = vec![0, 60 - spread.min(&60), 60, 60 + spread];
        let row = compare_row(scale, LatencyConfig::Static(rtts), &spread.to_string());
        fixed_mean.push_row(row);
    }
    vec![fixed_std, fixed_mean]
}

fn compare_row(scale: Scale, latency: LatencyConfig, label: &str) -> Vec<String> {
    let mut throughputs = Vec::new();
    for protocol in [Protocol::SspXa, Protocol::geotp()] {
        let mut spec = ycsb_spec(scale, protocol, 0.2);
        spec.latency = latency.clone();
        throughputs.push(run(&spec).throughput);
    }
    let improvement = if throughputs[0] > 0.0 {
        throughputs[1] / throughputs[0]
    } else {
        f64::INFINITY
    };
    vec![
        label.to_string(),
        tput(throughputs[0]),
        tput(throughputs[1]),
        format!("{improvement:.2}"),
    ]
}

/// Fig. 11: (a) random per-message latency fluctuation (up to 1.5x) across
/// several seeds; (b) a dynamic network whose latencies are re-drawn every
/// window over a long run, reported as a throughput timeline.
pub fn fig11_random_dynamic(scale: Scale) -> Vec<Table> {
    // ---- (a) random latency, several seeds, sweep of distributed ratio ----
    let mut random = Table::new(
        "Fig. 11a — random latency (1.0–1.5x), mean over seeds [min..max]",
        &["dist_ratio", "SSP (txn/s)", "GeoTP (txn/s)"],
    );
    for dr in scale.dist_ratios() {
        let mut cells = vec![format!("{dr:.1}")];
        for protocol in [Protocol::SspXa, Protocol::geotp()] {
            let mut samples = Vec::new();
            for seed in 0..scale.random_latency_seeds() {
                let mut spec = ycsb_spec(scale, protocol, dr);
                spec.seed = 100 + seed;
                spec.latency = LatencyConfig::Random {
                    base_ms: geotp_net::PAPER_DEFAULT_RTTS_MS.to_vec(),
                    max_factor: 1.5,
                };
                samples.push(run(&spec).throughput);
            }
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(0.0f64, f64::max);
            cells.push(format!("{mean:.1} [{min:.1}..{max:.1}]"));
        }
        random.push_row(cells);
    }

    // ---- (b) dynamic latency timeline ----
    let window = scale.dynamic_latency_window();
    let duration = scale.dynamic_latency_duration();
    let windows = (duration.as_secs() / window.as_secs()).max(1) as usize;
    // Deterministic pseudo-random schedule per node, re-drawn every window.
    let schedule_for = |node: usize| -> Vec<u64> {
        let base = geotp_net::PAPER_DEFAULT_RTTS_MS[node];
        (0..windows)
            .map(|w| {
                if base == 0 {
                    0
                } else {
                    // Alternate between shrinking and growing the latency.
                    let factor = [1.0, 1.5, 0.7, 1.2][(w + node) % 4];
                    (base as f64 * factor) as u64
                }
            })
            .collect()
    };
    let mut dynamic = Table::new(
        "Fig. 11b — throughput timeline under a dynamic network (tx/s per second)",
        &["window_start_s", "SSP", "GeoTP"],
    );
    let mut series = Vec::new();
    for protocol in [Protocol::SspXa, Protocol::geotp()] {
        let mut spec = ycsb_spec(scale, protocol, 0.2);
        spec.warmup = std::time::Duration::ZERO;
        spec.measure = duration;
        spec.latency = LatencyConfig::Dynamic {
            window,
            per_node: (0..4).map(schedule_for).collect(),
        };
        series.push(run(&spec).timeline_tps);
    }
    // Aggregate the per-second timeline into the re-draw windows.
    let per_window = window.as_secs() as usize;
    for w in 0..windows {
        let avg = |s: &Vec<f64>| {
            let slice: Vec<f64> = s
                .iter()
                .skip(w * per_window)
                .take(per_window)
                .copied()
                .collect();
            if slice.is_empty() {
                0.0
            } else {
                slice.iter().sum::<f64>() / slice.len() as f64
            }
        };
        dynamic.push_row(vec![
            (w as u64 * window.as_secs()).to_string(),
            tput(avg(&series[0])),
            tput(avg(&series[1])),
        ]);
    }
    vec![random, dynamic]
}
