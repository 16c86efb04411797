//! geotp-benchmark: five end-to-end workloads on two clocks and a per-layer
//! ledger, measured from outside the system. See `benchmark/README.md`.
//!
//! ```text
//! geotp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! geotp-benchmark compare <a.json> <b.json>
//! ```
//!
//! A run prints every metric by name with its unit, checks the outputs, and
//! ends with one JSON line: `--trace 0` gives the end-to-end metrics from
//! untraced passes, `--trace 1` the per-layer metrics from a traced pass and
//! the probes. Any failed check exits non-zero and prints no metrics.

mod alloc;
mod compare;
mod driver;
mod json;
mod metrics;
mod pass;
mod probes;
mod stats;
mod suite;
mod sut;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use suite::{EndToEndReport, PerLayerReport};
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

fn usage() -> String {
    format!(
        "usage:\n  geotp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--out <dir>]\n  geotp-benchmark compare <a.json> <b.json>\nworkloads: {}",
        workloads::NAMES.join(" ")
    )
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 15;
    let mut trace = false;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn contract_line(attempted: u64, metrics: Vec<(&str, f64, &str)>) -> String {
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(attempted as f64)),
        // A refusal, an indeterminate outcome or any failed check ends the
        // run without a result, so a result always has none.
        ("failed", Json::Num(0.0)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
    .render()
}

fn report_end_to_end(args: &RunArgs, report: &EndToEndReport) -> Result<(), String> {
    let w = &args.workload;
    println!(
        "{}  seed {}  {} passes over {} generator streams  sim_fingerprint {:016x}",
        w.name, args.seed, report.passes, w.instances, report.fingerprint
    );
    println!(
        "  attempted {}  committed {}  aborted or shed {}  latency samples per stream >= {}  gen_lag_ms {}",
        report.attempted, report.committed, report.aborted, report.latency_samples, report.gen_lag_ms
    );
    println!(
        "  {:<18} {:>16} {:<10} {:<7} quartiles over passes",
        "metric", "value", "unit", "better"
    );
    let spec = |name: &str| {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("reported metrics come from the table")
    };
    let unit = |name: &str| spec(name).unit;
    for (name, m) in &report.metrics {
        let spread = if m.q1 == m.q3 {
            String::new()
        } else {
            format!("{:.4} .. {:.4}", m.q1, m.q3)
        };
        println!(
            "  {:<18} {:>16.4} {:<10} {:<7} {}",
            name,
            m.value,
            unit(name),
            spec(name).better.label(),
            spread
        );
    }
    for row in &report.ladder {
        println!(
            "  rate {:>4} arrivals/s: sim_txn_per_s {:.2}  sim_p99_ms {:.3}  sim_fail_ratio {:.5}  \
             in flight at window end {}  {}",
            row.rate,
            row.sim_txn_per_s,
            row.sim_p99_ms,
            row.sim_fail_ratio,
            row.inflight_at_end,
            if row.ok { "ok" } else { "over the limits" }
        );
    }
    let file = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("passes", Json::Num(report.passes as f64)),
        (
            "sim_fingerprint",
            Json::str(format!("{:016x}", report.fingerprint)),
        ),
        ("attempted", Json::Num(report.attempted as f64)),
        ("committed", Json::Num(report.committed as f64)),
        ("aborted", Json::Num(report.aborted as f64)),
        (
            "pass_host_txn_per_s",
            Json::Arr(
                report
                    .pass_host_txn_per_s
                    .iter()
                    .map(|v| Json::Num(*v))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|(name, m)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(unit(name))),
                        ("q1", Json::Num(m.q1)),
                        ("q3", Json::Num(m.q3)),
                    ]),
                )
            })),
        ),
    ]);
    write_file(
        &args.out.join(format!("{}.e2e.json", w.name)),
        &file.pretty(),
    )?;
    let line = contract_line(
        report.attempted,
        END_TO_END
            .iter()
            .filter(|spec| spec.in_contract)
            .map(|spec| {
                let value = report
                    .metrics
                    .iter()
                    .find(|(name, _)| *name == spec.name)
                    .map_or(0.0, |(_, m)| m.value);
                (spec.name, value, spec.unit)
            })
            .collect(),
    );
    println!("{line}");
    Ok(())
}

fn report_per_layer(args: &RunArgs, report: &PerLayerReport) -> Result<(), String> {
    let w = &args.workload;
    println!(
        "{}  seed {}  traced pass  sim_fingerprint {:016x}  committed {}",
        w.name, args.seed, report.fingerprint, report.committed
    );
    println!(
        "  {:<44} {:>16} {:<6} better",
        "layer metric", "value", "unit"
    );
    for ((name, value), spec) in report.metrics.iter().zip(PER_LAYER) {
        println!(
            "  {:<44} {:>16.4} {:<6} {}",
            name,
            value,
            spec.unit,
            spec.better.label()
        );
    }
    let peel: f64 = report
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("ledger."))
        .map(|(_, v)| v)
        .sum();
    println!(
        "  residual: the untraced pass spent {:.0} host ns per committed txn; the layer peel of one \
         uncontended txn sums to {:.0} ns",
        report.pass_ns_per_txn, peel
    );
    let file = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        (
            "sim_fingerprint",
            Json::str(format!("{:016x}", report.fingerprint)),
        ),
        (
            "metrics",
            Json::obj(
                report
                    .metrics
                    .iter()
                    .zip(PER_LAYER)
                    .map(|((name, value), spec)| {
                        (
                            *name,
                            Json::obj([
                                ("value", Json::Num(*value)),
                                ("unit", Json::str(spec.unit)),
                            ]),
                        )
                    }),
            ),
        ),
        (
            "counters",
            Json::obj(
                report
                    .counters
                    .fields()
                    .into_iter()
                    .map(|(name, v)| (name, Json::Num(v as f64))),
            ),
        ),
        ("pass_host_ns_per_txn", Json::Num(report.pass_ns_per_txn)),
        ("probe_spans", report.probe_spans.clone()),
    ]);
    write_file(
        &args.out.join(format!("{}.layers.json", w.name)),
        &file.pretty(),
    )?;
    let line = contract_line(
        report.attempted,
        report
            .metrics
            .iter()
            .zip(PER_LAYER)
            .map(|((name, value), spec)| (*name, *value, spec.unit))
            .collect(),
    );
    println!("{line}");
    Ok(())
}

fn run(args: &[String]) -> Result<(), Vec<String>> {
    let args = parse_run_args(args).map_err(|e| vec![e, usage()])?;
    if args.trace {
        let trace_path = args.out.join(format!("{}.trace.json", args.workload.name));
        let report = suite::run_per_layer(&args.workload, args.seed, &trace_path)?;
        report_per_layer(&args, &report).map_err(|e| vec![e])
    } else {
        let report = suite::run_end_to_end(&args.workload, args.seed, args.seconds)?;
        report_end_to_end(&args, &report).map_err(|e| vec![e])
    }
}

fn compare_files(a: &str, b: &str) -> Result<usize, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    compare::compare(&load(a)?, &load(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => match compare_files(&args[1], &args[2]) {
            Ok(0) => Ok(()),
            Ok(flagged) => Err(vec![format!("{flagged} rows read worse or unresolved")]),
            Err(e) => Err(vec![e]),
        },
        Some(flag) if flag.starts_with("--") => run(&args),
        _ => Err(vec![usage()]),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(lines) => {
            for line in lines {
                eprintln!("geotp-benchmark: {line}");
            }
            ExitCode::FAILURE
        }
    }
}
