//! Trace one chaos drill end to end and explain where the latency went.
//!
//! Runs the transfer workload through the coordinator-failover preset (the
//! coordinator crashes mid-drill and a successor takes over from the shared
//! commit log) with the telemetry collector installed, then:
//!
//! 1. prints the metrics-registry counters the run produced,
//! 2. finds the *slowest committed* transaction and prints its critical-path
//!    breakdown — which span kinds its end-to-end latency is attributed to,
//! 3. writes the whole run as a Chrome-trace file you can open at
//!    `ui.perfetto.dev` or `chrome://tracing`:
//!    `target/chaos/trace_explorer.trace.json`.
//!
//! Tracing never perturbs the schedule (same fingerprint with or without a
//! collector), so what you explore is exactly what an untraced run does.
//!
//! ```text
//! cargo run --release --example trace_explorer [seed]
//! ```

use geotp::chaos::{preset, traced};
use geotp::telemetry::{critical_path, write_chrome_trace, SpanKind};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    let scenario = preset("coordinator_failover");
    println!("== trace explorer: {} (seed {seed}) ==\n", scenario.name);

    let (report, telemetry) = traced(|| scenario.run(seed));
    assert!(report.invariants.all_hold());
    println!(
        "client view: {} committed, {} aborted, {} indeterminate (coordinator crash)",
        report.committed, report.aborted, report.indeterminate
    );

    println!("\n-- metrics registry --");
    print!("{}", telemetry.metrics.snapshot().render());

    // A transaction committed iff its trace reached commit dispatch; rank the
    // committed ones by their root Txn span's duration.
    let spans = telemetry.tracer.spans();
    let slowest = spans
        .iter()
        .filter(|s| {
            s.kind == SpanKind::Txn
                && spans
                    .iter()
                    .any(|c| c.id.gtrid == s.id.gtrid && c.kind == SpanKind::CommitDispatch)
        })
        .max_by_key(|s| (s.duration_micros(), s.id.gtrid))
        .expect("the drill commits transactions");
    let gtrid = slowest.id.gtrid;
    println!(
        "\n-- critical path of the slowest committed transaction (gtrid {gtrid}, {} us) --",
        slowest.duration_micros()
    );
    let path = critical_path(&spans, gtrid).expect("a committed txn has a root span");
    print!("{}", path.render());

    drop(spans);
    let out = std::path::Path::new("target/chaos/trace_explorer.trace.json");
    std::fs::create_dir_all(out.parent().unwrap()).expect("create target/chaos");
    write_chrome_trace(out, &telemetry.tracer.spans()).expect("write chrome trace");
    println!(
        "\nwrote {} ({} spans) — open it at ui.perfetto.dev",
        out.display(),
        telemetry.tracer.len()
    );
}
