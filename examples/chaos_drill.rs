//! Run one chaos failure drill and print its replayable trace.
//!
//! The drill crashes the coordinator deterministically right after it
//! flushes a commit decision (paper §V-A), fails over to a successor that
//! replays the shared commit log, and checks atomicity / durability /
//! liveness over the durable state. Pass a seed to see a different — but
//! individually perfectly reproducible — history.
//!
//! ```text
//! cargo run --release --example chaos_drill [seed]
//! ```

use geotp::preset;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    let scenario = preset("coordinator_failover");
    println!("== chaos drill: {} (seed {seed}) ==\n", scenario.name);

    let report = scenario.run(seed);
    for line in &report.trace {
        println!("  {line}");
    }
    println!(
        "\nclient view: {} committed, {} aborted, {} indeterminate (coordinator crash)",
        report.committed, report.aborted, report.indeterminate
    );
    println!(
        "invariants: atomicity={} durability={} liveness={}",
        report.invariants.atomicity_ok,
        report.invariants.durability_ok,
        report.invariants.liveness_ok
    );
    for violation in &report.invariants.violations {
        println!("  VIOLATION: {violation}");
    }
    println!("trace fingerprint: {:016x}", report.fingerprint);

    // Replayability is the whole point: run it again, byte-for-byte equal.
    let replay = scenario.run(seed);
    assert_eq!(report.fingerprint, replay.fingerprint);
    println!("replay fingerprint matches — the run is bit-reproducible.");
    assert!(report.invariants.all_hold());
}
