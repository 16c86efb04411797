//! Traced chaos runs: run any scenario (`traced(|| run(..))`) with a
//! `geotp-telemetry` collector installed, and turn a failing drill into an on-disk trace artifact.
//!
//! Tracing is guaranteed not to perturb the schedule — the collector only
//! reads the virtual clock and appends to in-memory structures — so a traced
//! run's [`ChaosReport::fingerprint`] is byte-identical to the untraced
//! run's (the golden test in `tests/telemetry_golden.rs` sweeps presets and
//! seeds to prove it). That makes the trace a *free* diagnostic: when a
//! drill fails, re-running it traced reproduces the exact same failure with
//! a full span tree attached.

use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use geotp_telemetry::Telemetry;

use crate::harness::ChaosReport;

/// Run `f` with a fresh telemetry collector installed, returning both its
/// report and the collector. Restores the previous install state afterwards,
/// so nesting a traced run inside another instrumented context is safe.
pub fn traced<F: FnOnce() -> ChaosReport>(f: F) -> (ChaosReport, Rc<Telemetry>) {
    traced_into(Telemetry::new(), f)
}

/// [`traced`] with a bounded tracer: the collector retains at most `cap`
/// spans, evicting whole closed transactions oldest-first (see
/// [`geotp_telemetry::Tracer::set_span_cap`]). Use for long drills — a
/// flash crowd, an overnight soak — whose full span set would dominate
/// memory. Eviction is pure bookkeeping on the in-memory span store, so the
/// fingerprint guarantee above holds for capped runs too.
pub fn traced_capped<F: FnOnce() -> ChaosReport>(cap: usize, f: F) -> (ChaosReport, Rc<Telemetry>) {
    traced_into(Telemetry::with_span_cap(cap), f)
}

fn traced_into<F: FnOnce() -> ChaosReport>(
    telemetry: Rc<Telemetry>,
    f: F,
) -> (ChaosReport, Rc<Telemetry>) {
    let previous = geotp_telemetry::uninstall();
    geotp_telemetry::install_collector(telemetry.clone());
    let report = f();
    geotp_telemetry::uninstall();
    if let Some(previous) = previous {
        geotp_telemetry::install_collector(previous);
    }
    (report, telemetry)
}

/// Write the failure artifact for a (typically minimized) failing run:
/// `<name>.trace.json` — the Chrome-trace/Perfetto export of every span —
/// `<name>.events.txt` — the replayable event trace with the metrics
/// snapshot appended — and `<name>.metrics.txt` — the metrics snapshot
/// alone, for tooling that wants counters/histograms without parsing the
/// event log. Returns the trace-file path.
pub fn write_failure_artifact(
    dir: &Path,
    name: &str,
    report: &ChaosReport,
    telemetry: &Telemetry,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let trace_path = dir.join(format!("{name}.trace.json"));
    geotp_telemetry::write_chrome_trace(&trace_path, &telemetry.tracer.spans())?;
    let metrics = telemetry.metrics.snapshot().render();
    let mut text = String::new();
    for line in &report.trace {
        text.push_str(line);
        text.push('\n');
    }
    text.push('\n');
    text.push_str(&metrics);
    std::fs::write(dir.join(format!("{name}.events.txt")), text)?;
    std::fs::write(dir.join(format!("{name}.metrics.txt")), metrics)?;
    Ok(trace_path)
}

/// If `report` violated an invariant, write the failure artifact and return
/// its path; a green run writes nothing.
pub fn attach_trace_on_failure(
    dir: &Path,
    name: &str,
    report: &ChaosReport,
    telemetry: &Telemetry,
) -> io::Result<Option<PathBuf>> {
    if report.invariants.all_hold() {
        return Ok(None);
    }
    write_failure_artifact(dir, name, report, telemetry).map(Some)
}
