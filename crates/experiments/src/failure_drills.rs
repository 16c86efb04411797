//! The failure-drill tables: every chaos scenario preset, seeded-swept under
//! both drill workloads, with the five invariant-checker verdicts (the runs
//! are traced, so the trace oracle's happens-before rules are checked too).
//!
//! This is the evaluation-side face of `geotp-chaos` (paper §V: correct
//! behaviour under middleware setting ❶ and data-source setting ❷ failures,
//! generalized to partitions, brownouts, message loss and clock skew). Each
//! preset runs across a seed sweep — 3 seeds at `Quick` scale, 32 at `Full`
//! — once driving balance transfers and once driving the TPC-C five-profile
//! mix, and the tables report client-visible outcomes plus the atomicity /
//! durability / liveness / serializability / trace verdicts. Any `VIOLATED`
//! cell is a protocol regression.
//!
//! Every cell is deterministic (bit-reproducible runs), so the rendered
//! tables are committed as golden references under `tests/golden/` and
//! diffed in CI (the `golden` test module): silent result drift fails the job.

use geotp::chaos::{traced, Door, DrillWorkload, Preset, PRESETS};

use crate::report::Table;
use crate::scale::Scale;

/// Seeds per preset at each scale.
pub(crate) fn seeds(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 3,
        Scale::Full => 32,
    }
}

/// The workload-generic single-middleware drills — the rows of these tables
/// (and of the profile tables): the presets whose faults are about the
/// deployment, swept under their own transfer workload *and* the TPC-C mix.
pub(crate) fn generic_drills() -> impl Iterator<Item = &'static Preset> {
    PRESETS
        .iter()
        .filter(|p| p.door == Door::Single && p.workloads.contains(&DrillWorkload::Tpcc))
}

/// The two legs of the failure-drill sweep: each preset's own (transfer)
/// workload, then the TPC-C mix.
const LEGS: [(&str, Option<DrillWorkload>); 2] =
    [("transfer", None), ("tpcc", Some(DrillWorkload::Tpcc))];

/// One drill table: every preset in `presets` across the seed sweep, driving
/// `workload` (`None`: each preset's own), with the five checker verdicts.
pub(crate) fn drill_table(
    title: String,
    scale: Scale,
    presets: impl Iterator<Item = &'static Preset>,
    workload: Option<DrillWorkload>,
) -> Table {
    let mut table = Table::new(
        title,
        &[
            "scenario",
            "committed",
            "aborted",
            "indeterminate",
            "atomicity",
            "durability",
            "liveness",
            "serializability",
            "trace",
            "trace fingerprint (seed 1)",
        ],
    );
    for scenario in presets {
        let mut committed = 0u64;
        let mut aborted = 0u64;
        let mut indeterminate = 0u64;
        let mut atomicity = true;
        let mut durability = true;
        let mut liveness = true;
        let mut serializability = true;
        let mut trace_ok = true;
        let mut fingerprint = String::new();
        for seed in 1..=seeds(scale) {
            // Traced, so the trace oracle (fifth checker) runs too; tracing
            // never perturbs the schedule, so the fingerprint column is the
            // same one an untraced run would report.
            let workload = workload.unwrap_or(scenario.workloads[0]);
            let (report, _telemetry) = traced(|| scenario.run_with(seed, workload));
            committed += report.committed;
            aborted += report.aborted;
            indeterminate += report.indeterminate;
            atomicity &= report.invariants.atomicity_ok;
            durability &= report.invariants.durability_ok;
            liveness &= report.invariants.liveness_ok;
            serializability &= report.invariants.serializability_ok;
            trace_ok &= report.invariants.trace_ok;
            if seed == 1 {
                fingerprint = format!("{:016x}", report.fingerprint);
            }
        }
        let verdict = |ok: bool| if ok { "ok" } else { "VIOLATED" };
        table.push_row(vec![
            scenario.name.to_string(),
            committed.to_string(),
            aborted.to_string(),
            indeterminate.to_string(),
            verdict(atomicity).to_string(),
            verdict(durability).to_string(),
            verdict(liveness).to_string(),
            verdict(serializability).to_string(),
            verdict(trace_ok).to_string(),
            fingerprint,
        ]);
    }
    table
}

/// Run every chaos preset across the seed sweep, once per drill workload.
pub fn failure_drills(scale: Scale) -> Vec<Table> {
    LEGS.into_iter()
        .map(|(name, workload)| {
            let title = format!(
                "Failure drills — chaos presets x {} seed(s), {name} workload, GeoTP (O1-O3)",
                seeds(scale)
            );
            drill_table(title, scale, generic_drills(), workload)
        })
        .collect()
}

/// Coverage + green assertions shared with the golden gate (the quick-scale
/// sweep is expensive, so `crate::golden`'s test runs it once and applies
/// both this structural check and the golden diff to the same tables).
#[cfg(test)]
pub(crate) fn assert_tables_cover_every_preset_and_stay_green(tables: &[Table]) {
    assert_eq!(tables.len(), LEGS.len());
    for (table, (workload, _)) in tables.iter().zip(LEGS) {
        assert!(table.title.contains(workload));
        assert_all_green(table, generic_drills(), workload);
    }
}

/// `table` has exactly one row per preset in `presets`, every checker `ok`.
#[cfg(test)]
pub(crate) fn assert_all_green(
    table: &Table,
    presets: impl Iterator<Item = &'static Preset>,
    workload: &str,
) {
    let mut rows = 0;
    for scenario in presets {
        rows += 1;
        for column in [
            "atomicity",
            "durability",
            "liveness",
            "serializability",
            "trace",
        ] {
            assert_eq!(
                table.cell(scenario.name, column),
                Some("ok"),
                "{} {workload} {column}",
                scenario.name
            );
        }
    }
    assert_eq!(table.len(), rows);
}
