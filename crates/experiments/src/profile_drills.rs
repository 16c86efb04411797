//! Sweep-wide trace profiler: where does committed-transaction latency go,
//! per chaos preset?
//!
//! Every chaos preset is run traced across the seed sweep (3 seeds at
//! `Quick`, 32 at `Full`); for each committed transaction (a gtrid with a
//! `CommitDispatch` span) the per-txn [`critical_path`] attributes every
//! microsecond of root latency to exactly one [`SpanKind`]. Aggregated over
//! the whole sweep this yields a *phase-dominance* profile per preset: the
//! share of total critical-path time each phase blocks, plus the p50/p99 of
//! per-transaction totals (nearest-rank over the sweep's committed
//! population). A scheduling or protocol regression that shifts time
//! between phases — more `VoteWait`, less `AgentExec` — moves these tables
//! even when throughput stays flat, so they are golden-gated like every
//! other experiment, and exported as a CSV artifact for offline plotting.

use geotp::chaos::{traced, Preset};
use geotp_telemetry::{critical_path, CriticalPath, SpanKind, SPAN_KINDS};

use crate::failure_drills::{generic_drills, seeds};
use crate::report::Table;
use crate::scale::Scale;

/// One preset's aggregated profile across the sweep.
struct PresetProfile {
    name: &'static str,
    /// Critical-path attribution summed over every committed txn of every
    /// seed.
    agg: CriticalPath,
    /// Per-committed-txn total latencies (micros), sweep-wide.
    totals: Vec<u64>,
}

impl PresetProfile {
    /// Nearest-rank percentile over the per-txn totals.
    fn percentile(&self, p: f64) -> u64 {
        let mut sorted = self.totals.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Percentage of aggregate critical-path time attributed to `kind`.
    fn share(&self, kind: SpanKind) -> f64 {
        if self.agg.total_micros == 0 {
            0.0
        } else {
            self.agg.micros(kind) as f64 * 100.0 / self.agg.total_micros as f64
        }
    }

    /// The phase blocking the most aggregate time (ties break on taxonomy
    /// order via [`CriticalPath::rows`]).
    fn dominant(&self) -> Option<(SpanKind, f64)> {
        let (kind, _micros) = *self.agg.rows().first()?;
        Some((kind, self.share(kind)))
    }
}

fn profile(scale: Scale, scenario: &Preset) -> PresetProfile {
    let mut agg = CriticalPath::default();
    let mut totals = Vec::new();
    for seed in 1..=seeds(scale) {
        let (_report, telemetry) = traced(|| scenario.run(seed));
        let spans = telemetry.tracer.spans();
        // Committed = the trace shows a commit dispatch for the gtrid; the
        // span record is the profiler's single source of truth.
        let mut gtrids: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::CommitDispatch)
            .map(|s| s.id.gtrid)
            .collect();
        gtrids.sort_unstable();
        gtrids.dedup();
        for gtrid in gtrids {
            if let Some(path) = critical_path(&spans, gtrid) {
                agg.merge(&path);
                totals.push(path.total_micros);
            }
        }
    }
    PresetProfile {
        name: scenario.name,
        agg,
        totals,
    }
}

fn dominance_table(scale: Scale, profiles: &[PresetProfile]) -> Table {
    let mut table = Table::new(
        format!(
            "Phase dominance — committed-txn critical paths, chaos presets x {} seed(s)",
            seeds(scale)
        ),
        &[
            "scenario",
            "committed txns",
            "p50 us",
            "p99 us",
            "dominant phase",
            "dominant share",
        ],
    );
    for p in profiles {
        let (kind, share) = p
            .dominant()
            .expect("a preset where nothing commits profiles nothing");
        table.push_row(vec![
            p.name.to_string(),
            p.agg.txns.to_string(),
            p.percentile(50.0).to_string(),
            p.percentile(99.0).to_string(),
            kind.label().to_string(),
            format!("{share:.1}%"),
        ]);
    }
    table
}

fn share_table(scale: Scale, profiles: &[PresetProfile]) -> Table {
    let mut columns = vec!["scenario"];
    columns.extend(SPAN_KINDS.iter().map(|k| k.label()));
    let mut table = Table::new(
        format!(
            "Critical-path share per span kind (% of sweep total) — {} seed(s)",
            seeds(scale)
        ),
        &columns,
    );
    for p in profiles {
        let mut row = vec![p.name.to_string()];
        row.extend(SPAN_KINDS.iter().map(|k| format!("{:.1}", p.share(*k))));
        table.push_row(row);
    }
    table
}

fn csv(profiles: &[PresetProfile]) -> String {
    let mut out = String::from("scenario,txns,p50_us,p99_us,kind,micros,share_pct\n");
    for p in profiles {
        let (txns, p50, p99) = (p.agg.txns, p.percentile(50.0), p.percentile(99.0));
        for kind in SPAN_KINDS {
            out.push_str(&format!(
                "{},{txns},{p50},{p99},{},{},{:.3}\n",
                p.name,
                kind.label(),
                p.agg.micros(kind),
                p.share(kind)
            ));
        }
    }
    out
}

/// Run the traced sweep over every preset; returns the two dominance tables
/// plus the per-preset critical-path CSV (one row per preset × span kind).
pub(crate) fn profile_drills_with_csv(scale: Scale) -> (Vec<Table>, String) {
    let profiles: Vec<PresetProfile> = generic_drills()
        .map(|scenario| profile(scale, scenario))
        .collect();
    let tables = vec![
        dominance_table(scale, &profiles),
        share_table(scale, &profiles),
    ];
    let csv = csv(&profiles);
    (tables, csv)
}

/// The dominance and share tables alone.
pub fn profile_drills(scale: Scale) -> Vec<Table> {
    profile_drills_with_csv(scale).0
}

/// Structural gate shared with the golden test: every preset profiled, no
/// degenerate population, and the attribution really is a partition of
/// latency (shares sum to ~100%).
#[cfg(test)]
pub(crate) fn assert_profiles_are_nondegenerate(tables: &[Table]) {
    assert_eq!(tables.len(), 2);
    let dominance = &tables[0];
    assert_eq!(dominance.len(), generic_drills().count());
    for scenario in generic_drills() {
        let txns: u64 = dominance
            .cell(scenario.name, "committed txns")
            .expect("preset row")
            .parse()
            .expect("numeric txn count");
        assert!(
            txns > 0,
            "{}: profiling nothing proves nothing",
            scenario.name
        );
        let p99: u64 = dominance
            .cell(scenario.name, "p99 us")
            .unwrap()
            .parse()
            .unwrap();
        let p50: u64 = dominance
            .cell(scenario.name, "p50 us")
            .unwrap()
            .parse()
            .unwrap();
        assert!(p99 >= p50, "{}: p99 < p50", scenario.name);
        let share_sum: f64 = SPAN_KINDS
            .iter()
            .map(|k| {
                tables[1]
                    .cell(scenario.name, k.label())
                    .unwrap()
                    .parse::<f64>()
                    .unwrap()
            })
            .sum();
        assert!(
            (share_sum - 100.0).abs() < 1.0,
            "{}: shares sum to {share_sum}",
            scenario.name
        );
    }
}
