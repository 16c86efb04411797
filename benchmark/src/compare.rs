//! `compare <a.json> <b.json>`: apply the bounds of `metrics::END_TO_END` to
//! two result sets written by `run.sh`, one row per workload and metric.
//!
//! A row reads *unresolved* when either side's inter-quartile range is wider
//! than the bound (the spread hides whatever happened), otherwise *worse* or
//! *better* when the value moved by more than the bound, else *within bound*.
//! Virtual-time numbers repeat exactly for a seed, so the fingerprint and the
//! exact per-layer counts are compared for equality as well.

use crate::json::Json;
use crate::metrics::{Better, Bound, END_TO_END, PER_LAYER};
use crate::workloads::{self, Load};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

struct Side {
    value: f64,
    iqr: f64,
}

fn side(metrics: &Json, name: &str) -> Option<Side> {
    let m = metrics.get(name)?;
    let value = m.get("value")?.as_f64()?;
    let q1 = m.get("q1").and_then(Json::as_f64).unwrap_or(value);
    let q3 = m.get("q3").and_then(Json::as_f64).unwrap_or(value);
    Some(Side {
        value,
        iqr: q3 - q1,
    })
}

/// How far `b` may be worse than `a` in the metric's own units.
fn allowed(bound: Bound, a: f64, workload: &str) -> f64 {
    match bound {
        Bound::Relative(share) => share * a.abs(),
        Bound::RelativeOrAbsolute(share, floor) => (share * a.abs()).max(floor),
        Bound::Absolute(units) => units,
        Bound::LadderStep => {
            let ladder = match workloads::by_name(workload).map(|w| w.load) {
                Some(Load::Open { ladder, .. }) => ladder,
                _ => return 0.0,
            };
            let below = ladder.iter().rev().find(|r| (**r as f64) < a);
            a - below.map_or(0.0, |r| *r as f64)
        }
    }
}

pub fn verdict(
    better: Better,
    bound: Bound,
    workload: &str,
    a: (f64, f64),
    b: (f64, f64),
) -> Verdict {
    let allowed = allowed(bound, a.0, workload);
    let worse_by = match better {
        Better::Higher => a.0 - b.0,
        Better::Lower => b.0 - a.0,
    };
    if a.1.max(b.1) > allowed {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Worse
    } else if worse_by < -allowed {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Layer metrics that are exact counts of the simulated system: everything
/// but host time, probes, allocations and the ledger derived from probes.
fn is_exact(layer_metric: &str) -> bool {
    !["probe_", "host_", "alloc.", "ledger.", "overhead_ratio"]
        .iter()
        .any(|noisy| layer_metric.contains(noisy))
}

/// Print the comparison; returns how many rows read worse or unresolved.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let mut flagged = 0;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "a", "b", "change"
    );
    for (workload, a_entry) in a.entries() {
        let Some(b_entry) = b.get(workload) else {
            println!("{workload:<20} missing from the second result set");
            flagged += 1;
            continue;
        };
        let (Some(a_e2e), Some(b_e2e)) = (a_entry.get("end_to_end"), b_entry.get("end_to_end"))
        else {
            return Err(format!("{workload}: no end_to_end block"));
        };
        let (a_metrics, b_metrics) = (
            a_e2e.get("metrics").unwrap_or(&Json::Null),
            b_e2e.get("metrics").unwrap_or(&Json::Null),
        );
        for spec in END_TO_END {
            let (Some(sa), Some(sb)) = (side(a_metrics, spec.name), side(b_metrics, spec.name))
            else {
                continue;
            };
            let v = verdict(
                spec.better,
                spec.bound,
                workload,
                (sa.value, sa.iqr),
                (sb.value, sb.iqr),
            );
            if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                flagged += 1;
            }
            let change = if sa.value == 0.0 {
                sb.value - sa.value
            } else {
                (sb.value - sa.value) / sa.value * 100.0
            };
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>8.2}%  {}",
                workload,
                spec.name,
                sa.value,
                sb.value,
                change,
                v.label()
            );
        }
        let fingerprint = |e: &Json| {
            e.get("sim_fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let same = fingerprint(a_e2e) == fingerprint(b_e2e);
        println!(
            "{workload:<20} sim_fingerprint {}",
            if same { "identical" } else { "DIFFERS" }
        );
        if let (Some(a_layers), Some(b_layers)) = (
            a_entry.get("per_layer").and_then(|l| l.get("metrics")),
            b_entry.get("per_layer").and_then(|l| l.get("metrics")),
        ) {
            let moved: Vec<&str> = PER_LAYER
                .iter()
                .map(|m| m.name)
                .filter(|name| is_exact(name))
                .filter(|name| {
                    side(a_layers, name).map(|s| s.value) != side(b_layers, name).map(|s| s.value)
                })
                .collect();
            if moved.is_empty() {
                println!("{workload:<20} exact layer counts identical");
            } else {
                println!(
                    "{workload:<20} exact layer counts moved: {}",
                    moved.join(", ")
                );
            }
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bounds_table() {
        let rel = Bound::Relative(0.10);
        let w = "ycsb_paper";
        // Higher is better: -5 % is inside a 10 % bound, -15 % is worse.
        assert_eq!(
            verdict(Better::Higher, rel, w, (100.0, 1.0), (95.0, 1.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(Better::Higher, rel, w, (100.0, 1.0), (85.0, 1.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, rel, w, (100.0, 1.0), (115.0, 1.0)),
            Verdict::Better
        );
        // Either side's spread above the bound hides the change.
        assert_eq!(
            verdict(Better::Higher, rel, w, (100.0, 12.0), (85.0, 1.0)),
            Verdict::Unresolved
        );
        // Lower is better, absolute bound.
        let abs = Bound::Absolute(0.01);
        assert_eq!(
            verdict(Better::Lower, abs, w, (0.10, 0.0), (0.105, 0.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(Better::Lower, abs, w, (0.10, 0.0), (0.12, 0.0)),
            Verdict::Worse
        );
        // setup_s: 25 % or 0.05 s, whichever is larger.
        let setup = Bound::RelativeOrAbsolute(0.25, 0.05);
        assert_eq!(
            verdict(Better::Lower, setup, w, (0.04, 0.0), (0.08, 0.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(Better::Lower, setup, w, (1.0, 0.0), (1.3, 0.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn ladder_step_allows_one_rung() {
        let w = "tier_openloop";
        let step = Bound::LadderStep;
        assert_eq!(
            verdict(Better::Higher, step, w, (350.0, 0.0), (250.0, 0.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(Better::Higher, step, w, (350.0, 0.0), (150.0, 0.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, step, w, (350.0, 0.0), (600.0, 0.0)),
            Verdict::Better
        );
    }
}
