//! The cluster failure-drill table: every multi-coordinator chaos preset,
//! seeded-swept, with the five invariant-checker verdicts (traced runs, so
//! the trace oracle's happens-before rules are checked too).
//!
//! The tier analogue of [`crate::failure_drills`]: a 2-coordinator cluster
//! with lease-based membership, epoch fencing and peer takeover, under the
//! coordinator-crash-with-takeover and coordinator-partition presets. Every
//! cell is deterministic and golden-gated (`tests/golden/cluster_drills_*`).

use geotp::chaos::{Door, Preset, PRESETS};

use crate::failure_drills::{drill_table, seeds};
use crate::report::Table;
use crate::scale::Scale;

/// The tier rows of the preset table.
fn tier_drills() -> impl Iterator<Item = &'static Preset> {
    PRESETS.iter().filter(|p| p.door == Door::Tier)
}

/// Run every cluster preset across the seed sweep.
pub fn cluster_drills(scale: Scale) -> Vec<Table> {
    let title = format!(
        "Cluster failure drills — 2 coordinators, {} seed(s) per preset, transfer workload, GeoTP (O1-O3)",
        seeds(scale)
    );
    vec![drill_table(title, scale, tier_drills(), None)]
}

#[cfg(test)]
pub(crate) fn assert_tables_cover_every_preset_and_stay_green(tables: &[Table]) {
    assert_eq!(tables.len(), 1);
    crate::failure_drills::assert_all_green(&tables[0], tier_drills(), "transfer");
}
