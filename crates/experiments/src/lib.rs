//! # geotp-experiments — per-figure experiment harness
//!
//! One function per table/figure of the paper's evaluation (§VII). Every
//! experiment builds a fresh simulated cluster, drives it with the workload
//! and parameters the paper describes, and returns a [`report::Table`] whose
//! rows mirror the series the paper plots. The bench targets in
//! `crates/bench/benches/` simply call these functions and print the tables,
//! so `cargo bench` regenerates the whole evaluation.
//!
//! Scale is controlled by [`scale::Scale`]: the default `Quick` preset keeps
//! every experiment in the seconds range; set `GEOTP_FULL=1` to run the
//! paper-scale sweeps.

pub mod cluster_drills;
pub mod failure_drills;
pub mod figs_ablation;
pub mod figs_distributed;
pub mod figs_motivation;
pub mod figs_network;
pub mod figs_overall;
pub mod overload;
pub mod profile_drills;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scaleout;

pub use report::Table;
pub use runner::{RunResult, RunSpec, SystemUnderTest, Workload};
pub use scale::Scale;

#[cfg(test)]
mod golden;
