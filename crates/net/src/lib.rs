//! # geotp-net — simulated wide-area network
//!
//! The paper evaluates GeoTP on a 6-machine cluster whose WAN latencies are
//! emulated with `tc` (0 / 27 / 73 / 251 ms RTT between the middleware and the
//! data nodes in Beijing, Shanghai, Singapore and London). This crate is the
//! equivalent substrate for the simulation: a latency matrix between
//! [`NodeId`]s with pluggable per-link [`LatencyModel`]s (static, jittered,
//! uniformly random, dynamic schedules) plus the `ping`-based RTT monitor the
//! middleware uses for latency-aware scheduling.
//!
//! All delays are virtual-time sleeps on [`geotp_simrt`], so experiments are
//! deterministic for a given seed.

mod fault;
mod latency;
mod monitor;
mod network;
mod node;

pub use fault::FaultInjector;
pub use latency::{DynamicLatency, JitteredLatency, LatencyModel, RandomLatency, StaticLatency};
pub use monitor::LatencyMonitor;
pub use network::{LinkStats, Network, NetworkBuilder};
pub use node::{NodeId, NodeKind};

/// The paper's default geo-distributed deployment (§VII-A3): the client, the
/// middleware and one data node are in Beijing (RTT 0 ms), the other data
/// nodes are in Shanghai (27 ms), Singapore (73 ms) and London (251 ms).
pub const PAPER_DEFAULT_RTTS_MS: [u64; 4] = [0, 27, 73, 251];

/// RTT vector of the second middleware in the multi-region deployment of
/// Fig. 15 (co-located with the London data node).
pub const PAPER_DM2_RTTS_MS: [u64; 4] = [251, 226, 175, 0];
