//! Network latency monitor.
//!
//! The paper's implementation (§VI) runs "a dedicated thread that continuously
//! monitors the network latency between the DM and data sources, utilizing the
//! ping command at 10 ms intervals" and smooths the estimates with an
//! exponential weighted moving average (§VII-D, online adaptivity). This
//! module reproduces that component: a background task per monitored data
//! source that pings over the simulated network and publishes an EWMA RTT
//! estimate the geo-scheduler reads.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use geotp_simrt::{sleep, spawn};

use crate::network::Network;
use crate::node::NodeId;

/// Interval between pings to each target (paper §VI: 10 ms).
const PING_INTERVAL: Duration = Duration::from_millis(10);

/// EWMA smoothing factor applied to the previous estimate
/// (`est = alpha * est + (1 - alpha) * sample`).
const EWMA_ALPHA: f64 = 0.8;

/// Published RTT estimates from a middleware node to each data source.
pub struct LatencyMonitor {
    from: NodeId,
    estimates: RefCell<HashMap<NodeId, Duration>>,
}

impl LatencyMonitor {
    /// Create a monitor without starting any probing tasks; estimates start
    /// from the network's nominal RTT (the middleware knows its deployment).
    pub fn new(net: &Network, from: NodeId, targets: &[NodeId]) -> Rc<Self> {
        let estimates = targets
            .iter()
            .map(|t| (*t, net.nominal_rtt(from, *t)))
            .collect();
        Rc::new(Self {
            from,
            estimates: RefCell::new(estimates),
        })
    }

    /// Create the monitor and spawn one background probing task per target.
    /// The tasks run for the lifetime of the simulation.
    pub fn start(net: Rc<Network>, from: NodeId, targets: &[NodeId]) -> Rc<Self> {
        let monitor = Self::new(&net, from, targets);
        for target in targets {
            let target = *target;
            let net = Rc::clone(&net);
            let monitor_bg = Rc::clone(&monitor);
            spawn(async move {
                loop {
                    sleep(PING_INTERVAL).await;
                    let sample = net.ping(monitor_bg.from, target).await;
                    monitor_bg.observe(target, sample);
                }
            });
        }
        monitor
    }

    /// Fold one RTT sample into the EWMA estimate for `target`.
    pub fn observe(&self, target: NodeId, sample: Duration) {
        let mut estimates = self.estimates.borrow_mut();
        let entry = estimates.entry(target).or_insert(sample);
        let new = EWMA_ALPHA * entry.as_secs_f64() + (1.0 - EWMA_ALPHA) * sample.as_secs_f64();
        *entry = Duration::from_secs_f64(new);
    }

    /// Current RTT estimate from the middleware to `target`. Unknown targets
    /// report zero (treated as local).
    pub fn rtt(&self, target: NodeId) -> Duration {
        self.estimates
            .borrow()
            .get(&target)
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// The node this monitor measures from.
    pub fn origin(&self) -> NodeId {
        self.from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::StaticLatency;
    use crate::network::NetworkBuilder;
    use geotp_simrt::Runtime;

    fn dm() -> NodeId {
        NodeId::middleware(0)
    }
    fn ds(i: u32) -> NodeId {
        NodeId::data_source(i)
    }

    #[test]
    fn initial_estimates_use_nominal_rtt() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(27))
                .static_link(dm(), ds(1), Duration::from_millis(251))
                .build();
            let mon = LatencyMonitor::new(&net, dm(), &[ds(0), ds(1)]);
            assert_eq!(mon.rtt(ds(0)), Duration::from_millis(27));
            assert_eq!(mon.rtt(ds(1)), Duration::from_millis(251));
        });
    }

    #[test]
    fn background_probing_tracks_a_latency_change() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(20))
                .build();
            let mon = LatencyMonitor::start(Rc::clone(&net), dm(), &[ds(0)]);
            sleep(Duration::from_millis(100)).await;
            assert_eq!(mon.rtt(ds(0)), Duration::from_millis(20));

            // The link degrades to 200ms; the EWMA converges towards it
            // (one sample per 210 ms ping cycle, each closing a fifth of the
            // gap).
            net.set_link(dm(), ds(0), StaticLatency::from_millis(200));
            sleep(Duration::from_secs(4)).await;
            let est = mon.rtt(ds(0));
            assert!(
                est > Duration::from_millis(190),
                "estimate {est:?} should have converged near 200ms"
            );
        });
    }

    #[test]
    fn ewma_smooths_single_outlier() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(50))
                .build();
            let mon = LatencyMonitor::new(&net, dm(), &[ds(0)]);
            mon.observe(ds(0), Duration::from_millis(500));
            let est = mon.rtt(ds(0));
            // 0.8*50 + 0.2*500 = 140ms: pulled up, but nowhere near the spike.
            assert_eq!(est, Duration::from_millis(140));
        });
    }

    #[test]
    fn unknown_target_reports_zero() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1).build();
            let mon = LatencyMonitor::new(&net, dm(), &[]);
            assert_eq!(mon.rtt(ds(9)), Duration::ZERO);
            assert_eq!(mon.origin(), dm());
        });
    }
}
