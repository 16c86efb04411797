//! The latency matrix connecting simulated nodes.

use geotp_simrt::hash::FxHashMap;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use geotp_simrt::{now, sleep, sleep_until};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::FaultInjector;
use crate::latency::{LatencyModel, StaticLatency};
use crate::node::NodeId;

/// Per-link traffic counters, useful for the resource-utilisation experiment
/// (Fig. 6) and for debugging protocol message counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Number of one-way message transfers performed on this link.
    pub messages: u64,
    /// Sum of the sampled one-way latencies, in microseconds.
    pub total_latency_micros: u64,
}

/// Estimated wire size charged per simulated message (the simulation carries
/// no real payloads; this keeps the `net.bytes` metric proportional to
/// message counts at a realistic RPC-frame scale).
const ESTIMATED_FRAME_BYTES: u64 = 64;

struct Link {
    model: Box<dyn LatencyModel>,
    stats: LinkStats,
}

/// Builder for a [`Network`].
#[derive(Default)]
pub struct NetworkBuilder {
    seed: u64,
    lan_rtt: Option<Duration>,
    links: Vec<(NodeId, NodeId, Box<dyn LatencyModel>)>,
}

impl NetworkBuilder {
    /// Start building a network; `seed` drives all latency sampling noise.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            lan_rtt: None,
            links: Vec::new(),
        }
    }

    /// Round-trip time used for node pairs without an explicit link
    /// (e.g. a geo-agent talking to its co-located data source).
    /// Defaults to 0.5 ms.
    pub fn default_lan_rtt(mut self, rtt: Duration) -> Self {
        self.lan_rtt = Some(rtt);
        self
    }

    /// Declare a (symmetric) link between `a` and `b` with the given model.
    pub fn link(mut self, a: NodeId, b: NodeId, model: impl LatencyModel + 'static) -> Self {
        self.links.push((a, b, Box::new(model)));
        self
    }

    /// Declare a static-latency link, the common case.
    pub fn static_link(self, a: NodeId, b: NodeId, rtt: Duration) -> Self {
        self.link(a, b, StaticLatency::new(rtt))
    }

    /// Finish building.
    pub fn build(self) -> Rc<Network> {
        let net = Network {
            lan_rtt: self.lan_rtt.unwrap_or(Duration::from_micros(500)),
            links: RefCell::new(FxHashMap::default()),
            rng: RefCell::new(StdRng::seed_from_u64(self.seed)),
            fault: RefCell::new(None),
        };
        for (a, b, model) in self.links {
            net.links.borrow_mut().insert(
                Network::key(a, b),
                Link {
                    model,
                    stats: LinkStats::default(),
                },
            );
        }
        Rc::new(net)
    }
}

/// The simulated network: a symmetric latency matrix between [`NodeId`]s.
///
/// All transfer operations sleep the sampled one-way latency in virtual time
/// and record traffic statistics. Links can be reconfigured at runtime, which
/// the dynamic-latency experiments use.
pub struct Network {
    lan_rtt: Duration,
    links: RefCell<FxHashMap<(NodeId, NodeId), Link>>,
    rng: RefCell<StdRng>,
    /// Optional fault-injection plane (chaos runs). `None` in normal runs —
    /// the hot path pays one borrow + `is_none` check per message.
    fault: RefCell<Option<Rc<dyn FaultInjector>>>,
}

impl Network {
    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Replace (or insert) the latency model of the link between `a` and `b`.
    pub fn set_link(&self, a: NodeId, b: NodeId, model: impl LatencyModel + 'static) {
        let mut links = self.links.borrow_mut();
        let entry = links.entry(Self::key(a, b)).or_insert_with(|| Link {
            model: Box::new(StaticLatency::new(self.lan_rtt)),
            stats: LinkStats::default(),
        });
        entry.model = Box::new(model);
    }

    /// Current nominal RTT between two nodes (no sampling noise). Pairs with
    /// no declared link report the default LAN RTT.
    pub fn nominal_rtt(&self, a: NodeId, b: NodeId) -> Duration {
        if a == b {
            return Duration::ZERO;
        }
        let links = self.links.borrow();
        links
            .get(&Self::key(a, b))
            .map(|l| l.model.nominal_rtt(now()))
            .unwrap_or(self.lan_rtt)
    }

    /// Sample a one-way latency for a message sent right now from `a` to `b`.
    fn sample_one_way(&self, a: NodeId, b: NodeId) -> Duration {
        if a == b {
            return Duration::ZERO;
        }
        // Simulated messages carry no real payloads, so bytes are an
        // estimated wire size: one fixed-size frame per message. Both
        // counters bump inside one collector access — this is the hottest
        // instrumentation point in the tier.
        geotp_telemetry::with(|t| {
            t.metrics
                .counter_add("net.messages", a.kind_label(), a.index(), 1);
            t.metrics.counter_add(
                "net.bytes",
                a.kind_label(),
                a.index(),
                ESTIMATED_FRAME_BYTES,
            );
        });
        let mut links = self.links.borrow_mut();
        let mut rng = self.rng.borrow_mut();
        match links.get_mut(&Self::key(a, b)) {
            Some(link) => {
                let one_way = link.model.sample_rtt(now(), &mut rng) / 2;
                link.stats.messages += 1;
                link.stats.total_latency_micros += one_way.as_micros() as u64;
                one_way
            }
            None => self.lan_rtt / 2,
        }
    }

    /// Attach a fault-injection plane. Every subsequent message consults it
    /// for partitions, latency storms and (unreliable-path) drop/duplicate
    /// fates. Used by the chaos subsystem; pass-through when never set.
    pub fn set_fault_injector(&self, injector: Rc<dyn FaultInjector>) {
        *self.fault.borrow_mut() = Some(injector);
    }

    /// Detach the fault-injection plane.
    pub fn clear_fault_injector(&self) {
        *self.fault.borrow_mut() = None;
    }

    /// Park until the directional link `from → to` is open. A blocked link
    /// models a partition under TCP: the transfer stalls (retransmits) and
    /// proceeds when the partition heals.
    async fn wait_link_open(&self, from: NodeId, to: NodeId) {
        loop {
            let reopen = {
                let fault = self.fault.borrow();
                fault
                    .as_ref()
                    .and_then(|f| f.blocked_until(from, to, now()))
            };
            match reopen {
                // Guard against a buggy injector reporting "reopens now":
                // always move time forward so this loop cannot spin.
                Some(t) => sleep_until(t.max(now() + Duration::from_micros(1))).await,
                None => return,
            }
        }
    }

    /// Extra one-way delay the fault plane charges right now (zero without an
    /// injector).
    fn fault_extra_delay(&self, from: NodeId, to: NodeId) -> Duration {
        let fault = self.fault.borrow();
        fault
            .as_ref()
            .map(|f| f.extra_delay(from, to, now()))
            .unwrap_or(Duration::ZERO)
    }

    /// Simulate the transfer of one message from `from` to `to`: sleeps the
    /// sampled one-way latency (plus any fault-plane stall and extra delay).
    pub async fn transfer(&self, from: NodeId, to: NodeId) {
        self.wait_link_open(from, to).await;
        let one_way = self.sample_one_way(from, to) + self.fault_extra_delay(from, to);
        if !one_way.is_zero() {
            sleep(one_way).await;
        }
    }

    /// Transfer a *fire-and-forget* message, which — unlike the RPC-style
    /// [`Network::transfer`] — can be silently lost or duplicated by the
    /// fault plane. Returns the number of copies the receiver gets: `0`
    /// (dropped; returns immediately, the sender never learns), `1`, or more.
    /// Callers deliver the payload once per copy.
    pub async fn transfer_unreliable(&self, from: NodeId, to: NodeId) -> u32 {
        let copies = {
            let fault = self.fault.borrow();
            fault
                .as_ref()
                .map(|f| f.unreliable_copies(from, to, now()))
                .unwrap_or(1)
        };
        if copies == 0 {
            geotp_telemetry::counter_add("net.drops", from.kind_label(), from.index(), 1);
            return 0;
        }
        self.transfer(from, to).await;
        copies
    }

    /// Simulate a full round trip (request + response) between two nodes and
    /// return the measured RTT. This is what the latency monitor's `ping`
    /// uses.
    pub async fn ping(&self, from: NodeId, to: NodeId) -> Duration {
        let start = now();
        self.transfer(from, to).await;
        self.transfer(to, from).await;
        now().duration_since(start)
    }

    /// Traffic counters for the link between `a` and `b`.
    pub fn link_stats(&self, a: NodeId, b: NodeId) -> LinkStats {
        self.links
            .borrow()
            .get(&Self::key(a, b))
            .map(|l| l.stats)
            .unwrap_or_default()
    }

    /// Total number of one-way messages sent over declared links.
    pub fn total_messages(&self) -> u64 {
        self.links.borrow().values().map(|l| l.stats.messages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::DynamicLatency;
    use geotp_simrt::Runtime;

    fn dm() -> NodeId {
        NodeId::middleware(0)
    }
    fn ds(i: u32) -> NodeId {
        NodeId::data_source(i)
    }

    #[test]
    fn transfer_takes_half_rtt() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(100))
                .build();
            let start = now();
            net.transfer(dm(), ds(0)).await;
            assert_eq!(now().duration_since(start), Duration::from_millis(50));
        });
    }

    #[test]
    fn ping_measures_full_rtt() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(73))
                .build();
            assert_eq!(net.ping(dm(), ds(0)).await, Duration::from_millis(73));
        });
    }

    #[test]
    fn same_node_transfer_is_free() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1).build();
            let start = now();
            net.transfer(dm(), dm()).await;
            assert_eq!(now(), start);
            assert_eq!(net.nominal_rtt(dm(), dm()), Duration::ZERO);
        });
    }

    #[test]
    fn undeclared_links_use_lan_rtt() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .default_lan_rtt(Duration::from_millis(2))
                .build();
            assert_eq!(net.nominal_rtt(dm(), ds(3)), Duration::from_millis(2));
            assert_eq!(net.ping(dm(), ds(3)).await, Duration::from_millis(2));
        });
    }

    #[test]
    fn link_is_symmetric() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(1), Duration::from_millis(27))
                .build();
            assert_eq!(net.nominal_rtt(ds(1), dm()), Duration::from_millis(27));
        });
    }

    #[test]
    fn set_link_reconfigures_latency() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(10))
                .build();
            net.set_link(dm(), ds(0), StaticLatency::from_millis(200));
            assert_eq!(net.nominal_rtt(dm(), ds(0)), Duration::from_millis(200));
        });
    }

    #[test]
    fn dynamic_link_changes_over_time() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .link(
                    dm(),
                    ds(0),
                    DynamicLatency::evenly_spaced(
                        Duration::from_secs(40),
                        vec![Duration::from_millis(20), Duration::from_millis(80)],
                    ),
                )
                .build();
            assert_eq!(net.nominal_rtt(dm(), ds(0)), Duration::from_millis(20));
            geotp_simrt::sleep(Duration::from_secs(41)).await;
            assert_eq!(net.nominal_rtt(dm(), ds(0)), Duration::from_millis(80));
        });
    }

    #[test]
    fn stats_count_messages() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(10))
                .build();
            net.ping(dm(), ds(0)).await;
            net.ping(dm(), ds(0)).await;
            let stats = net.link_stats(dm(), ds(0));
            assert_eq!(stats.messages, 4);
            assert_eq!(stats.total_latency_micros, 4 * 5_000);
            assert_eq!(net.total_messages(), 4);
        });
    }

    #[test]
    fn blocked_link_stalls_transfer_until_heal() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(10))
                .build();
            net.set_fault_injector(Rc::new(crate::fault::test_support::ScriptedFault {
                pair: (dm(), ds(0)),
                blocked: Some((
                    geotp_simrt::SimInstant::ZERO,
                    geotp_simrt::SimInstant::from_micros(100_000),
                )),
                extra: Duration::ZERO,
                copies: std::cell::Cell::new(1),
            }));
            let start = now();
            net.transfer(dm(), ds(0)).await;
            // Stalled until the 100ms heal, then paid the normal 5ms one-way.
            assert_eq!(now().duration_since(start), Duration::from_millis(105));
            // After the window the link behaves normally again.
            net.transfer(dm(), ds(0)).await;
            assert_eq!(now().duration_since(start), Duration::from_millis(110));
        });
    }

    #[test]
    fn fault_plane_extra_delay_and_drop_duplicate() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1)
                .static_link(dm(), ds(0), Duration::from_millis(10))
                .build();
            let fault = Rc::new(crate::fault::test_support::ScriptedFault {
                pair: (dm(), ds(0)),
                blocked: None,
                extra: Duration::from_millis(7),
                copies: std::cell::Cell::new(2),
            });
            net.set_fault_injector(Rc::clone(&fault) as Rc<dyn crate::fault::FaultInjector>);
            let start = now();
            net.transfer(dm(), ds(0)).await;
            assert_eq!(now().duration_since(start), Duration::from_millis(12));

            // Unreliable path: duplicate fate.
            assert_eq!(net.transfer_unreliable(dm(), ds(0)).await, 2);
            // Drop fate: returns immediately without sleeping.
            fault.copies.set(0);
            let before = now();
            assert_eq!(net.transfer_unreliable(dm(), ds(0)).await, 0);
            assert_eq!(now(), before);

            // Detaching restores normal behaviour.
            net.clear_fault_injector();
            assert_eq!(net.transfer_unreliable(dm(), ds(0)).await, 1);
            let t0 = now();
            net.transfer(dm(), ds(0)).await;
            assert_eq!(now().duration_since(t0), Duration::from_millis(5));
        });
    }

    #[test]
    fn static_links_set_every_declared_pair() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let rtt = Duration::from_millis(30);
            let net = NetworkBuilder::new(7)
                .static_link(dm(), ds(0), rtt)
                .static_link(dm(), ds(1), rtt)
                .static_link(ds(0), ds(1), rtt)
                .build();
            assert_eq!(net.nominal_rtt(dm(), ds(1)), Duration::from_millis(30));
            assert_eq!(net.nominal_rtt(ds(0), ds(1)), Duration::from_millis(30));
        });
    }
}
