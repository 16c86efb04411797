//! Deployment wiring: the network and data sources under N ≥ 1 coordinators.
//!
//! Every deployment in the workspace — the facade's `ClusterBuilder`, the
//! chaos harness behind either front door, the scale-out experiments — has
//! the same physical shape: each coordinator linked to every data source, an
//! optional control node for the membership heartbeats, data sources
//! inter-linked for the geo-agent early-abort traffic. [`wire`] builds it
//! once; callers differ only in RTT vectors, engine configuration and what
//! they plug into the fault plane afterwards.

use std::rc::Rc;
use std::time::Duration;

use geotp_datasource::{DataSource, DataSourceConfig};
use geotp_net::{Network, NetworkBuilder, NodeId};
use geotp_storage::EngineConfig;

/// Physical layout of a deployment.
#[derive(Debug, Clone)]
pub struct Wiring {
    /// Seed for network latency sampling.
    pub seed: u64,
    /// One RTT vector per coordinator: `coordinator_rtts_ms[i][j]` is the
    /// `dm_i ↔ ds_j` RTT in milliseconds (the first vector's length is the
    /// source count).
    pub coordinator_rtts_ms: Vec<Vec<u64>>,
    /// Coordinator↔control-node RTT in milliseconds; `None` deploys no
    /// control node (a lone middleware has no membership service).
    pub control_rtt_ms: Option<u64>,
    /// Storage-engine configuration applied to every source.
    pub engine: EngineConfig,
    /// LAN RTT between each geo-agent and its co-located database.
    pub agent_lan_rtt: Duration,
}

/// Build the latency matrix and the data sources for `wiring`:
/// `dm_i ↔ ds_j` at the configured RTT, `dm_i ↔ ctl0` at the control RTT,
/// `ds_i ↔ ds_j` at the max of the two endpoints' RTTs from the first
/// coordinator (geo-agents of distant regions are roughly as far from each
/// other as from the middleware), geo-agent peers registered.
pub fn wire(wiring: &Wiring) -> (Rc<Network>, Vec<Rc<DataSource>>) {
    assert!(
        !wiring.coordinator_rtts_ms.is_empty(),
        "a deployment needs at least one coordinator"
    );
    let ms = Duration::from_millis;
    let mut net_builder =
        NetworkBuilder::new(wiring.seed).default_lan_rtt(Duration::from_micros(500));
    for (dm, rtts) in wiring.coordinator_rtts_ms.iter().enumerate() {
        let dm_node = NodeId::middleware(dm as u32);
        for (j, rtt) in rtts.iter().enumerate() {
            net_builder = net_builder.static_link(dm_node, NodeId::data_source(j as u32), ms(*rtt));
        }
        if let Some(control_rtt) = wiring.control_rtt_ms {
            net_builder = net_builder.static_link(dm_node, NodeId::control(0), ms(control_rtt));
        }
    }
    let ds_rtts = &wiring.coordinator_rtts_ms[0];
    for i in 0..ds_rtts.len() {
        for j in (i + 1)..ds_rtts.len() {
            net_builder = net_builder.static_link(
                NodeId::data_source(i as u32),
                NodeId::data_source(j as u32),
                ms(ds_rtts[i].max(ds_rtts[j])),
            );
        }
    }
    let net = net_builder.build();

    let mut sources = Vec::with_capacity(ds_rtts.len());
    for j in 0..ds_rtts.len() {
        let mut cfg = DataSourceConfig::new(NodeId::data_source(j as u32));
        cfg.engine = wiring.engine;
        cfg.agent_lan_rtt = wiring.agent_lan_rtt;
        sources.push(DataSource::new(cfg, Rc::clone(&net)));
    }
    for a in &sources {
        for b in &sources {
            if a.index() != b.index() {
                a.register_peer(b);
            }
        }
    }
    (net, sources)
}

/// Physical layout of a co-located coordinator tier.
#[derive(Debug, Clone)]
pub struct TierLayout {
    /// Seed for network latency sampling.
    pub seed: u64,
    /// Number of coordinator slots (every one gets the same RTT vector — the
    /// tier is assumed co-located, as proxy fleets are).
    pub coordinators: usize,
    /// Coordinator↔data-source RTTs in milliseconds, one per source.
    pub ds_rtts_ms: Vec<u64>,
    /// Coordinator↔control-node RTT in milliseconds (the membership service
    /// lives near the tier).
    pub control_rtt_ms: u64,
    /// Storage-engine configuration applied to every source.
    pub engine: EngineConfig,
    /// LAN RTT between each geo-agent and its co-located database.
    pub agent_lan_rtt: Duration,
}

/// [`wire`] for a co-located tier: every coordinator shares one RTT vector,
/// a control node is always present.
pub fn build_tier(layout: &TierLayout) -> (Rc<Network>, Vec<Rc<DataSource>>) {
    wire(&Wiring {
        seed: layout.seed,
        coordinator_rtts_ms: vec![layout.ds_rtts_ms.clone(); layout.coordinators],
        control_rtt_ms: Some(layout.control_rtt_ms),
        engine: layout.engine,
        agent_lan_rtt: layout.agent_lan_rtt,
    })
}
