//! Span identity and the span taxonomy.
//!
//! Span identity is the stable triple `(gtrid, node, seq)`: the global
//! transaction id the span belongs to, the simulated node the work happened
//! on, and a per-`(gtrid, node)` sequence number allocated in program order.
//! Because the whole simulation is deterministic, the same seed and schedule
//! produce the same triples on every replay — traces are bit-reproducible.

use std::fmt;

use geotp_simrt::SimInstant;

/// The class of a simulated node, mirroring `geotp_net::NodeKind` (telemetry
/// sits *below* the network crate in the dependency graph, so it keeps its
/// own copy of the taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeClass {
    /// A client terminal.
    Client,
    /// A middleware / coordinator instance.
    Middleware,
    /// A data source (storage engine + geo-agent).
    DataSource,
    /// The control plane (membership, supervisor).
    Control,
}

impl NodeClass {
    /// Short prefix used in display form (matches `geotp_net::NodeId`).
    pub fn prefix(self) -> &'static str {
        match self {
            NodeClass::Client => "client",
            NodeClass::Middleware => "dm",
            NodeClass::DataSource => "ds",
            NodeClass::Control => "ctl",
        }
    }

    /// Human-readable process-group name for trace export.
    pub fn group_name(self) -> &'static str {
        match self {
            NodeClass::Client => "clients",
            NodeClass::Middleware => "middlewares",
            NodeClass::DataSource => "data sources",
            NodeClass::Control => "control plane",
        }
    }

    /// Stable small integer used as the export process id.
    pub fn rank(self) -> u32 {
        match self {
            NodeClass::Client => 1,
            NodeClass::Middleware => 2,
            NodeClass::DataSource => 3,
            NodeClass::Control => 4,
        }
    }
}

/// Identity of a simulated node inside a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceNode {
    /// The node class.
    pub class: NodeClass,
    /// Index within the class.
    pub index: u32,
}

impl TraceNode {
    /// A client node.
    pub const fn client(index: u32) -> Self {
        Self {
            class: NodeClass::Client,
            index,
        }
    }

    /// A middleware node.
    pub const fn middleware(index: u32) -> Self {
        Self {
            class: NodeClass::Middleware,
            index,
        }
    }

    /// A data-source node.
    pub const fn data_source(index: u32) -> Self {
        Self {
            class: NodeClass::DataSource,
            index,
        }
    }

    /// A control-plane node.
    pub const fn control(index: u32) -> Self {
        Self {
            class: NodeClass::Control,
            index,
        }
    }
}

impl fmt::Display for TraceNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

/// Stable span identity: `(gtrid, node, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId {
    /// Global transaction id the span belongs to.
    pub gtrid: u64,
    /// The node the work ran on.
    pub node: TraceNode,
    /// Per-`(gtrid, node)` sequence number, allocated in program order.
    pub seq: u32,
    /// Storage slot in the owning tracer. Identity is still the triple —
    /// within one tracer the slot is a pure function of it — but carrying it
    /// makes closing a span O(1) instead of a per-transaction index lookup.
    slot: u32,
}

impl SpanId {
    pub(crate) fn new(gtrid: u64, node: TraceNode, seq: u32, slot: u32) -> Self {
        Self {
            gtrid,
            node,
            seq,
            slot,
        }
    }

    pub(crate) fn slot(self) -> u32 {
        self.slot
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}#{}", self.gtrid, self.node, self.seq)
    }
}

/// The span taxonomy: every phase a transaction can spend time in, across
/// every tier of the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Root span: the transaction's whole life at its coordinator.
    Txn,
    /// The session front door's `begin` handshake.
    SessionBegin,
    /// Waiting in a coordinator's bounded admission queue.
    Admission,
    /// Parse/route/schedule work at the middleware.
    Analysis,
    /// One statement round at the coordinator: scheduling, WAN dispatch and
    /// waiting for every touched data source.
    Round,
    /// A geo-agent executing one statement batch.
    AgentExec,
    /// A storage-engine lock-queue wait.
    LockWait,
    /// A geo-agent preparing a branch (decentralized or explicit XA).
    Prepare,
    /// The coordinator waiting for prepare votes after the client's commit.
    VoteWait,
    /// Flushing the commit/abort decision to the commit log.
    LogFlush,
    /// Dispatching the durable decision and collecting acknowledgements.
    CommitDispatch,
    /// Dispatching rollbacks after an abort decision.
    RollbackDispatch,
    /// Failure recovery finishing an in-doubt branch (restart or peer
    /// takeover — adoption spans attach to the *original* gtrid's trace).
    Recovery,
}

/// Every span kind, in severity-neutral declaration order (used for
/// deterministic report rows).
pub const SPAN_KINDS: [SpanKind; 13] = [
    SpanKind::Txn,
    SpanKind::SessionBegin,
    SpanKind::Admission,
    SpanKind::Analysis,
    SpanKind::Round,
    SpanKind::AgentExec,
    SpanKind::LockWait,
    SpanKind::Prepare,
    SpanKind::VoteWait,
    SpanKind::LogFlush,
    SpanKind::CommitDispatch,
    SpanKind::RollbackDispatch,
    SpanKind::Recovery,
];

impl SpanKind {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::SessionBegin => "session_begin",
            SpanKind::Admission => "admission",
            SpanKind::Analysis => "analysis",
            SpanKind::Round => "round",
            SpanKind::AgentExec => "agent_exec",
            SpanKind::LockWait => "lock_wait",
            SpanKind::Prepare => "prepare",
            SpanKind::VoteWait => "vote_wait",
            SpanKind::LogFlush => "log_flush",
            SpanKind::CommitDispatch => "commit_dispatch",
            SpanKind::RollbackDispatch => "rollback_dispatch",
            SpanKind::Recovery => "recovery",
        }
    }

    /// Index into [`SPAN_KINDS`]-shaped accumulation arrays: the
    /// declaration order, which that list follows.
    pub fn ordinal(self) -> usize {
        self as usize
    }
}

/// One recorded span. `end == start` until [`crate::Tracer::end`] closes it;
/// spans still open when a trace is exported render as zero-length markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stable identity.
    pub id: SpanId,
    /// The parent span, if any (cross-node parents ride message metadata).
    pub parent: Option<SpanId>,
    /// What phase this span covers.
    pub kind: SpanKind,
    /// Kind-specific argument (round index, data-source index, key row, …).
    pub arg: u64,
    /// Virtual start instant.
    pub start: SimInstant,
    /// Virtual end instant.
    pub end: SimInstant,
}

impl Span {
    /// Span duration in virtual microseconds.
    pub fn duration_micros(&self) -> u64 {
        self.end.as_micros().saturating_sub(self.start.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_display_matches_net_conventions() {
        assert_eq!(TraceNode::client(0).to_string(), "client0");
        assert_eq!(TraceNode::middleware(1).to_string(), "dm1");
        assert_eq!(TraceNode::data_source(3).to_string(), "ds3");
        assert_eq!(TraceNode::control(0).to_string(), "ctl0");
    }

    #[test]
    fn kind_ordinals_are_dense_and_stable() {
        for (i, kind) in SPAN_KINDS.iter().enumerate() {
            assert_eq!(kind.ordinal(), i);
        }
        assert_eq!(SpanKind::Txn.label(), "txn");
        assert_eq!(SpanKind::Recovery.label(), "recovery");
    }
}
