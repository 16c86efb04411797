//! # geotp-telemetry
//!
//! Deterministic observability for the GeoTP simulation: distributed
//! tracing, a unified metrics registry, critical-path analysis and
//! Chrome-trace/Perfetto export.
//!
//! ## Design rules
//!
//! * **Zero schedule perturbation.** Nothing in this crate consumes
//!   randomness, sleeps, spawns or otherwise touches the discrete-event
//!   scheduler — it only reads the virtual clock and appends to in-memory
//!   structures. Replay fingerprints are therefore byte-identical with
//!   telemetry installed or not (a golden test in `geotp-chaos` proves it).
//! * **Deterministic output.** Span identity is the stable triple
//!   `(gtrid, node, seq)`; spans are stored in program order; metric
//!   snapshots and trace exports sort before emitting. Same seed, same
//!   bytes.
//! * **Bottom of the dependency graph.** Only `geotp-simrt` sits below this
//!   crate, so every tier (net, storage, datasource, middleware, cluster,
//!   workloads, chaos) can report into one registry and one tracer.
//!
//! ## Usage
//!
//! Telemetry is *installed* per scenario rather than threaded through
//! constructors: [`install`] sets a thread-local collector and the free
//! functions ([`span_root`], [`counter_add`], [`observe`], …) become live;
//! without an install they are no-ops costing one thread-local read.
//!
//! ```
//! use geotp_telemetry as telemetry;
//! use telemetry::{SpanKind, TraceNode};
//!
//! let mut rt = geotp_simrt::Runtime::new();
//! rt.block_on(async {
//!     let session = telemetry::install();
//!     let span = telemetry::span_root(42, TraceNode::middleware(0), SpanKind::Txn, 0);
//!     telemetry::counter_add("net.messages", "", 0, 1);
//!     telemetry::span_end(span);
//!     let t = telemetry::uninstall().unwrap();
//!     assert_eq!(t.tracer.len(), 1);
//! });
//! ```

mod critical_path;
mod export;
mod histogram;
mod registry;
mod span;
mod tracer;

pub use critical_path::{aggregate_critical_path, critical_path, CriticalPath};
pub use export::{chrome_trace_json, metrics_timeline_csv, write_chrome_trace};
pub use histogram::Histogram;
pub use registry::{MetricKey, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use span::{NodeClass, Span, SpanId, SpanKind, TraceNode, SPAN_KINDS};
pub use tracer::Tracer;

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// One telemetry collection session: a tracer plus a metrics registry.
#[derive(Default)]
pub struct Telemetry {
    /// The span recorder.
    pub tracer: Tracer,
    /// The unified metrics registry.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// A fresh, empty collector.
    pub fn new() -> Rc<Self> {
        Rc::new(Self::default())
    }

    /// A collector whose tracer retains at most `cap` spans (per-gtrid
    /// eviction — see [`Tracer::set_span_cap`]). For long-running drills
    /// where an unbounded trace would dominate memory.
    pub fn with_span_cap(cap: usize) -> Rc<Self> {
        Rc::new(Self {
            tracer: Tracer::with_span_cap(cap),
            metrics: MetricsRegistry::new(),
        })
    }
}

thread_local! {
    static INSTALLED: RefCell<Option<Rc<Telemetry>>> = const { RefCell::new(None) };
}

/// Install a fresh collector and return it. Replaces any previous install
/// (the simulation is single-threaded, so "thread-local" means "global to
/// the run").
pub fn install() -> Rc<Telemetry> {
    let t = Telemetry::new();
    install_collector(t.clone());
    t
}

/// Install a specific collector (e.g. to resume accumulating into one that
/// was uninstalled earlier).
pub fn install_collector(t: Rc<Telemetry>) {
    INSTALLED.with(|cell| *cell.borrow_mut() = Some(t));
}

/// Remove and return the installed collector, disabling all free functions.
pub fn uninstall() -> Option<Rc<Telemetry>> {
    INSTALLED.with(|cell| cell.borrow_mut().take())
}

/// Whether a collector is currently installed.
pub fn enabled() -> bool {
    INSTALLED.with(|cell| cell.borrow().is_some())
}

/// The installed collector, if any.
pub fn installed() -> Option<Rc<Telemetry>> {
    INSTALLED.with(|cell| cell.borrow().clone())
}

/// Run `f` against the installed collector; `None` (and no call) when
/// telemetry is off.
pub fn with<T>(f: impl FnOnce(&Telemetry) -> T) -> Option<T> {
    INSTALLED.with(|cell| cell.borrow().as_ref().map(|t| f(t)))
}

// ---------------------------------------------------------------------------
// Free instrumentation helpers: no-ops when no collector is installed, so
// call sites across the tier never need a telemetry handle in scope.
// ---------------------------------------------------------------------------

/// Start a root span (see [`Tracer::start_root`]).
pub fn span_root(gtrid: u64, node: TraceNode, kind: SpanKind, arg: u64) -> Option<SpanId> {
    with(|t| t.tracer.start_root(gtrid, node, kind, arg))
}

/// Start a root span backdated to `start` (see [`Tracer::start_root_at`]).
pub fn span_root_at(
    gtrid: u64,
    node: TraceNode,
    kind: SpanKind,
    arg: u64,
    start: geotp_simrt::SimInstant,
) -> Option<SpanId> {
    with(|t| t.tracer.start_root_at(gtrid, node, kind, arg, start))
}

/// Record an already-finished leaf span covering `[start, now()]` (see
/// [`Tracer::leaf_closed`]).
pub fn span_leaf_closed(
    gtrid: u64,
    node: TraceNode,
    kind: SpanKind,
    arg: u64,
    start: geotp_simrt::SimInstant,
) -> Option<SpanId> {
    with(|t| t.tracer.leaf_closed(gtrid, node, kind, arg, start))
}

/// Record an already-finished leaf span with an explicit window (see
/// [`Tracer::leaf_window`]).
pub fn span_leaf_window(
    gtrid: u64,
    node: TraceNode,
    kind: SpanKind,
    arg: u64,
    start: geotp_simrt::SimInstant,
    end: geotp_simrt::SimInstant,
) -> Option<SpanId> {
    with(|t| t.tracer.leaf_window(gtrid, node, kind, arg, start, end))
}

/// Close every open scoped span of `(gtrid, node)` (see [`Tracer::end_all`]).
pub fn span_end_all(gtrid: u64, node: TraceNode) {
    with(|t| t.tracer.end_all(gtrid, node));
}

/// Start a scoped span under the innermost open span (see
/// [`Tracer::start_scoped`]).
pub fn span_scoped(gtrid: u64, node: TraceNode, kind: SpanKind, arg: u64) -> Option<SpanId> {
    with(|t| t.tracer.start_scoped(gtrid, node, kind, arg))
}

/// Start a scoped span under an explicit (possibly cross-node) parent.
pub fn span_scoped_under(
    gtrid: u64,
    node: TraceNode,
    kind: SpanKind,
    arg: u64,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    with(|t| t.tracer.start_scoped_under(gtrid, node, kind, arg, parent))
}

/// Start a leaf span under the innermost open span.
pub fn span_leaf(gtrid: u64, node: TraceNode, kind: SpanKind, arg: u64) -> Option<SpanId> {
    with(|t| t.tracer.start_leaf(gtrid, node, kind, arg))
}

/// Start a leaf span under an explicit parent.
pub fn span_leaf_under(
    gtrid: u64,
    node: TraceNode,
    kind: SpanKind,
    arg: u64,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    with(|t| t.tracer.start_leaf_under(gtrid, node, kind, arg, parent))
}

/// Close a span produced by one of the `span_*` helpers. Accepts the
/// `Option` those helpers return so call sites stay unconditional.
pub fn span_end(id: Option<SpanId>) {
    if let Some(id) = id {
        with(|t| t.tracer.end(id));
    }
}

/// Add to a counter (see [`MetricsRegistry::counter_add`]).
pub fn counter_add(name: &'static str, label: &'static str, index: u32, delta: u64) {
    with(|t| t.metrics.counter_add(name, label, index, delta));
}

/// Set a gauge level (see [`MetricsRegistry::gauge_set`]).
pub fn gauge_set(name: &'static str, label: &'static str, index: u32, level: i64) {
    with(|t| t.metrics.gauge_set(name, label, index, level));
}

/// Adjust a gauge by a delta (see [`MetricsRegistry::gauge_add`]).
pub fn gauge_add(name: &'static str, label: &'static str, index: u32, delta: i64) {
    with(|t| t.metrics.gauge_add(name, label, index, delta));
}

/// Record a histogram sample (see [`MetricsRegistry::observe`]).
pub fn observe(name: &'static str, label: &'static str, index: u32, sample: Duration) {
    with(|t| t.metrics.observe(name, label, index, sample));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_helpers_are_noops_without_an_install() {
        uninstall();
        assert!(!enabled());
        assert!(span_root(1, TraceNode::client(0), SpanKind::Txn, 0).is_none());
        counter_add("x", "", 0, 1); // must not panic
        span_end(None);
        assert!(with(|_| ()).is_none());
    }

    #[test]
    fn install_routes_helpers_into_the_collector() {
        let mut rt = geotp_simrt::Runtime::new();
        rt.block_on(async {
            let t = install();
            let span = span_root(3, TraceNode::middleware(0), SpanKind::Txn, 0);
            assert!(span.is_some());
            counter_add("net.messages", "", 0, 2);
            observe("lat", "", 0, Duration::from_micros(10));
            span_end(span);
            let back = uninstall().expect("collector was installed");
            assert!(Rc::ptr_eq(&t, &back));
            assert_eq!(back.tracer.len(), 1);
            assert_eq!(back.metrics.counter("net.messages", "", 0), 2);
            assert!(!enabled());
            // Reinstalling the same collector resumes accumulation.
            install_collector(back);
            counter_add("net.messages", "", 0, 1);
            assert_eq!(
                uninstall().unwrap().metrics.counter("net.messages", "", 0),
                3
            );
        });
    }
}
