//! The deterministic tracer: records span trees stamped with virtual time.
//!
//! The tracer **never consumes randomness and never sleeps** — it only reads
//! the virtual clock and appends to in-memory vectors — so installing it
//! cannot perturb schedules: replay fingerprints are byte-identical with
//! tracing on or off (proved by a golden test in `geotp-chaos`).
//!
//! Internals are built for the hot path: one `RefCell` guards everything,
//! per-`(gtrid, node)` state is a fixed-size record (no per-transaction
//! allocations), and the open-scope stack is threaded *intrusively* through
//! the span storage (`open_prev` links), so starting or ending a span is one
//! hash lookup plus array writes.

use std::cell::{Cell, Ref, RefCell};

use geotp_simrt::hash::{FxHashMap, FxHashSet};
use geotp_simrt::now;

use crate::span::{Span, SpanId, SpanKind, TraceNode};

/// "No span" sentinel for the intrusive open-stack links.
const NONE: u32 = u32::MAX;
/// Link value for spans that were never on the open stack (leaves): lets
/// [`Tracer::end`] skip stack maintenance without a chain walk.
const NOT_SCOPED: u32 = u32::MAX - 1;

/// How a new span finds its parent.
enum Parent {
    /// Use this id (or none), as handed across a message boundary.
    Explicit(Option<SpanId>),
    /// The innermost open scoped span of the same `(gtrid, node)`.
    Stack,
}

/// Per-`(gtrid, node)` bookkeeping: a fixed-size record, so creating it
/// never allocates. The open-scope stack lives in `Inner::open_prev`.
struct TxnTrace {
    /// Next sequence number to allocate.
    next_seq: u32,
    /// Span-storage index of the innermost open scoped span ([`NONE`] when
    /// the stack is empty); older entries chain through `Inner::open_prev`.
    open_head: u32,
}

#[derive(Default)]
struct Inner {
    /// All recorded spans, in program (deterministic) order.
    spans: Vec<Span>,
    /// Parallel to `spans`: the open-stack link captured when the span was
    /// pushed — the previous `open_head` for scoped spans, [`NOT_SCOPED`]
    /// for leaves.
    open_prev: Vec<u32>,
    txns: FxHashMap<(u64, TraceNode), TxnTrace>,
}

/// Records spans for every transaction observed while installed.
#[derive(Default)]
pub struct Tracer {
    inner: RefCell<Inner>,
    /// Optional retention cap on stored spans. `None` (the default) retains
    /// everything — the mode every golden/fingerprint suite runs in.
    cap: Cell<Option<usize>>,
}

impl Tracer {
    /// A fresh, empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer that retains at most `cap` spans (see [`Tracer::set_span_cap`]).
    pub fn with_span_cap(cap: usize) -> Self {
        let t = Self::default();
        t.set_span_cap(Some(cap));
        t
    }

    /// Bound tracer memory: when more than `cap` spans are stored, whole
    /// *fully-closed* transactions are evicted oldest-first (per-gtrid
    /// retention — a transaction's spans leave together, across nodes) until
    /// the store is back under half the cap. Transactions with any span
    /// still open are never evicted, so a capped long run retains its live
    /// working set plus the most recent completed history. Setting `None`
    /// restores unbounded retention.
    ///
    /// Under a cap, span *storage order* remains deterministic but is no
    /// longer the full program order (evicted prefixes are gone), and
    /// re-closing an already-closed span after an eviction pass is a no-op.
    /// Exports sort before emitting, so capped traces stay stable artifacts.
    pub fn set_span_cap(&self, cap: Option<usize>) {
        self.cap.set(cap);
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        gtrid: u64,
        node: TraceNode,
        kind: SpanKind,
        arg: u64,
        parent: Parent,
        scoped: bool,
        window: Option<(geotp_simrt::SimInstant, Option<geotp_simrt::SimInstant>)>,
    ) -> SpanId {
        let at = now();
        let (start, end) = match window {
            Some((start, end)) => (start, end.unwrap_or(at)),
            None => (at, at),
        };
        let mut inner = self.inner.borrow_mut();
        let Inner {
            spans,
            open_prev,
            txns,
        } = &mut *inner;
        let idx = spans.len() as u32;
        let txn = txns.entry((gtrid, node)).or_insert(TxnTrace {
            next_seq: 0,
            open_head: NONE,
        });
        // Implicit parenting resolves against the same map entry — the hot
        // path pays exactly one hash lookup per span start.
        let parent = match parent {
            Parent::Explicit(p) => p,
            Parent::Stack => spans.get(txn.open_head as usize).map(|s| s.id),
        };
        let id = SpanId::new(gtrid, node, txn.next_seq, idx);
        txn.next_seq += 1;
        if scoped {
            open_prev.push(txn.open_head);
            txn.open_head = idx;
        } else {
            open_prev.push(NOT_SCOPED);
        }
        spans.push(Span {
            id,
            parent,
            kind,
            arg,
            start,
            end,
        });
        if let Some(cap) = self.cap.get() {
            if spans.len() > cap {
                compact(spans, open_prev, txns, cap, gtrid);
            }
        }
        id
    }

    /// The innermost open scoped span for `(gtrid, node)`, if any.
    pub fn current(&self, gtrid: u64, node: TraceNode) -> Option<SpanId> {
        let inner = self.inner.borrow();
        let head = inner.txns.get(&(gtrid, node))?.open_head;
        inner.spans.get(head as usize).map(|s| s.id)
    }

    /// Start a root span (no parent). Scoped: later same-`(gtrid, node)`
    /// spans nest under it until it ends.
    pub fn start_root(&self, gtrid: u64, node: TraceNode, kind: SpanKind, arg: u64) -> SpanId {
        self.push(gtrid, node, kind, arg, Parent::Explicit(None), true, None)
    }

    /// Start a root span backdated to `start`. Needed by instrumentation
    /// points that only learn the transaction id *after* timed work already
    /// happened (the coordinator allocates the gtrid after the analysis
    /// slice).
    pub fn start_root_at(
        &self,
        gtrid: u64,
        node: TraceNode,
        kind: SpanKind,
        arg: u64,
        start: geotp_simrt::SimInstant,
    ) -> SpanId {
        self.push(
            gtrid,
            node,
            kind,
            arg,
            Parent::Explicit(None),
            true,
            Some((start, None)),
        )
    }

    /// Record an already-finished leaf span covering `[start, now()]` under
    /// the current innermost span of `(gtrid, node)`.
    pub fn leaf_closed(
        &self,
        gtrid: u64,
        node: TraceNode,
        kind: SpanKind,
        arg: u64,
        start: geotp_simrt::SimInstant,
    ) -> SpanId {
        self.push(
            gtrid,
            node,
            kind,
            arg,
            Parent::Stack,
            false,
            Some((start, None)),
        )
    }

    /// Record an already-finished leaf span with an explicit `[start, end]`
    /// window, under the current innermost span of `(gtrid, node)`. Used by
    /// instrumentation points that learn the transaction id only after the
    /// timed work happened (the admission queue waits before a gtrid exists).
    pub fn leaf_window(
        &self,
        gtrid: u64,
        node: TraceNode,
        kind: SpanKind,
        arg: u64,
        start: geotp_simrt::SimInstant,
        end: geotp_simrt::SimInstant,
    ) -> SpanId {
        self.push(
            gtrid,
            node,
            kind,
            arg,
            Parent::Stack,
            false,
            Some((start, Some(end))),
        )
    }

    /// Close every open scoped span of `(gtrid, node)`, innermost first, at
    /// the current virtual instant. The single close point for transaction
    /// exit paths (commit, abort, crash, abandon) — whatever is still open
    /// ends when the transaction's outcome is recorded.
    pub fn end_all(&self, gtrid: u64, node: TraceNode) {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            spans,
            open_prev,
            txns,
        } = &mut *inner;
        let Some(txn) = txns.get_mut(&(gtrid, node)) else {
            return;
        };
        if txn.open_head == NONE {
            return;
        }
        let at = now();
        let mut cur = txn.open_head;
        while cur != NONE {
            spans[cur as usize].end = at;
            cur = open_prev[cur as usize];
        }
        txn.open_head = NONE;
    }

    /// Start a scoped span under the current innermost span of
    /// `(gtrid, node)` (root if none is open).
    pub fn start_scoped(&self, gtrid: u64, node: TraceNode, kind: SpanKind, arg: u64) -> SpanId {
        self.push(gtrid, node, kind, arg, Parent::Stack, true, None)
    }

    /// Start a scoped span under an explicit parent — the cross-node case,
    /// where the parent id rode the message metadata.
    pub fn start_scoped_under(
        &self,
        gtrid: u64,
        node: TraceNode,
        kind: SpanKind,
        arg: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.push(gtrid, node, kind, arg, Parent::Explicit(parent), true, None)
    }

    /// Start a leaf span (never a parent itself) under the current innermost
    /// span of `(gtrid, node)`.
    pub fn start_leaf(&self, gtrid: u64, node: TraceNode, kind: SpanKind, arg: u64) -> SpanId {
        self.push(gtrid, node, kind, arg, Parent::Stack, false, None)
    }

    /// Start a leaf span under an explicit parent.
    pub fn start_leaf_under(
        &self,
        gtrid: u64,
        node: TraceNode,
        kind: SpanKind,
        arg: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.push(
            gtrid,
            node,
            kind,
            arg,
            Parent::Explicit(parent),
            false,
            None,
        )
    }

    /// Close a span at the current virtual instant.
    pub fn end(&self, id: SpanId) {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            spans,
            open_prev,
            txns,
        } = &mut *inner;
        // Ids carry their storage slot, so closing is normally O(1); the
        // identity check rejects ids minted by a previously installed
        // tracer. Under a retention cap, compaction may have moved an open
        // span, so fall back to resolving the stable `(gtrid, node, seq)`
        // triple along the txn's open chain (closed spans never move while
        // an id to them is still actionable).
        let fast = spans
            .get(id.slot() as usize)
            .is_some_and(|span| span.id == id);
        let idx = if fast {
            id.slot() as usize
        } else {
            let Some(found) = find_open(spans, open_prev, txns, id) else {
                return;
            };
            found
        };
        spans[idx].end = now();
        if open_prev[idx] == NOT_SCOPED {
            return;
        }
        let Some(txn) = txns.get_mut(&(id.gtrid, id.node)) else {
            return;
        };
        if txn.open_head == idx as u32 {
            txn.open_head = open_prev[idx];
            return;
        }
        // Out-of-order close (abandon paths): if the span is still on the
        // open chain, drop it and everything opened inside it — those scopes
        // can never close normally.
        let mut cur = txn.open_head;
        while cur != NONE {
            if cur == idx as u32 {
                txn.open_head = open_prev[idx];
                return;
            }
            cur = open_prev[cur as usize];
        }
    }

    /// All spans recorded so far, in program (deterministic) order.
    pub fn spans(&self) -> Ref<'_, Vec<Span>> {
        Ref::map(self.inner.borrow(), |inner| &inner.spans)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans belonging to one transaction, in program order.
    pub fn spans_for(&self, gtrid: u64) -> Vec<Span> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.id.gtrid == gtrid)
            .copied()
            .collect()
    }

    /// Every *scoped* span still open (started but not yet ended), as stable
    /// ids sorted by `(gtrid, node, seq)`. Leaves are recorded pre-closed
    /// (`end == start`) and never sit on the open stack, so they are not
    /// reported. Open spans pin their transaction against retention
    /// eviction, so the result is exact even under a span cap.
    pub fn open_spans(&self) -> Vec<SpanId> {
        let inner = self.inner.borrow();
        let mut open = Vec::new();
        for txn in inner.txns.values() {
            let mut cur = txn.open_head;
            while cur != NONE {
                open.push(inner.spans[cur as usize].id);
                cur = inner.open_prev[cur as usize];
            }
        }
        open.sort_unstable_by_key(|id| (id.gtrid, id.node, id.seq));
        open
    }

    /// Every traced gtrid, ascending.
    pub fn gtrids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .inner
            .borrow()
            .spans
            .iter()
            .map(|s| s.id.gtrid)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Resolve a span whose storage slot went stale (retention compaction moved
/// it) by walking the txn's open chain for the stable sequence number.
fn find_open(
    spans: &[Span],
    open_prev: &[u32],
    txns: &FxHashMap<(u64, TraceNode), TxnTrace>,
    id: SpanId,
) -> Option<usize> {
    let txn = txns.get(&(id.gtrid, id.node))?;
    let mut cur = txn.open_head;
    while cur != NONE {
        if spans[cur as usize].id.seq == id.seq {
            return Some(cur as usize);
        }
        cur = open_prev[cur as usize];
    }
    None
}

/// Per-gtrid retention: evict whole fully-closed transactions, oldest first
/// (by their first stored span), until the store is back under `cap / 2` —
/// the half-full goal amortises the O(spans) rebuild over at least `cap / 2`
/// subsequent pushes. Transactions with any open span, and the transaction
/// a span was just pushed for (`protect`), are never evicted. Storage slots
/// are remapped; every stored reference (span ids, parents, open chains,
/// per-txn heads) is rewritten consistently, and evicted transactions also
/// drop their per-txn bookkeeping so memory is bounded end to end.
fn compact(
    spans: &mut Vec<Span>,
    open_prev: &mut Vec<u32>,
    txns: &mut FxHashMap<(u64, TraceNode), TxnTrace>,
    cap: usize,
    protect: u64,
) {
    let mut pinned: FxHashSet<u64> = FxHashSet::default();
    pinned.insert(protect);
    for ((gtrid, _), txn) in txns.iter() {
        if txn.open_head != NONE {
            pinned.insert(*gtrid);
        }
    }
    // First stored index and span count per gtrid: eviction order and size.
    let mut extent: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
    for (i, span) in spans.iter().enumerate() {
        let entry = extent.entry(span.id.gtrid).or_insert((i as u32, 0));
        entry.1 += 1;
    }
    let mut evictable: Vec<(u32, u64, u32)> = extent
        .iter()
        .filter(|(gtrid, _)| !pinned.contains(gtrid))
        .map(|(gtrid, (first, count))| (*first, *gtrid, *count))
        .collect();
    evictable.sort_unstable();
    let goal = cap / 2;
    let mut len = spans.len();
    let mut evict: FxHashSet<u64> = FxHashSet::default();
    for (_, gtrid, count) in evictable {
        if len <= goal {
            break;
        }
        evict.insert(gtrid);
        len -= count as usize;
    }
    if evict.is_empty() {
        return;
    }
    let mut remap: Vec<u32> = vec![NONE; spans.len()];
    let mut new_spans: Vec<Span> = Vec::with_capacity(len);
    let mut new_open_prev: Vec<u32> = Vec::with_capacity(len);
    for (i, span) in spans.iter().enumerate() {
        if evict.contains(&span.id.gtrid) {
            continue;
        }
        let new_idx = new_spans.len() as u32;
        remap[i] = new_idx;
        let mut moved = *span;
        moved.id = SpanId::new(moved.id.gtrid, moved.id.node, moved.id.seq, new_idx);
        new_spans.push(moved);
        new_open_prev.push(open_prev[i]);
    }
    for (i, span) in new_spans.iter_mut().enumerate() {
        if let Some(parent) = span.parent {
            let old = parent.slot() as usize;
            if old < remap.len() && remap[old] != NONE {
                span.parent = Some(SpanId::new(
                    parent.gtrid,
                    parent.node,
                    parent.seq,
                    remap[old],
                ));
            }
        }
        // Open chains only reference spans of the same (gtrid, node), and
        // retained gtrids keep every span, so chain targets always remap.
        let prev = new_open_prev[i];
        if prev != NONE && prev != NOT_SCOPED {
            new_open_prev[i] = remap[prev as usize];
        }
    }
    txns.retain(|(gtrid, _), _| !evict.contains(gtrid));
    for txn in txns.values_mut() {
        if txn.open_head != NONE {
            txn.open_head = remap[txn.open_head as usize];
        }
    }
    *spans = new_spans;
    *open_prev = new_open_prev;
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_simrt::{sleep, Runtime};
    use std::time::Duration;

    #[test]
    fn span_identity_is_stable_per_gtrid_and_node() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let tracer = Tracer::new();
            let dm = TraceNode::middleware(0);
            let root = tracer.start_root(7, dm, SpanKind::Txn, 0);
            assert_eq!(root.seq, 0);
            let child = tracer.start_scoped(7, dm, SpanKind::Analysis, 0);
            assert_eq!(child.seq, 1);
            assert_eq!(
                tracer.spans()[1].parent,
                Some(root),
                "scoped spans nest under the innermost open span"
            );
            sleep(Duration::from_millis(2)).await;
            tracer.end(child);
            tracer.end(root);
            assert_eq!(tracer.spans()[1].duration_micros(), 2_000);
            // A different node gets its own sequence space.
            let ds = TraceNode::data_source(1);
            assert_eq!(tracer.start_root(7, ds, SpanKind::AgentExec, 1).seq, 0);
        });
    }

    #[test]
    fn leaf_spans_do_not_become_parents() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let tracer = Tracer::new();
            let ds = TraceNode::data_source(0);
            let exec = tracer.start_root(1, ds, SpanKind::AgentExec, 0);
            let wait = tracer.start_leaf(1, ds, SpanKind::LockWait, 42);
            assert_eq!(tracer.spans()[1].parent, Some(exec));
            // A second leaf still parents to the exec span, not the wait.
            let wait2 = tracer.start_leaf(1, ds, SpanKind::LockWait, 43);
            assert_eq!(tracer.spans()[2].parent, Some(exec));
            tracer.end(wait);
            tracer.end(wait2);
            tracer.end(exec);
            assert!(tracer.current(1, ds).is_none());
        });
    }

    #[test]
    fn out_of_order_close_unwinds_the_stack() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let tracer = Tracer::new();
            let dm = TraceNode::middleware(0);
            let root = tracer.start_root(9, dm, SpanKind::Txn, 0);
            let _inner = tracer.start_scoped(9, dm, SpanKind::Round, 0);
            // Abandon path: the root closes while the round is still open.
            tracer.end(root);
            assert!(tracer.current(9, dm).is_none());
        });
    }

    #[test]
    fn end_all_closes_every_open_span_and_later_ends_still_work() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let tracer = Tracer::new();
            let dm = TraceNode::middleware(0);
            let root = tracer.start_root(5, dm, SpanKind::Txn, 0);
            let round = tracer.start_scoped(5, dm, SpanKind::Round, 0);
            sleep(Duration::from_millis(3)).await;
            tracer.end_all(5, dm);
            assert!(tracer.current(5, dm).is_none());
            assert_eq!(tracer.spans()[0].duration_micros(), 3_000);
            assert_eq!(tracer.spans()[1].duration_micros(), 3_000);
            // Ending an already-closed span just restamps its end; ids stay
            // valid after end_all.
            sleep(Duration::from_millis(1)).await;
            tracer.end(round);
            assert_eq!(tracer.spans()[1].duration_micros(), 4_000);
            let _ = root;
        });
    }

    #[test]
    fn span_cap_evicts_whole_closed_transactions_oldest_first() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let tracer = Tracer::with_span_cap(10);
            let dm = TraceNode::middleware(0);
            // A long-lived transaction that stays open across every
            // compaction pass — it must survive them all.
            let pinned = tracer.start_root(1_000, dm, SpanKind::Txn, 7);
            for gtrid in 0..40u64 {
                let root = tracer.start_root(gtrid, dm, SpanKind::Txn, 0);
                let leaf = tracer.start_leaf(gtrid, dm, SpanKind::Analysis, 0);
                tracer.end(leaf);
                tracer.end(root);
            }
            assert!(
                tracer.len() <= 10,
                "cap exceeded: {} spans retained",
                tracer.len()
            );
            // The open transaction survived; the oldest closed ones did not.
            assert_eq!(tracer.spans_for(1_000).len(), 1);
            assert!(tracer.spans_for(0).is_empty());
            assert!(!tracer.spans_for(39).is_empty(), "newest txn retained");
            // The pre-compaction id still closes the moved span.
            sleep(Duration::from_millis(2)).await;
            tracer.end(pinned);
            assert_eq!(tracer.spans_for(1_000)[0].duration_micros(), 2_000);
            assert!(tracer.current(1_000, dm).is_none());
        });
    }

    #[test]
    fn span_cap_keeps_parent_links_consistent_after_compaction() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let tracer = Tracer::with_span_cap(6);
            let dm = TraceNode::middleware(0);
            for gtrid in 0..20u64 {
                let root = tracer.start_root(gtrid, dm, SpanKind::Txn, 0);
                let child = tracer.start_scoped(gtrid, dm, SpanKind::Round, 0);
                tracer.end(child);
                tracer.end(root);
            }
            // Every retained child still points at its own root, and the
            // rewritten parent ids resolve within the retained storage.
            let spans = tracer.spans().clone();
            assert!(spans.len() <= 6);
            for span in &spans {
                if let Some(parent) = span.parent {
                    let target = spans.iter().find(|s| s.id == parent);
                    assert!(
                        target.is_some(),
                        "dangling parent {parent} for span {}",
                        span.id
                    );
                    assert_eq!(parent.gtrid, span.id.gtrid);
                }
            }
        });
    }

    #[test]
    fn stale_ids_from_a_previous_tracer_are_rejected() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let old = Tracer::new();
            let dm = TraceNode::middleware(0);
            let stale = old.start_root(1, dm, SpanKind::Txn, 0);
            let fresh = Tracer::new();
            let root = fresh.start_root(2, dm, SpanKind::Txn, 0);
            sleep(Duration::from_millis(1)).await;
            // Same storage slot, different identity: must not restamp.
            fresh.end(stale);
            assert_eq!(fresh.spans()[0].duration_micros(), 0);
            fresh.end(root);
            assert_eq!(fresh.spans()[0].duration_micros(), 1_000);
        });
    }
}
