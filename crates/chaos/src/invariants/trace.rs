//! Trace oracle: protocol happens-before rules checked over the telemetry
//! span record of a chaos run.
//!
//! The four state-based checkers (atomicity, durability, liveness,
//! serializability) read *durable artifacts* — WALs, commit logs, record
//! stores. They are blind to ordering bugs that happen to leave correct
//! final state: a coordinator that dispatches a commit *before* its log
//! flush is durably indistinguishable from a correct one unless it crashes
//! in the gap. The trace oracle closes that hole by checking the recorded
//! spans themselves.
//!
//! Every rule is a [`TraceRule`] — a named predicate over a [`TraceContext`]
//! (the span record plus the durable/concluded gtrid sets). The five rules
//! ship in [`builtin_rules`], and [`apply`] runs all of them on every traced
//! chaos run:
//!
//! * **R1 flush-before-dispatch** — on each `(gtrid, middleware)` pair,
//!   every `CommitDispatch` span starts at or after some `LogFlush` span of
//!   the same pair has ended. The write-ahead rule of the commit point.
//! * **R2 vote-before-decision** — every `VoteWait` span closes before the
//!   first `CommitDispatch`/`RollbackDispatch` of the same pair starts:
//!   decisions never race their own vote collection.
//! * **R3 admission-before-body** — every `Admission` queue span closes
//!   before the transaction's root `Txn` span starts on the same
//!   coordinator: admitted work never begins while still queued.
//! * **R4 recovery-needs-evidence** — `Recovery` spans attach only to
//!   gtrids that left at least one durable branch record
//!   (`Prepare`/`Commit`/`Abort`) in some WAL; recovery of a transaction no
//!   engine ever heard of is a bookkeeping bug.
//! * **R5 well-formed span trees** — every parent reference resolves to a
//!   recorded span, and no *middleware* span of a concluded transaction
//!   (the client got a definite answer) is still open at run end.
//!
//! The oracle consumes no randomness and never sleeps — it runs after the
//! workload drains, over data structures telemetry already built — so
//! enabling it cannot perturb schedules and replay fingerprints stay
//! byte-identical. All rules are keyed per gtrid, which makes them safe
//! under the capped tracer's whole-gtrid eviction: an evicted transaction
//! simply contributes no spans, it never leaves a dangling half.

use std::rc::Rc;

use geotp_datasource::DataSource;
use geotp_middleware::{AbortReason, TxnOutcome};
use geotp_simrt::hash::{FxHashMap, FxHashSet};
use geotp_storage::wal::LogRecord;
use geotp_telemetry::{NodeClass, Span, SpanId, SpanKind, Telemetry, TraceNode};

use super::InvariantReport;

/// Everything a trace rule may inspect: the recorded spans, the spans still
/// open at run end, the gtrids with at least one durable branch record, and
/// the gtrids whose client got a definite answer.
pub struct TraceContext<'a> {
    /// Every recorded span, in deterministic program order.
    pub spans: &'a [Span],
    /// Spans still open when the run ended.
    pub open: &'a [SpanId],
    /// Gtrids with a durable `Prepare`/`Commit`/`Abort` in some WAL.
    pub durable_gtrids: &'a FxHashSet<u64>,
    /// Gtrids whose outcome the client saw (not coordinator-crash limbo).
    pub concluded_gtrids: &'a FxHashSet<u64>,
}

/// One named happens-before predicate over a run's span record.
///
/// Implementations must be pure over the [`TraceContext`] — no clock, no
/// randomness, no I/O — so that enabling a rule never perturbs schedules
/// and its verdict is deterministic. Violations are returned one line each,
/// in an order derived only from the context (span program order or sorted
/// key order).
pub trait TraceRule {
    /// Short stable identifier, used to label the rule's violations.
    fn name(&self) -> &'static str;
    /// Evaluate the rule; one line per violation, empty when it holds.
    fn check(&self, ctx: &TraceContext<'_>) -> Vec<String>;
}

/// Per-`(gtrid, node)` extrema accumulated in one pass over the spans.
#[derive(Default)]
struct Group {
    /// Earliest `LogFlush` end (micros). R1 needs "∃ flush ended ≤ dispatch
    /// start", which over a min is "flush_end_min ≤ dispatch start".
    flush_end_min: Option<u64>,
    /// Latest `VoteWait` end.
    vote_end_max: Option<u64>,
    /// Earliest `CommitDispatch`/`RollbackDispatch` start.
    dispatch_start_min: Option<u64>,
    /// Latest `Admission` end.
    admission_end_max: Option<u64>,
    /// Earliest root `Txn` start.
    txn_start_min: Option<u64>,
}

fn min_in(slot: &mut Option<u64>, v: u64) {
    *slot = Some(slot.map_or(v, |cur| cur.min(v)));
}

fn max_in(slot: &mut Option<u64>, v: u64) {
    *slot = Some(slot.map_or(v, |cur| cur.max(v)));
}

fn group_extrema(spans: &[Span]) -> FxHashMap<(u64, TraceNode), Group> {
    let mut groups: FxHashMap<(u64, TraceNode), Group> = FxHashMap::default();
    for s in spans {
        let g = groups.entry((s.id.gtrid, s.id.node)).or_default();
        let (start, end) = (s.start.as_micros(), s.end.as_micros());
        match s.kind {
            SpanKind::LogFlush => min_in(&mut g.flush_end_min, end),
            SpanKind::VoteWait => max_in(&mut g.vote_end_max, end),
            SpanKind::CommitDispatch | SpanKind::RollbackDispatch => {
                min_in(&mut g.dispatch_start_min, start)
            }
            SpanKind::Admission => max_in(&mut g.admission_end_max, end),
            SpanKind::Txn => min_in(&mut g.txn_start_min, start),
            _ => {}
        }
    }
    groups
}

/// Walk the per-group extrema in sorted key order.
fn each_group(
    groups: &FxHashMap<(u64, TraceNode), Group>,
    mut visit: impl FnMut(u64, TraceNode, &Group),
) {
    let mut keys: Vec<&(u64, TraceNode)> = groups.keys().collect();
    keys.sort_unstable();
    for key in keys {
        visit(key.0, key.1, &groups[key]);
    }
}

/// R1: per dispatch, so a late flush cannot excuse an early dispatch.
struct FlushBeforeDispatch;

impl TraceRule for FlushBeforeDispatch {
    fn name(&self) -> &'static str {
        "flush-before-dispatch"
    }

    fn check(&self, ctx: &TraceContext<'_>) -> Vec<String> {
        let groups = group_extrema(ctx.spans);
        let mut violations = Vec::new();
        for s in ctx.spans {
            if s.kind != SpanKind::CommitDispatch {
                continue;
            }
            let flushed = groups
                .get(&(s.id.gtrid, s.id.node))
                .and_then(|g| g.flush_end_min);
            match flushed {
                None => violations.push(format!(
                    "commit dispatch {} has no log flush on its node",
                    s.id
                )),
                Some(f) if f > s.start.as_micros() => violations.push(format!(
                    "commit dispatch {} starts at {}us before the earliest log flush ends at {f}us",
                    s.id,
                    s.start.as_micros()
                )),
                Some(_) => {}
            }
        }
        violations
    }
}

/// R2: decisions never race their own vote collection.
struct VoteBeforeDecision;

impl TraceRule for VoteBeforeDecision {
    fn name(&self) -> &'static str {
        "vote-before-decision"
    }

    fn check(&self, ctx: &TraceContext<'_>) -> Vec<String> {
        let mut violations = Vec::new();
        each_group(&group_extrema(ctx.spans), |gtrid, node, g| {
            if let (Some(vote), Some(dispatch)) = (g.vote_end_max, g.dispatch_start_min) {
                if vote > dispatch {
                    violations.push(format!(
                        "gtrid {gtrid}: vote wait on {node} still open at {vote}us when the \
                         decision dispatched at {dispatch}us"
                    ));
                }
            }
        });
        violations
    }
}

/// R3: admitted work never begins while still queued.
struct AdmissionBeforeBody;

impl TraceRule for AdmissionBeforeBody {
    fn name(&self) -> &'static str {
        "admission-before-body"
    }

    fn check(&self, ctx: &TraceContext<'_>) -> Vec<String> {
        let mut violations = Vec::new();
        each_group(&group_extrema(ctx.spans), |gtrid, node, g| {
            if let (Some(admission), Some(txn)) = (g.admission_end_max, g.txn_start_min) {
                if admission > txn {
                    violations.push(format!(
                        "gtrid {gtrid}: admission queue on {node} released at {admission}us \
                         after the txn body started at {txn}us"
                    ));
                }
            }
        });
        violations
    }
}

/// R4: recovery spans only attach to gtrids with durable evidence.
struct RecoveryNeedsEvidence;

impl TraceRule for RecoveryNeedsEvidence {
    fn name(&self) -> &'static str {
        "recovery-needs-evidence"
    }

    fn check(&self, ctx: &TraceContext<'_>) -> Vec<String> {
        let mut violations = Vec::new();
        for s in ctx.spans {
            if s.kind == SpanKind::Recovery && !ctx.durable_gtrids.contains(&s.id.gtrid) {
                violations.push(format!(
                    "recovery span {} attaches to gtrid {} with no durable branch record",
                    s.id, s.id.gtrid
                ));
            }
        }
        violations
    }
}

/// R5: parent references resolve, and no coordinator-side span of a
/// concluded transaction is left open. Indeterminate outcomes are exempt —
/// a crashed coordinator legitimately strands its open spans.
struct WellFormedSpanTrees;

impl TraceRule for WellFormedSpanTrees {
    fn name(&self) -> &'static str {
        "well-formed-span-trees"
    }

    fn check(&self, ctx: &TraceContext<'_>) -> Vec<String> {
        let mut violations = Vec::new();
        let ids: FxHashSet<(u64, TraceNode, u32)> = ctx
            .spans
            .iter()
            .map(|s| (s.id.gtrid, s.id.node, s.id.seq))
            .collect();
        for s in ctx.spans {
            if let Some(p) = s.parent {
                if !ids.contains(&(p.gtrid, p.node, p.seq)) {
                    violations.push(format!("span {} has unresolved parent {p}", s.id));
                }
            }
        }
        for id in ctx.open {
            if id.node.class == NodeClass::Middleware && ctx.concluded_gtrids.contains(&id.gtrid) {
                violations.push(format!("span {id} still open after its txn concluded"));
            }
        }
        violations
    }
}

/// The five built-in happens-before rules, in evaluation order.
pub fn builtin_rules() -> Vec<Rc<dyn TraceRule>> {
    vec![
        Rc::new(FlushBeforeDispatch),
        Rc::new(VoteBeforeDecision),
        Rc::new(AdmissionBeforeBody),
        Rc::new(RecoveryNeedsEvidence),
        Rc::new(WellFormedSpanTrees),
    ]
}

/// Evaluate every built-in trace rule over a span record. Pure function
/// over the inputs; returns one line per violation, in deterministic order
/// (rule order, then each rule's own span/sorted-group order).
pub fn check_spans(
    spans: &[Span],
    open: &[SpanId],
    durable_gtrids: &FxHashSet<u64>,
    concluded_gtrids: &FxHashSet<u64>,
) -> Vec<String> {
    let ctx = TraceContext {
        spans,
        open,
        durable_gtrids,
        concluded_gtrids,
    };
    let mut violations = Vec::new();
    for rule in builtin_rules() {
        violations.extend(rule.check(&ctx));
    }
    violations
}

/// Run the trace oracle over the installed run's telemetry and fold the
/// verdict into `report.trace_ok`. Harvests the durable-gtrid set from the
/// WALs and the concluded set from the client ledger (outcomes with a
/// definite answer — everything except coordinator-crash indeterminates).
pub fn apply(
    report: &mut InvariantReport,
    telemetry: &Telemetry,
    sources: &[Rc<DataSource>],
    ledger: &[TxnOutcome],
) {
    let mut durable: FxHashSet<u64> = FxHashSet::default();
    for ds in sources {
        for record in ds.engine().wal().all_records() {
            if let LogRecord::Prepare(xid) | LogRecord::Commit(xid) | LogRecord::Abort(xid) = record
            {
                durable.insert(xid.gtrid);
            }
        }
    }
    let concluded: FxHashSet<u64> = ledger
        .iter()
        .filter(|o| o.gtrid != 0 && o.abort_reason != Some(AbortReason::CoordinatorCrashed))
        .map(|o| o.gtrid)
        .collect();

    let open = telemetry.tracer.open_spans();
    let spans = telemetry.tracer.spans();
    let ctx = TraceContext {
        spans: &spans,
        open: &open,
        durable_gtrids: &durable,
        concluded_gtrids: &concluded,
    };
    let mut violations = Vec::new();
    for rule in builtin_rules() {
        violations.extend(rule.check(&ctx).into_iter().map(|v| format!("trace: {v}")));
    }
    drop(spans);
    if !violations.is_empty() {
        report.trace_ok = false;
        report.violations.extend(violations);
    }
}

#[cfg(test)]
mod tests {
    use geotp_simrt::{Runtime, SimInstant};
    use geotp_telemetry::Tracer;

    use super::*;

    fn us(n: u64) -> SimInstant {
        SimInstant::from_micros(n)
    }

    fn sets(durable: &[u64], concluded: &[u64]) -> (FxHashSet<u64>, FxHashSet<u64>) {
        (
            durable.iter().copied().collect(),
            concluded.iter().copied().collect(),
        )
    }

    /// Build a bad span tree inside a runtime (the tracer reads the virtual
    /// clock) and return the oracle's violations.
    fn violations_of(
        build: impl FnOnce(&Tracer),
        durable: &[u64],
        concluded: &[u64],
    ) -> Vec<String> {
        let mut rt = Runtime::new();
        let (durable, concluded) = sets(durable, concluded);
        rt.block_on(async move {
            let t = Tracer::new();
            build(&t);
            let v = check_spans(&t.spans(), &t.open_spans(), &durable, &concluded);
            v
        })
    }

    #[test]
    fn r1_convicts_commit_dispatch_before_flush() {
        let dm = TraceNode::middleware(0);
        let v = violations_of(
            |t| {
                t.leaf_window(7, dm, SpanKind::CommitDispatch, 2, us(10), us(20));
                t.leaf_window(7, dm, SpanKind::LogFlush, 0, us(30), us(40));
            },
            &[7],
            &[7],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("before the earliest log flush"), "{v:?}");
    }

    #[test]
    fn r1_convicts_commit_dispatch_with_no_flush_at_all() {
        let dm = TraceNode::middleware(0);
        let v = violations_of(
            |t| {
                t.leaf_window(7, dm, SpanKind::CommitDispatch, 2, us(10), us(20));
            },
            &[7],
            &[7],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no log flush"), "{v:?}");
    }

    #[test]
    fn r2_convicts_vote_wait_open_past_the_decision() {
        let dm = TraceNode::middleware(1);
        let v = violations_of(
            |t| {
                t.leaf_window(9, dm, SpanKind::VoteWait, 0, us(0), us(50));
                t.leaf_window(9, dm, SpanKind::LogFlush, 0, us(10), us(20));
                t.leaf_window(9, dm, SpanKind::RollbackDispatch, 1, us(30), us(60));
            },
            &[9],
            &[9],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("vote wait"), "{v:?}");
    }

    #[test]
    fn r3_convicts_admission_overlapping_the_txn_body() {
        let dm = TraceNode::middleware(0);
        let v = violations_of(
            |t| {
                t.leaf_window(4, dm, SpanKind::Admission, 0, us(0), us(100));
                let root = t.start_root_at(4, dm, SpanKind::Txn, 0, us(50));
                t.end(root);
            },
            &[4],
            &[4],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("admission queue"), "{v:?}");
    }

    #[test]
    fn r4_convicts_recovery_without_durable_evidence() {
        let dm = TraceNode::middleware(0);
        let v = violations_of(
            |t| {
                t.leaf_window(11, dm, SpanKind::Recovery, 0, us(5), us(15));
            },
            &[], // no WAL record anywhere for gtrid 11
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no durable branch record"), "{v:?}");
    }

    #[test]
    fn r5_convicts_unresolved_parents_and_spans_left_open() {
        let dm = TraceNode::middleware(0);
        let foreign = TraceNode::data_source(2);
        let v = violations_of(
            |t| {
                // A parent triple recorded on another collector: the local
                // span set cannot resolve it.
                let other = Tracer::new();
                let remote = other.start_root(3, foreign, SpanKind::AgentExec, 0);
                t.start_scoped_under(3, dm, SpanKind::Round, 0, Some(remote));
                // And the Round span above is still open for a concluded txn.
            },
            &[3],
            &[3],
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("unresolved parent"), "{v:?}");
        assert!(v[1].contains("still open"), "{v:?}");
    }

    #[test]
    fn r5_exempts_open_spans_of_indeterminate_txns() {
        let dm = TraceNode::middleware(0);
        let v = violations_of(
            |t| {
                t.start_root(6, dm, SpanKind::Txn, 0);
            },
            &[6],
            &[], // coordinator crashed: gtrid 6 never concluded
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_correct_commit_trace_is_clean() {
        let dm = TraceNode::middleware(0);
        let v = violations_of(
            |t| {
                t.leaf_window(1, dm, SpanKind::Admission, 0, us(0), us(5));
                let root = t.start_root_at(1, dm, SpanKind::Txn, 0, us(10));
                t.leaf_window(1, dm, SpanKind::VoteWait, 0, us(20), us(30));
                t.leaf_window(1, dm, SpanKind::LogFlush, 0, us(30), us(40));
                t.leaf_window(1, dm, SpanKind::CommitDispatch, 2, us(40), us(60));
                t.end(root);
                t.leaf_window(1, dm, SpanKind::Recovery, 0, us(80), us(90));
            },
            &[1],
            &[1],
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
