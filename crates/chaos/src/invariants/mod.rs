//! Transaction-invariant checkers run over the post-chaos cluster.
//!
//! Four invariants, matching what the paper's protocol promises:
//!
//! * **Atomicity** — no global transaction ends with one branch committed
//!   and another aborted. Checked two ways: structurally, by scanning every
//!   engine's WAL for cross-branch `Commit`/`Abort` disagreement, and
//!   observationally, through the workload's own consistency conditions
//!   (balance conservation for transfers; warehouse/district/order/stock
//!   agreement for TPC-C — every committed transaction preserves them, so
//!   drift convicts a partial commit).
//! * **Durability** — every transaction whose commit is decided (the client
//!   saw `committed`, or the durable commit log says `Commit` for an
//!   outcome the coordinator crash made indeterminate) has a `Commit`
//!   record in the WAL of *every* branch that participated, after all
//!   crashes, restarts and recoveries. And the client is never told
//!   `committed` unless the decision really is durable.
//! * **Liveness** — the workload drained within the virtual-clock horizon,
//!   and after the final heal + recovery pass no branch is left prepared
//!   -but-undecided anywhere.
//! * **Serializability** — the committed transactions admit a serial order:
//!   the engines' versioned read/write histories produce an acyclic
//!   dependency graph and every read observed a real committed version
//!   (Elle-lite; see [`serializability`]).
//!
//! The checkers read only durable artifacts (WALs, the commit log, the
//! record stores) plus the engines' observer-side histories — not
//! coordinator in-memory state — so they hold across arbitrary failover
//! histories.
//!
//! A fifth, *trace-based* oracle lives in [`trace`]: when a run is traced,
//! it checks the protocol's happens-before rules (log flush before commit
//! dispatch, vote collection before decision, admission before txn body,
//! recovery only with durable evidence, well-formed span trees) over the
//! telemetry span record, catching ordering bugs that leave durably
//! correct state.

pub mod serializability;
pub mod trace;

use std::rc::Rc;

use geotp_datasource::DataSource;
use geotp_middleware::{Decision, TxnOutcome};
use geotp_simrt::hash::FxHashMap;
use geotp_storage::wal::LogRecord;
use geotp_storage::{BranchHistory, Key};

pub use serializability::SerializabilityReport;

/// Verdict of the four checkers, with human-readable violations.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// No transaction with both a committed and an aborted branch; the
    /// workload's consistency conditions hold over final state.
    pub atomicity_ok: bool,
    /// Decided-committed state survived every crash and is durable on every
    /// participating branch.
    pub durability_ok: bool,
    /// Nothing stuck: workload drained inside the horizon and no in-doubt
    /// branch remains after the final recovery.
    pub liveness_ok: bool,
    /// The committed transactions admit a serial order and every read
    /// observed a committed version.
    pub serializability_ok: bool,
    /// The telemetry span record obeys the protocol's happens-before rules
    /// (see [`trace`]). Vacuously `true` on untraced runs — [`check`] sets
    /// it and [`trace::apply`] can only lower it.
    pub trace_ok: bool,
    /// One line per violation (empty when everything holds).
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// Whether every invariant held.
    pub fn all_hold(&self) -> bool {
        self.atomicity_ok
            && self.durability_ok
            && self.liveness_ok
            && self.serializability_ok
            && self.trace_ok
    }
}

/// Per-gtrid branch decisions harvested from the WALs.
#[derive(Default)]
struct BranchDecisions {
    commits: Vec<u32>,
    aborts: Vec<u32>,
    /// Branches with a durable `Prepare` record (distinguishes real 2PC
    /// in-doubt state from one-phase commits, which never prepare).
    prepares: Vec<u32>,
}

/// Run every checker.
///
/// * `workload_violations` — lazily computes the workload's own state-level
///   consistency verdict (see `ChaosWorkload::consistency_violations`);
///   folded into atomicity. Lazy because on an undrained run the final
///   state is noise and the (potentially table-scanning) check is skipped
///   wholesale.
/// * `declared_writes` — the keys each committed gtrid's spec writes, as
///   the client submitted them; cross-checked against the keys the engines
///   installed.
/// * `decision_of` — the durable decision for a gtrid. A single-coordinator
///   harness passes its one commit log's lookup; a cluster harness resolves
///   the gtrid's *owner* first and reads that coordinator's log, so the
///   durability check holds across the whole tier.
/// * `workload_drained` — the harness's horizon verdict; when `false` the
///   cluster may still have transactions in flight, so the state-based
///   checks are skipped (they could only report noise) and liveness is the
///   reported failure.
pub fn check(
    sources: &[Rc<DataSource>],
    workload_violations: impl FnOnce() -> Vec<String>,
    ledger: &[TxnOutcome],
    declared_writes: &FxHashMap<u64, Vec<Key>>,
    decision_of: impl Fn(u64) -> Option<Decision>,
    workload_drained: bool,
) -> InvariantReport {
    let mut report = InvariantReport {
        atomicity_ok: true,
        durability_ok: true,
        liveness_ok: true,
        serializability_ok: true,
        trace_ok: true,
        violations: Vec::new(),
    };

    if !workload_drained {
        report.liveness_ok = false;
        report
            .violations
            .push("liveness: workload did not drain within the horizon".into());
        return report;
    }

    // ---------------- liveness: no in-doubt or abandoned branch anywhere ----------------
    for ds in sources {
        let prepared = ds.engine().prepared_xids();
        if !prepared.is_empty() {
            report.liveness_ok = false;
            report.violations.push(format!(
                "liveness: ds{} still has prepared-but-undecided branches after recovery: {prepared:?}",
                ds.index()
            ));
        }
        // ACTIVE/ENDED leftovers are worse than prepared ones: they are
        // invisible to `XA RECOVER`, so nothing will ever finish them — an
        // abandoned branch holds its locks and uncommitted writes forever.
        let unfinished = ds.engine().unfinished_xids();
        if !unfinished.is_empty() {
            report.liveness_ok = false;
            report.violations.push(format!(
                "liveness: ds{} has abandoned (never-prepared, never-finished) branches: {unfinished:?}",
                ds.index()
            ));
        }
    }

    // ---------------- harvest per-branch decisions from the WALs ----------------
    let mut decisions: FxHashMap<u64, BranchDecisions> = FxHashMap::default();
    for ds in sources {
        for record in ds.engine().wal().all_records() {
            match record {
                LogRecord::Commit(xid) => decisions
                    .entry(xid.gtrid)
                    .or_default()
                    .commits
                    .push(ds.index()),
                LogRecord::Abort(xid) => decisions
                    .entry(xid.gtrid)
                    .or_default()
                    .aborts
                    .push(ds.index()),
                LogRecord::Prepare(xid) => decisions
                    .entry(xid.gtrid)
                    .or_default()
                    .prepares
                    .push(ds.index()),
                _ => {}
            }
        }
    }

    // ---------------- atomicity: no mixed Commit/Abort branches ----------------
    for (gtrid, d) in &decisions {
        if !d.commits.is_empty() && !d.aborts.is_empty() {
            report.atomicity_ok = false;
            report.violations.push(format!(
                "atomicity: gtrid {gtrid} committed on ds{:?} but aborted on ds{:?}",
                d.commits, d.aborts
            ));
        }
    }

    // ---------------- atomicity: the workload's consistency conditions ----------------
    for violation in workload_violations() {
        report.atomicity_ok = false;
        report.violations.push(format!("atomicity: {violation}"));
    }

    // ---------------- durability ----------------
    // Everything that *must* be durably committed: outcomes the client saw
    // commit, plus indeterminate outcomes whose durable decision is Commit.
    for outcome in ledger {
        if outcome.gtrid == 0 {
            continue;
        }
        let logged = decision_of(outcome.gtrid);
        // A read-only commit writes nothing, so there is no decision to make
        // durable: the coordinator never flushes one and the branches never
        // prepare. Losing it on a crash is indistinguishable from it never
        // having run.
        if outcome.committed && outcome.read_only {
            continue;
        }
        if outcome.committed && logged != Some(Decision::Commit) {
            report.durability_ok = false;
            report.violations.push(format!(
                "durability: client saw gtrid {} commit but the durable decision is {logged:?}",
                outcome.gtrid
            ));
            continue;
        }
        // A logged `Commit` only *binds* when the client saw the commit, or
        // when at least one branch durably prepared (2PC in-doubt state that
        // recovery promises to finish). A one-phase commit whose coordinator
        // crashed between flushing the optimistic decision and dispatching it
        // legitimately rolls back: nothing was prepared, nothing was
        // promised, the client got no answer.
        let bound_by_log = logged == Some(Decision::Commit)
            && decisions
                .get(&outcome.gtrid)
                .is_some_and(|d| !d.prepares.is_empty());
        let must_commit = outcome.committed || bound_by_log;
        if !must_commit {
            continue;
        }
        match decisions.get(&outcome.gtrid) {
            None => {
                report.durability_ok = false;
                report.violations.push(format!(
                    "durability: gtrid {} is decided-commit but no branch has any decision record",
                    outcome.gtrid
                ));
            }
            Some(d) => {
                if d.commits.is_empty() {
                    report.durability_ok = false;
                    report.violations.push(format!(
                        "durability: gtrid {} is decided-commit but no branch logged a Commit",
                        outcome.gtrid
                    ));
                }
                // Mixed branches are already an atomicity violation; for
                // durability it is enough that every branch that produced
                // records reached Commit (aborts on a decided-commit
                // transaction are caught above).
                if !d.aborts.is_empty() {
                    report.durability_ok = false;
                    report.violations.push(format!(
                        "durability: gtrid {} is decided-commit but ds{:?} aborted the branch",
                        outcome.gtrid, d.aborts
                    ));
                }
            }
        }
    }

    // ---------------- serializability (Elle-lite over engine histories) ----------------
    let mut histories: Vec<BranchHistory> = Vec::new();
    let mut base_fingerprints: FxHashMap<Key, u64> = FxHashMap::default();
    for ds in sources {
        histories.extend(ds.engine().committed_history());
        // Keys are partitioned, so the per-engine maps never conflict.
        base_fingerprints.extend(ds.engine().base_fingerprints());
    }
    let serializability = serializability::check(&histories, &base_fingerprints);
    if !serializability.ok {
        report.serializability_ok = false;
        report.violations.extend(serializability.violations);
    }

    // ---------------- declared vs observed write sets ----------------
    // The client's spec declares the transaction's write keys; the engines
    // recorded what was actually installed. For a committed transaction the
    // two must match exactly: a declared write the engines never saw is a
    // lost write, an observed write the client never declared is a phantom.
    let mut observed_writes: FxHashMap<u64, Vec<Key>> = FxHashMap::default();
    for branch in &histories {
        observed_writes
            .entry(branch.xid.gtrid)
            .or_default()
            .extend(branch.writes.iter().map(|w| w.key));
    }
    for outcome in ledger.iter().filter(|o| o.committed) {
        let mut declared = declared_writes
            .get(&outcome.gtrid)
            .cloned()
            .unwrap_or_default();
        declared.sort();
        declared.dedup();
        let mut observed = observed_writes.remove(&outcome.gtrid).unwrap_or_default();
        observed.sort();
        if declared != observed {
            report.serializability_ok = false;
            report.violations.push(format!(
                "write-set: gtrid {} declared writes {declared:?} but the engines \
                 recorded {observed:?}",
                outcome.gtrid
            ));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_datasource::DataSourceConfig;
    use geotp_middleware::GlobalKey;
    use geotp_net::{NetworkBuilder, NodeId};
    use geotp_simrt::Runtime;
    use geotp_storage::{Row, TableId, Xid};

    fn key(row: u64) -> Key {
        GlobalKey::new(TableId(0), row).storage_key()
    }

    /// Every checker's verdict on one history-recording data source where
    /// gtrid 1 committed a write to key 1, while the client's spec declared
    /// `declared` as its writes.
    fn verdict_with_declared_writes(declared: &[Key]) -> InvariantReport {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1).build();
            let mut cfg = DataSourceConfig::new(NodeId::data_source(0));
            cfg.engine.record_history = true;
            let ds = DataSource::new(cfg, net);
            for row in 0..3 {
                ds.load(key(row), Row::int(0));
            }
            let engine = ds.engine();
            let xid = Xid::new(1, 0);
            engine.begin(xid).unwrap();
            engine.write(xid, key(1), Row::int(7)).await.unwrap();
            engine.end(xid).unwrap();
            engine.commit(xid, true).await.unwrap();
            let committed = TxnOutcome {
                gtrid: 1,
                committed: true,
                ..TxnOutcome::default()
            };
            let declared = FxHashMap::from_iter([(1, declared.to_vec())]);
            let commit = |_| Some(Decision::Commit);
            check(&[ds], Vec::new, &[committed], &declared, commit, true)
        })
    }

    fn assert_write_set_convicted(report: &InvariantReport) {
        assert!(!report.serializability_ok, "{:?}", report.violations);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.starts_with("write-set:")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn declared_write_set_matching_the_engines_is_green() {
        // Declared twice: the checker dedups the spec's keys.
        let report = verdict_with_declared_writes(&[key(1), key(1)]);
        assert!(report.all_hold(), "{:?}", report.violations);
    }

    #[test]
    fn write_set_check_convicts_a_lost_write() {
        // Key 2 was declared, but no engine ever installed it.
        assert_write_set_convicted(&verdict_with_declared_writes(&[key(1), key(2)]));
    }

    #[test]
    fn write_set_check_convicts_a_phantom_write() {
        // Key 1 was installed, but the spec never declared it.
        assert_write_set_convicted(&verdict_with_declared_writes(&[]));
    }
}
