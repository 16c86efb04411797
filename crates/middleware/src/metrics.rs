//! Per-transaction outcomes and middleware-level aggregate statistics.

use std::time::Duration;

/// Why a transaction did not commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The geo-scheduler's late transaction scheduling refused admission.
    AdmissionRejected,
    /// A statement failed (lock timeout, missing key, ...).
    ExecutionFailed,
    /// At least one participant voted no in the prepare phase.
    PrepareFailed,
    /// The client asked for a rollback.
    ClientRollback,
    /// The coordinating middleware crashed while the transaction was in
    /// flight; the client's connection dropped with no outcome. In-doubt
    /// branches are resolved by failure recovery.
    CoordinatorCrashed,
    /// The coordinating middleware was fenced: its lease expired, a peer
    /// sealed its commit log and data sources reject its epoch, so it can no
    /// longer decide anything. The transaction definitely did not commit (no
    /// decision was durable before the fence); its branches are finished by
    /// the adopting peer's recovery.
    CoordinatorFenced,
    /// The client's connection dropped mid-transaction (a crashed or
    /// abandoned session). The middleware noticed the disconnect and rolled
    /// the in-flight branches back, like a real proxy reacting to a TCP
    /// reset. The client, having vanished, never sees this outcome — it
    /// exists for the coordinator's own bookkeeping.
    ClientDisconnected,
    /// The coordinator shed the request at admission: its worker pool was
    /// saturated and the bounded wait queue was full (or the queue-time
    /// deadline expired before a permit freed up). No transaction ever
    /// started (`gtrid == 0`); the outcome carries a retry-after hint and the
    /// client should back off before re-submitting.
    Overloaded,
    /// The session was reaped by the idle-session reaper: the registry no
    /// longer knows this session, so the `begin` was rejected cleanly. The
    /// client reconnects (which re-registers the session) and retries; the
    /// cluster front door does this transparently on the next `begin`.
    SessionExpired,
}

/// Every abort reason, in declaration order. Collectors index breakdown
/// arrays with [`AbortReason::ordinal`], which points into this list.
pub const ABORT_REASONS: [AbortReason; 9] = [
    AbortReason::AdmissionRejected,
    AbortReason::ExecutionFailed,
    AbortReason::PrepareFailed,
    AbortReason::ClientRollback,
    AbortReason::CoordinatorCrashed,
    AbortReason::CoordinatorFenced,
    AbortReason::ClientDisconnected,
    AbortReason::Overloaded,
    AbortReason::SessionExpired,
];

impl AbortReason {
    /// Stable machine-readable label (used as a metric label).
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::AdmissionRejected => "admission_rejected",
            AbortReason::ExecutionFailed => "execution_failed",
            AbortReason::PrepareFailed => "prepare_failed",
            AbortReason::ClientRollback => "client_rollback",
            AbortReason::CoordinatorCrashed => "coordinator_crashed",
            AbortReason::CoordinatorFenced => "coordinator_fenced",
            AbortReason::ClientDisconnected => "client_disconnected",
            AbortReason::Overloaded => "overloaded",
            AbortReason::SessionExpired => "session_expired",
        }
    }

    /// Index into [`ABORT_REASONS`]-shaped accumulation arrays: the
    /// declaration order, which that list follows.
    pub fn ordinal(self) -> usize {
        self as usize
    }
}

/// Where a committed transaction's latency went. The fields mirror the
/// breakdown reported in the paper's Fig. 6c.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Time spent waiting in a coordinator's bounded admission queue before
    /// `begin` was granted a worker permit. Zero when admission is unbounded
    /// (the legacy behaviour) or the permit was free on arrival.
    pub queue_time: Duration,
    /// Parsing, routing and scheduling work at the middleware.
    pub analysis: Duration,
    /// Execution phase: dispatching rounds and waiting for their results
    /// (includes the scheduler's postpone time and WAN round trips).
    pub execution: Duration,
    /// Waiting for prepare votes after the client issued commit.
    pub prepare_wait: Duration,
    /// Flushing the commit/abort log.
    pub log_flush: Duration,
    /// Dispatching the final decision and collecting acknowledgements.
    pub commit: Duration,
    /// Client↔middleware network hops (session front door only: one
    /// round trip per statement round, plus the begin and commit hops).
    /// Zero for co-located clients and for the one-shot spec path, which
    /// never models the client link.
    pub client_rtt: Duration,
    /// Client think time between statement rounds (interactive sessions
    /// only). Part of the end-to-end latency a terminal observes, but not of
    /// the middleware's service time.
    pub think_time: Duration,
}

impl LatencyBreakdown {
    /// Total latency across all phases.
    pub fn total(&self) -> Duration {
        self.queue_time
            + self.analysis
            + self.execution
            + self.prepare_wait
            + self.log_flush
            + self.commit
            + self.client_rtt
            + self.think_time
    }
}

/// The outcome of one transaction as observed by the client.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TxnOutcome {
    /// The global transaction id the coordinator assigned (0 when the
    /// transaction never got far enough to be assigned one, e.g. a script
    /// that ends in ROLLBACK). Failure-drill harnesses use this to tie a
    /// client-observed outcome to the durable commit-log decision and the
    /// per-branch WAL records.
    pub gtrid: u64,
    /// Whether the transaction committed.
    pub committed: bool,
    /// Why it aborted, if it did.
    pub abort_reason: Option<AbortReason>,
    /// End-to-end latency seen by the client.
    pub latency: Duration,
    /// Phase breakdown.
    pub breakdown: LatencyBreakdown,
    /// Whether the transaction touched more than one data source.
    pub distributed: bool,
    /// Rows returned by read operations (in execution order).
    pub rows: Vec<geotp_storage::Row>,
    /// When the backend shed this request ([`AbortReason::Overloaded`]), how
    /// long it suggests the client wait before retrying. `None` for every
    /// other outcome.
    pub retry_after: Option<Duration>,
    /// Whether the transaction committed through the read-only snapshot fast
    /// path: no prepare, no decision flush, no branch WAL flush. A read-only
    /// commit needs no durable decision — durability checkers must not demand
    /// one.
    pub read_only: bool,
}

impl TxnOutcome {
    /// An aborted outcome with the given reason and latency.
    pub fn aborted(reason: AbortReason, latency: Duration, distributed: bool) -> Self {
        Self {
            committed: false,
            abort_reason: Some(reason),
            latency,
            distributed,
            ..Self::default()
        }
    }

    /// Whether this outcome is a *refused connection*: no transaction ever
    /// started (`gtrid == 0`) because no live coordinator accepted the
    /// session's `begin`. Drivers and harnesses retry these with a backoff
    /// and keep them out of per-transaction ledgers — this is the single
    /// definition every caller should use.
    pub fn is_refusal(&self) -> bool {
        self.gtrid == 0 && self.abort_reason == Some(AbortReason::CoordinatorCrashed)
    }

    /// Whether this outcome is an *overload shed*: admission control rejected
    /// the request before a transaction started. Like a refusal, no
    /// transaction exists (`gtrid == 0`); unlike a refusal, the backend is
    /// alive and telling the client to back off ([`TxnOutcome::retry_after`]).
    pub fn is_overloaded(&self) -> bool {
        self.abort_reason == Some(AbortReason::Overloaded)
    }
}

/// Aggregate statistics kept by one middleware instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiddlewareStats {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Aborts caused by admission rejection (O3's late scheduling).
    pub admission_rejections: u64,
    /// Aborts caused by execution failures (lock timeouts etc.).
    pub execution_failures: u64,
    /// Aborts caused by failed prepare votes.
    pub prepare_failures: u64,
    /// Committed distributed transactions.
    pub distributed_committed: u64,
    /// Sum of the scheduler postpone durations applied (microseconds).
    pub total_postpone_micros: u64,
    /// Transactions that used the decentralized prepare path.
    pub decentralized_prepares: u64,
    /// Branches whose commit dispatch failed *after* the commit decision was
    /// durably flushed (participant crashed or unreachable). The transaction
    /// is still reported committed — the decision is durable — and the branch
    /// is finished later by failure recovery.
    pub commits_deferred_to_recovery: u64,
    /// Transactions whose prepare-vote or rollback-confirmation wait hit the
    /// decision-wait timeout (a participant crashed or was partitioned away).
    pub decision_wait_timeouts: u64,
}

impl MiddlewareStats {
    /// Record an outcome into the aggregate counters.
    pub fn record(&mut self, outcome: &TxnOutcome) {
        if outcome.committed {
            self.committed += 1;
            if outcome.distributed {
                self.distributed_committed += 1;
            }
        } else {
            self.aborted += 1;
            match outcome.abort_reason {
                Some(AbortReason::AdmissionRejected) => self.admission_rejections += 1,
                Some(AbortReason::ExecutionFailed) => self.execution_failures += 1,
                Some(AbortReason::PrepareFailed) => self.prepare_failures += 1,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_phases() {
        let b = LatencyBreakdown {
            queue_time: Duration::from_millis(5),
            analysis: Duration::from_millis(1),
            execution: Duration::from_millis(70),
            prepare_wait: Duration::from_millis(3),
            log_flush: Duration::from_millis(1),
            commit: Duration::from_millis(63),
            client_rtt: Duration::from_millis(6),
            think_time: Duration::from_millis(4),
        };
        assert_eq!(b.total(), Duration::from_millis(153));
    }

    #[test]
    fn stats_record_and_derive() {
        let mut stats = MiddlewareStats::default();
        stats.record(&TxnOutcome {
            gtrid: 1,
            committed: true,
            abort_reason: None,
            latency: Duration::from_millis(100),
            breakdown: LatencyBreakdown::default(),
            distributed: true,
            rows: vec![],
            ..TxnOutcome::default()
        });
        stats.record(&TxnOutcome::aborted(
            AbortReason::ExecutionFailed,
            Duration::from_millis(20),
            false,
        ));
        stats.record(&TxnOutcome::aborted(
            AbortReason::AdmissionRejected,
            Duration::from_millis(1),
            true,
        ));
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.aborted, 2);
        assert_eq!(stats.execution_failures, 1);
        assert_eq!(stats.admission_rejections, 1);
        assert_eq!(stats.distributed_committed, 1);
    }

    #[test]
    fn abort_reason_ordinals_are_dense_and_stable() {
        for (i, reason) in ABORT_REASONS.iter().enumerate() {
            assert_eq!(reason.ordinal(), i);
        }
        assert_eq!(AbortReason::AdmissionRejected.label(), "admission_rejected");
        assert_eq!(AbortReason::SessionExpired.label(), "session_expired");
    }
}
