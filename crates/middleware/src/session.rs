//! The session-first client front door.
//!
//! The paper's middleware is *interactive*: clients hold sessions and ship
//! statements one round at a time, and GeoTP's latency-aware scheduling and
//! decentralized prepare act on that statement stream. This module is the
//! client-facing API for that reality, uniform over every interactive backend
//! in the workspace (the GeoTP middleware, the coordinator cluster tier and
//! the ScalarDB-style baseline; the distributed-database baseline ships whole
//! statement buffers and has only the one-shot door):
//!
//! * [`SessionService`] — anything a client can `connect` a [`Session`] to;
//! * [`Session`] — one client connection: [`Session::begin`] live
//!   transactions, or replay a whole [`TransactionSpec`] as a statement
//!   stream with [`Session::run_spec`] (the coordinator learns it round by
//!   round; [`Middleware::run_transaction`](crate::Middleware::run_transaction)
//!   is the same live path with the spec declared up front);
//! * [`Txn`] — a live transaction handle: [`Txn::execute`] ships one
//!   statement round, [`Txn::execute_last`] carries the paper's `/*+ last */`
//!   annotation (triggering the decentralized prepare at the end of that
//!   round), [`Txn::commit`] / [`Txn::rollback`] conclude it, and dropping
//!   the handle without concluding models a **mid-transaction client crash**
//!   — the backend notices the lost connection and rolls the orphaned
//!   branches back, like a real proxy reacting to a TCP reset.
//!
//! Statement rounds travel over the simulated network: a session built with
//! a remote client placement (e.g.
//! [`Middleware::session_service_from`](crate::Middleware::session_service_from))
//! pays one client↔middleware round trip per `begin`/round/`commit`, and
//! that time lands in
//! [`LatencyBreakdown::client_rtt`](crate::LatencyBreakdown::client_rtt);
//! client think time injected with [`Txn::think`] lands in
//! [`LatencyBreakdown::think_time`](crate::LatencyBreakdown::think_time).
//! Co-located sessions (the default) pay nothing.
//!
//! ```
//! use geotp_middleware::session::SessionService;
//! use geotp_middleware::{ClientOp, GlobalKey, Middleware, MiddlewareConfig, Partitioner, Protocol};
//! use geotp_datasource::{DataSource, DataSourceConfig};
//! use geotp_net::{NetworkBuilder, NodeId};
//! use geotp_storage::{Row, TableId};
//! use std::rc::Rc;
//! use std::time::Duration;
//!
//! let mut rt = geotp_simrt::Runtime::new();
//! rt.block_on(async {
//!     let dm = NodeId::middleware(0);
//!     let net = NetworkBuilder::new(1)
//!         .static_link(dm, NodeId::data_source(0), Duration::from_millis(10))
//!         .build();
//!     let ds = DataSource::new(DataSourceConfig::new(NodeId::data_source(0)), Rc::clone(&net));
//!     ds.load(geotp_storage::Key::new(TableId(0), 1), Row::int(100));
//!     let mw = Middleware::connect(
//!         MiddlewareConfig::new(dm, Protocol::geotp(), Partitioner::Range { rows_per_node: 100, nodes: 1 }),
//!         net,
//!         &[ds],
//!         None,
//!     );
//!
//!     // Connect a session, run one interactive transaction.
//!     let mut session = mw.connect(7);
//!     let mut txn = session.begin().await.unwrap();
//!     let round = txn.execute_last(&[ClientOp::add(GlobalKey::new(TableId(0), 1), 5)]).await.unwrap();
//!     assert_eq!(round.rows.len(), 1);
//!     let outcome = txn.commit().await;
//!     assert!(outcome.committed);
//! });
//! ```

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Duration;

use geotp_net::NodeId;
use geotp_simrt::{now, sleep};
use geotp_storage::Row;
use rand::rngs::StdRng;
use rand::Rng;

use crate::coordinator::{LiveTxn, Middleware};
use crate::metrics::{AbortReason, TxnOutcome};
use crate::ops::{ClientOp, TransactionSpec};
use crate::parser::{ParseError, TxnControl};

/// Boxed future alias used by the object-safe session traits.
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Why a session-level operation failed, with the client-visible aborted
/// outcome attached (so drivers and ledgers can record it uniformly).
#[derive(Debug, Clone, PartialEq)]
pub struct TxnError {
    /// The abort reason, mirrored from [`TxnError::outcome`].
    pub reason: AbortReason,
    /// Whether the client should retry (re-`begin` on the same session): the
    /// coordinator crashed or was fenced mid-transaction and the session will
    /// be re-routed / served by a successor. Definite aborts (execution
    /// failure, admission rejection) are not marked retryable — the
    /// *workload* may retry those, but the session layer has no opinion.
    pub retryable: bool,
    /// The aborted outcome as a client-side ledger should record it. A
    /// refused connection (`gtrid == 0`, [`AbortReason::CoordinatorCrashed`])
    /// never started a transaction.
    pub outcome: TxnOutcome,
}

impl TxnError {
    /// A refused connection: no live backend would accept the session's
    /// `begin`. Always retryable.
    pub fn refused() -> Self {
        Self {
            reason: AbortReason::CoordinatorCrashed,
            retryable: true,
            outcome: TxnOutcome::aborted(AbortReason::CoordinatorCrashed, Duration::ZERO, false),
        }
    }

    /// Wrap an aborted outcome.
    pub fn aborted(outcome: TxnOutcome, retryable: bool) -> Self {
        Self {
            reason: outcome.abort_reason.unwrap_or(AbortReason::ExecutionFailed),
            retryable,
            outcome,
        }
    }

    /// An overload shed: admission control rejected the `begin` (bounded
    /// queue full or queue-time deadline expired) before any transaction
    /// started. Retryable after the supplied retry-after backoff.
    pub fn overloaded(retry_after: Duration) -> Self {
        let mut outcome = TxnOutcome::aborted(AbortReason::Overloaded, Duration::ZERO, false);
        outcome.retry_after = Some(retry_after);
        Self {
            reason: AbortReason::Overloaded,
            retryable: true,
            outcome,
        }
    }

    /// The session was reaped by the idle-session reaper. Retryable: the
    /// client reconnects (re-registering the session) and begins again.
    pub fn session_expired() -> Self {
        Self {
            reason: AbortReason::SessionExpired,
            retryable: true,
            outcome: TxnOutcome::aborted(AbortReason::SessionExpired, Duration::ZERO, false),
        }
    }

    /// Whether this error is a refused connection (the transaction never
    /// started; the session should back off and re-`begin`).
    pub fn is_refused(&self) -> bool {
        self.outcome.gtrid == 0 && self.reason == AbortReason::CoordinatorCrashed
    }

    /// Whether this error is an overload shed (see [`TxnOutcome::is_overloaded`]).
    pub fn is_overloaded(&self) -> bool {
        self.reason == AbortReason::Overloaded
    }
}

/// Session-level retry policy: a budget of attempts with capped exponential
/// backoff and seeded jitter. The jitter is drawn from the caller's RNG
/// stream, so every retry schedule is a pure function of the run's seed and
/// fingerprints stay bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` means never retry.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry thereafter.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff (pre-jitter).
    pub max_backoff: Duration,
    /// Jitter width as a fraction of the backoff: the slept pause is
    /// uniformly drawn from `backoff * [1 - jitter/2, 1 + jitter/2)`. Zero
    /// disables jitter (and draws nothing from the RNG stream).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A fixed-interval policy with no jitter — every retry waits exactly
    /// `backoff`. This reproduces the legacy harness behaviour (and consumes
    /// no RNG), so pre-existing chaos fingerprints are unchanged.
    pub const fn fixed(max_attempts: u32, backoff: Duration) -> Self {
        Self {
            max_attempts,
            base_backoff: backoff,
            max_backoff: backoff,
            jitter: 0.0,
        }
    }

    /// The pause before retry number `retry` (0-based): exponential from
    /// `base_backoff`, capped at `max_backoff`, jittered from `rng`.
    pub fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        let exp = retry.min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        if self.jitter <= 0.0 {
            return raw;
        }
        let factor = 1.0 - self.jitter / 2.0 + self.jitter * rng.gen::<f64>();
        Duration::from_secs_f64(raw.as_secs_f64() * factor)
    }

    /// Whether the session layer may retry this outcome. True for refused
    /// connections, overload sheds, expired sessions and fenced coordinators
    /// (all *definite* non-commits); never true for an indeterminate
    /// coordinator crash (`gtrid != 0`, outcome unknown — retrying could
    /// double-apply).
    pub fn should_retry(outcome: &TxnOutcome) -> bool {
        outcome.is_refusal()
            || matches!(
                outcome.abort_reason,
                Some(AbortReason::Overloaded)
                    | Some(AbortReason::SessionExpired)
                    | Some(AbortReason::CoordinatorFenced)
            )
    }
}

/// What [`Session::run_spec_with_retries`] observed: the final outcome plus
/// how the retry budget was spent.
#[derive(Debug, Clone, PartialEq)]
pub struct RetriedOutcome {
    /// The last attempt's outcome (committed, or the abort that exhausted the
    /// budget — the original abort reason survives retry exhaustion).
    pub outcome: TxnOutcome,
    /// Attempts made (1 = first try succeeded or was not retryable).
    pub attempts: u32,
    /// Total backoff slept between attempts.
    pub backoff: Duration,
}

/// The client-observed result of one statement round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundResult {
    /// Rows returned by the round's read operations, in operation order.
    pub rows: Vec<Row>,
    /// Client-observed latency of the round (client↔service hops included).
    pub latency: Duration,
}

/// A parsed SQL script, as the session front door executes it (and as the
/// middleware's bounded parse cache stores it).
#[derive(Clone)]
pub enum SqlScript {
    /// The script runs this transaction (one statement per round).
    Run(Rc<TransactionSpec>),
    /// The script ends in ROLLBACK (or contains no operations).
    Rollback,
}

/// Anything a client can connect a [`Session`] to. Implemented by the GeoTP
/// middleware, the coordinator cluster and the ScalarDB baseline.
pub trait SessionService {
    /// Open a client session. Sessions are the unit of routing affinity in
    /// clustered deployments; `session_id` identifies the client connection.
    fn connect(&self, session_id: u64) -> Session;

    /// Display name used in experiment tables.
    fn label(&self) -> String {
        "service".to_string()
    }
}

/// The server side of one session — produces live transaction handles.
/// Backends implement this; clients use the [`Session`] wrapper.
pub trait SessionLink {
    /// Start a transaction on this session.
    fn begin<'a>(&'a mut self) -> BoxFuture<'a, Result<Box<dyn TxnHandle>, TxnError>>;

    /// Parse a SQL script into an executable plan. Backends without a SQL
    /// front door return a parse error.
    fn parse_sql(&self, script: &str) -> Result<SqlScript, ParseError> {
        Err(ParseError {
            message: "this backend has no SQL front door".to_string(),
            statement: script.to_string(),
        })
    }
}

/// The server side of one live transaction. Backends implement this; clients
/// use the [`Txn`] wrapper, which also supplies the connection-loss cleanup
/// on drop.
pub trait TxnHandle {
    /// Execute one statement round. `last` carries the `/*+ last */`
    /// annotation: backends with a decentralized prepare trigger it at the
    /// end of this round.
    fn execute<'a>(
        &'a mut self,
        ops: &'a [ClientOp],
        last: bool,
    ) -> BoxFuture<'a, Result<RoundResult, TxnError>>;

    /// Execute one SQL statement (honouring a `/*+ last */` annotation).
    /// Backends without a SQL front door abort the transaction.
    fn execute_sql<'a>(
        &'a mut self,
        statement: &'a str,
    ) -> BoxFuture<'a, Result<RoundResult, TxnError>> {
        let _ = statement;
        Box::pin(async {
            Err(TxnError {
                reason: AbortReason::ExecutionFailed,
                retryable: false,
                outcome: TxnOutcome::aborted(AbortReason::ExecutionFailed, Duration::ZERO, false),
            })
        })
    }

    /// Record client think time (already slept by the caller) so it lands in
    /// the latency breakdown.
    fn note_think(&mut self, _thought: Duration) {}

    /// Record time this transaction's `begin` spent in an admission queue
    /// (already elapsed at an outer layer, e.g. the cluster front door) so it
    /// lands in [`LatencyBreakdown::queue_time`](crate::LatencyBreakdown::queue_time)
    /// and the end-to-end latency.
    fn note_queue_time(&mut self, _queued: Duration) {}

    /// Commit the transaction.
    fn commit(self: Box<Self>) -> BoxFuture<'static, TxnOutcome>;

    /// Roll the transaction back at the client's request.
    fn rollback(self: Box<Self>) -> BoxFuture<'static, TxnOutcome>;

    /// The client's connection dropped mid-transaction: clean up without an
    /// outcome (nobody is listening).
    fn abandon(self: Box<Self>);

    /// The global transaction id, `0` if none was assigned.
    fn gtrid(&self) -> u64;
}

/// One client session: a sequence of transactions against a
/// [`SessionService`], with routing affinity in clustered deployments.
pub struct Session {
    id: u64,
    label: String,
    link: Box<dyn SessionLink>,
}

impl Session {
    /// Assemble a session from a backend link (used by [`SessionService`]
    /// implementations).
    pub fn from_link(id: u64, label: impl Into<String>, link: Box<dyn SessionLink>) -> Self {
        Self {
            id,
            label: label.into(),
            link,
        }
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The backend's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Begin a live transaction.
    pub async fn begin(&mut self) -> Result<Txn, TxnError> {
        let handle = self.link.begin().await?;
        Ok(Txn {
            handle: Some(handle),
        })
    }

    /// Replay a whole [`TransactionSpec`] as a statement stream: begin, one
    /// `execute` per round (the final round carries the spec's `/*+ last */`
    /// annotation), commit. The backend sees what an interactive client
    /// would send — no round is known before it arrives.
    pub async fn run_spec(&mut self, spec: &TransactionSpec) -> TxnOutcome {
        self.run_spec_thinking(spec, Duration::ZERO).await
    }

    /// [`Session::run_spec`] with client think time between statement rounds
    /// — the interactive terminal the paper's workloads model.
    pub async fn run_spec_thinking(
        &mut self,
        spec: &TransactionSpec,
        think_time: Duration,
    ) -> TxnOutcome {
        let mut txn = match self.begin().await {
            Ok(txn) => txn,
            Err(refused) => return refused.outcome,
        };
        let mut rows = Vec::new();
        let rounds = spec.rounds.len();
        for (idx, round) in spec.rounds.iter().enumerate() {
            if idx > 0 && !think_time.is_zero() {
                txn.think(think_time).await;
            }
            let last = spec.annotate_last && idx + 1 == rounds;
            match txn.execute_round(round, last).await {
                Ok(mut result) => rows.append(&mut result.rows),
                Err(error) => return error.outcome,
            }
        }
        let mut outcome = txn.commit().await;
        if outcome.committed && outcome.rows.is_empty() {
            // Interactive backends return rows per round; restore the
            // one-shot contract for replayed specs.
            outcome.rows = rows;
        }
        outcome
    }

    /// [`Session::run_spec_thinking`] under a [`RetryPolicy`]: retryable
    /// non-commits (refused connections, overload sheds, expired sessions,
    /// fenced coordinators — see [`RetryPolicy::should_retry`]) are re-run
    /// after a deterministic backoff until the budget is exhausted. The pause
    /// honours a shed's retry-after hint when it exceeds the policy's own
    /// backoff. Jitter comes from `rng`, so the whole schedule is a function
    /// of the run's seed.
    pub async fn run_spec_with_retries(
        &mut self,
        spec: &TransactionSpec,
        think_time: Duration,
        policy: RetryPolicy,
        rng: &mut StdRng,
    ) -> RetriedOutcome {
        let budget = policy.max_attempts.max(1);
        let mut attempts = 0;
        let mut backoff_total = Duration::ZERO;
        loop {
            attempts += 1;
            let outcome = self.run_spec_thinking(spec, think_time).await;
            if outcome.committed || !RetryPolicy::should_retry(&outcome) || attempts >= budget {
                return RetriedOutcome {
                    outcome,
                    attempts,
                    backoff: backoff_total,
                };
            }
            let mut pause = policy.backoff(attempts - 1, rng);
            if let Some(hint) = outcome.retry_after {
                pause = pause.max(hint);
            }
            sleep(pause).await;
            backoff_total += pause;
        }
    }

    /// Execute a SQL script (BEGIN ... COMMIT) as one transaction through the
    /// live path. Each statement becomes one interactive round; the
    /// `/*+ last */` annotation is honoured.
    pub async fn run_sql(&mut self, script: &str) -> Result<TxnOutcome, ParseError> {
        match self.link.parse_sql(script)? {
            SqlScript::Rollback => Ok(TxnOutcome::aborted(
                AbortReason::ClientRollback,
                Duration::ZERO,
                false,
            )),
            SqlScript::Run(spec) => Ok(self.run_spec(&spec).await),
        }
    }
}

/// A live transaction handle. Obtained from [`Session::begin`]; concluded by
/// [`Txn::commit`] or [`Txn::rollback`]. Dropping the handle without
/// concluding it models a mid-transaction client crash: the backend cleans
/// the orphaned branches up on its own.
pub struct Txn {
    handle: Option<Box<dyn TxnHandle>>,
}

impl Txn {
    fn handle_mut(&mut self) -> &mut Box<dyn TxnHandle> {
        self.handle.as_mut().expect("transaction already concluded")
    }

    /// The global transaction id the backend assigned.
    pub fn gtrid(&self) -> u64 {
        self.handle.as_ref().map(|h| h.gtrid()).unwrap_or(0)
    }

    /// Ship one statement round.
    pub async fn execute(&mut self, ops: &[ClientOp]) -> Result<RoundResult, TxnError> {
        self.execute_round(ops, false).await
    }

    /// Ship the final statement round with the `/*+ last */` annotation,
    /// letting a decentralized-prepare backend start preparing as soon as the
    /// round finishes.
    pub async fn execute_last(&mut self, ops: &[ClientOp]) -> Result<RoundResult, TxnError> {
        self.execute_round(ops, true).await
    }

    /// Ship one round with an explicit `last` flag.
    pub async fn execute_round(
        &mut self,
        ops: &[ClientOp],
        last: bool,
    ) -> Result<RoundResult, TxnError> {
        self.handle_mut().execute(ops, last).await
    }

    /// Execute one SQL statement (a `/*+ last */` annotation on the statement
    /// triggers the decentralized prepare, exactly like [`Txn::execute_last`]).
    pub async fn execute_sql(&mut self, statement: &str) -> Result<RoundResult, TxnError> {
        self.handle_mut().execute_sql(statement).await
    }

    /// Client think time between rounds: sleeps in virtual time and records
    /// the pause in the transaction's latency breakdown.
    pub async fn think(&mut self, pause: Duration) {
        sleep(pause).await;
        self.handle_mut().note_think(pause);
    }

    /// Record already-elapsed think time without sleeping (for backends that
    /// wrap another backend's handle and have slept at their own layer).
    pub fn note_think(&mut self, thought: Duration) {
        self.handle_mut().note_think(thought);
    }

    /// Record already-elapsed admission-queue time (see
    /// [`TxnHandle::note_queue_time`]).
    pub fn note_queue_time(&mut self, queued: Duration) {
        self.handle_mut().note_queue_time(queued);
    }

    /// Commit.
    pub async fn commit(mut self) -> TxnOutcome {
        self.handle
            .take()
            .expect("transaction already concluded")
            .commit()
            .await
    }

    /// Roll back at the client's request.
    pub async fn rollback(mut self) -> TxnOutcome {
        self.handle
            .take()
            .expect("transaction already concluded")
            .rollback()
            .await
    }

    /// Crash the client mid-transaction: the handle is dropped without a
    /// conclusion and the backend rolls the orphaned branches back. (Plain
    /// `drop(txn)` does the same; this spelling is for tests and chaos
    /// scripts that want the crash to be visible.)
    pub fn abandon(mut self) {
        if let Some(handle) = self.handle.take() {
            handle.abandon();
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.abandon();
        }
    }
}

// ---------------------------------------------------------------------------
// Middleware backend
// ---------------------------------------------------------------------------

/// The GeoTP middleware's [`SessionService`], with an optional client
/// placement: when `client` is set, every `begin`/round/`commit` pays a
/// client↔middleware round trip over the simulated network and the hops land
/// in [`LatencyBreakdown::client_rtt`](crate::LatencyBreakdown::client_rtt).
#[derive(Clone)]
pub struct MiddlewareSessionService {
    mw: Rc<Middleware>,
    client: Option<NodeId>,
}

impl Middleware {
    /// The session front door for clients co-located with the middleware
    /// (no client↔middleware network hops — the deployment the paper's
    /// closed-loop terminals model).
    pub fn session_service(self: &Rc<Self>) -> MiddlewareSessionService {
        MiddlewareSessionService {
            mw: Rc::clone(self),
            client: None,
        }
    }

    /// The session front door for clients at `client`: every statement round
    /// pays the client↔middleware round trip.
    pub fn session_service_from(self: &Rc<Self>, client: NodeId) -> MiddlewareSessionService {
        MiddlewareSessionService {
            mw: Rc::clone(self),
            client: Some(client),
        }
    }
}

impl SessionService for MiddlewareSessionService {
    fn connect(&self, session_id: u64) -> Session {
        self.mw.register_session(session_id);
        Session::from_link(
            session_id,
            self.mw.protocol().name(),
            Box::new(MiddlewareLink {
                mw: Rc::clone(&self.mw),
                client: self.client,
                session: session_id,
            }),
        )
    }

    fn label(&self) -> String {
        self.mw.protocol().name().to_string()
    }
}

impl SessionService for Rc<Middleware> {
    fn connect(&self, session_id: u64) -> Session {
        self.session_service().connect(session_id)
    }

    fn label(&self) -> String {
        self.protocol().name().to_string()
    }
}

struct MiddlewareLink {
    mw: Rc<Middleware>,
    client: Option<NodeId>,
    session: u64,
}

/// One client→middleware (or back) hop; returns the time it took. Free for
/// co-located clients.
async fn client_hop(mw: &Rc<Middleware>, client: Option<NodeId>, inbound: bool) -> Duration {
    let Some(client) = client else {
        return Duration::ZERO;
    };
    let started = now();
    let (from, to) = if inbound {
        (client, mw.node())
    } else {
        (mw.node(), client)
    };
    mw.network().transfer(from, to).await;
    now().duration_since(started)
}

impl SessionLink for MiddlewareLink {
    fn begin<'a>(&'a mut self) -> BoxFuture<'a, Result<Box<dyn TxnHandle>, TxnError>> {
        let mw = Rc::clone(&self.mw);
        let client = self.client;
        let session = self.session;
        Box::pin(async move {
            let connected = now();
            let hop_in = client_hop(&mw, client, true).await;
            let mut live = mw.begin_live(session).await?;
            live.backdate(connected);
            live.note_client_rtt(hop_in);
            let hop_out = client_hop(&mw, client, false).await;
            live.note_client_rtt(hop_out);
            Ok(Box::new(MiddlewareTxn {
                mw,
                client,
                live: Some(live),
                failed: None,
            }) as Box<dyn TxnHandle>)
        })
    }

    fn parse_sql(&self, script: &str) -> Result<SqlScript, ParseError> {
        self.mw.parsed_sql(script)
    }
}

struct MiddlewareTxn {
    mw: Rc<Middleware>,
    client: Option<NodeId>,
    live: Option<LiveTxn>,
    /// The aborted outcome of a transaction that already failed (a repeated
    /// commit/rollback on it re-reports the failure instead of panicking).
    failed: Option<TxnOutcome>,
}

impl MiddlewareTxn {
    /// What a transaction that already failed re-reports (a repeated round,
    /// commit or rollback on it must not panic).
    fn failed_outcome(&self) -> TxnOutcome {
        self.failed.clone().unwrap_or_else(|| {
            TxnOutcome::aborted(AbortReason::ExecutionFailed, Duration::ZERO, false)
        })
    }

    async fn run_round(&mut self, ops: &[ClientOp], last: bool) -> Result<RoundResult, TxnError> {
        let Some(live) = self.live.as_mut() else {
            return Err(TxnError::aborted(self.failed_outcome(), false));
        };
        let round_started = now();
        let hop_in = client_hop(&self.mw, self.client, true).await;
        live.note_client_rtt(hop_in);
        match self.mw.execute_live(live, ops, last).await {
            Ok(rows) => {
                let hop_out = client_hop(&self.mw, self.client, false).await;
                live.note_client_rtt(hop_out);
                Ok(RoundResult {
                    rows,
                    latency: now().duration_since(round_started),
                })
            }
            Err(error) => {
                self.failed = Some(error.outcome.clone());
                self.live = None;
                Err(error)
            }
        }
    }

    /// Commit (or roll back), paying the client↔middleware hop each way.
    async fn conclude(&mut self, commit: bool) -> TxnOutcome {
        let Some(mut live) = self.live.take() else {
            return self.failed_outcome();
        };
        let hop_in = client_hop(&self.mw, self.client, true).await;
        live.note_client_rtt(hop_in);
        let mut outcome = if commit {
            self.mw.commit_live(&mut live).await
        } else {
            self.mw.rollback_live(&mut live).await
        };
        let hop_out = client_hop(&self.mw, self.client, false).await;
        outcome.latency += hop_out;
        outcome.breakdown.client_rtt += hop_out;
        outcome
    }
}

impl TxnHandle for MiddlewareTxn {
    fn execute<'a>(
        &'a mut self,
        ops: &'a [ClientOp],
        last: bool,
    ) -> BoxFuture<'a, Result<RoundResult, TxnError>> {
        Box::pin(self.run_round(ops, last))
    }

    fn execute_sql<'a>(
        &'a mut self,
        statement: &'a str,
    ) -> BoxFuture<'a, Result<RoundResult, TxnError>> {
        Box::pin(async move {
            let parsed = match self.mw.parse_statement(statement) {
                Ok(parsed) => parsed,
                Err(_parse) => {
                    // Garbage from the client aborts the transaction, like a
                    // real server erroring the statement and poisoning the txn.
                    if self.live.is_some() {
                        let outcome = self.conclude(false).await;
                        self.failed = Some(outcome);
                    }
                    return Err(TxnError::aborted(self.failed_outcome(), false));
                }
            };
            if let Some(control) = parsed.control {
                return match control {
                    // BEGIN inside a live txn is a no-op.
                    TxnControl::Begin => Ok(RoundResult {
                        rows: Vec::new(),
                        latency: Duration::ZERO,
                    }),
                    // Transaction control must go through the *consuming*
                    // `Txn::commit` / `Txn::rollback`; an out-of-band control
                    // statement is protocol misuse and poisons the
                    // transaction — roll it back so the reported abort is
                    // real (locks released, outcome recorded) instead of
                    // leaving a live transaction behind a fabricated error.
                    TxnControl::Commit | TxnControl::Rollback => {
                        let outcome = self.conclude(false).await;
                        self.failed = Some(outcome.clone());
                        Err(TxnError::aborted(outcome, false))
                    }
                };
            }
            let Some(op) = parsed.op else {
                return Ok(RoundResult {
                    rows: Vec::new(),
                    latency: Duration::ZERO,
                });
            };
            let ops = [op];
            self.run_round(&ops, parsed.is_last).await
        })
    }

    fn note_think(&mut self, thought: Duration) {
        if let Some(live) = self.live.as_mut() {
            live.note_think(thought);
        }
    }

    fn note_queue_time(&mut self, queued: Duration) {
        if let Some(live) = self.live.as_mut() {
            live.note_queue_time(queued);
        }
    }

    fn commit(mut self: Box<Self>) -> BoxFuture<'static, TxnOutcome> {
        Box::pin(async move { self.conclude(true).await })
    }

    fn rollback(mut self: Box<Self>) -> BoxFuture<'static, TxnOutcome> {
        Box::pin(async move { self.conclude(false).await })
    }

    fn abandon(mut self: Box<Self>) {
        // The client vanished: no network hops (there is nobody to talk to);
        // the middleware notices the dropped connection and cleans up.
        if let Some(live) = self.live.take() {
            self.mw.abandon_live(live);
        }
    }

    fn gtrid(&self) -> u64 {
        self.live
            .as_ref()
            .map(|l| l.gtrid())
            .unwrap_or_else(|| self.failed.as_ref().map(|o| o.gtrid).unwrap_or(0))
    }
}
