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
//! One trait per session door, one handle per transaction:
//!
//! * [`SessionService`] — a backend a client can `connect` a [`Session`] to;
//!   its `begin` hands out the backend's own [`TxnHandle`]. The middleware
//!   implements it for co-located clients ([`Middleware`] itself) and placed
//!   ones ([`MiddlewareSessionService`]), both through
//!   [`Middleware::begin_session`]. The coordinator tier adds no handle of
//!   its own: it routes and admits a `begin`, then calls that same entry on
//!   the routed coordinator, and the middleware's handle holds the tier's
//!   worker permit;
//! * [`Session`] — one client connection, `{ id, service }`:
//!   [`Session::begin`] live transactions, or replay a whole
//!   [`TransactionSpec`] as a statement stream with [`Session::run_spec`]
//!   (the coordinator learns it round by round;
//!   [`Middleware::run_transaction`](crate::Middleware::run_transaction) is
//!   the same live path with the spec declared up front);
//! * [`Txn`] — the client's grip on the handle: [`Txn::execute`] ships one
//!   statement round, [`Txn::execute_last`] carries the paper's `/*+ last */`
//!   annotation (triggering the decentralized prepare at the end of that
//!   round), [`Txn::commit`] / [`Txn::rollback`] conclude it, and dropping
//!   the handle without concluding models a **mid-transaction client crash**
//!   — the backend notices the lost connection and rolls the orphaned
//!   branches back, like a real proxy reacting to a TCP reset. Once a round
//!   fails, every later round, commit or rollback re-reports the original
//!   [`TxnError`], `retryable` flag included, behind either door.
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
use geotp_simrt::sync::semaphore::SemaphorePermit;
use geotp_simrt::{now, sleep};
use geotp_storage::Row;
use rand::rngs::StdRng;
use rand::Rng;

use crate::coordinator::{append_rows, LiveTxn, Middleware};
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
    fn should_retry(outcome: &TxnOutcome) -> bool {
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

/// Anything a client can connect a [`Session`] to: the GeoTP middleware
/// (co-located clients on [`Middleware`] itself, placed clients on
/// [`MiddlewareSessionService`]), the coordinator cluster and the ScalarDB
/// baseline. A session holds its service and begins every transaction on it;
/// the service hands out the backend's own [`TxnHandle`].
pub trait SessionService {
    /// Open a client session. Sessions are the unit of routing affinity in
    /// clustered deployments; `session_id` identifies the client connection.
    fn connect(self: &Rc<Self>, session_id: u64) -> Session
    where
        Self: Sized + 'static,
    {
        Session {
            id: session_id,
            service: Rc::clone(self) as Rc<dyn SessionService>,
        }
    }

    /// Start a transaction on session `session_id`.
    fn begin(
        self: Rc<Self>,
        session_id: u64,
    ) -> BoxFuture<'static, Result<Box<dyn TxnHandle>, TxnError>>;

    /// Parse a SQL script into an executable plan. Backends without a SQL
    /// front door return a parse error.
    fn parse_sql(&self, script: &str) -> Result<SqlScript, ParseError> {
        Err(ParseError {
            message: "this backend has no SQL front door".to_string(),
            statement: script.to_string(),
        })
    }

    /// Display name used in experiment tables.
    fn label(&self) -> String {
        "service".to_string()
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
    service: Rc<dyn SessionService>,
}

impl Session {
    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Begin a live transaction.
    pub async fn begin(&mut self) -> Result<Txn, TxnError> {
        let handle = Rc::clone(&self.service).begin(self.id).await?;
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
                Ok(result) => append_rows(&mut rows, result.rows),
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
    /// fenced coordinators; never an indeterminate crash) are re-run
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
        match self.service.parse_sql(script)? {
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
    async fn execute_round(
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

/// The GeoTP middleware's [`SessionService`] for clients placed at a remote
/// node: every `begin`/round/`commit` pays a client↔middleware round trip
/// over the simulated network, and the hops land in
/// [`LatencyBreakdown::client_rtt`](crate::LatencyBreakdown::client_rtt).
/// Co-located clients connect to the [`Middleware`] itself.
pub struct MiddlewareSessionService {
    mw: Rc<Middleware>,
    client: NodeId,
}

impl Middleware {
    /// The session front door for clients at `client`: every statement round
    /// pays the client↔middleware round trip.
    pub fn session_service_from(self: &Rc<Self>, client: NodeId) -> Rc<MiddlewareSessionService> {
        Rc::new(MiddlewareSessionService {
            mw: Rc::clone(self),
            client,
        })
    }

    /// Begin a transaction for `session` and hand out its handle: the one
    /// entry behind every door to this middleware. `client` places the client
    /// (`None`: co-located, no hops). A coordinator tier passes the worker
    /// `permit` its admission gate granted, which the handle holds until it
    /// concludes or is dropped, and the time `queued` for it, which lands in
    /// [`LatencyBreakdown::queue_time`](crate::LatencyBreakdown::queue_time)
    /// and the end-to-end latency.
    pub async fn begin_session(
        self: Rc<Self>,
        session: u64,
        client: Option<NodeId>,
        permit: Option<SemaphorePermit>,
        queued: Duration,
    ) -> Result<Box<dyn TxnHandle>, TxnError> {
        let connected = now();
        let hop_in = client_hop(&self, client, true).await;
        // Boxed before the hop back: the handle, not the whole transaction,
        // waits in this future.
        let mut txn = {
            let mut live = self.begin_live(session).await?;
            live.backdate(connected);
            live.note_client_rtt(hop_in);
            live.note_queue_time(queued);
            Box::new(MiddlewareTxn {
                mw: self,
                client,
                state: Ok(live),
                _permit: permit,
            })
        };
        let hop_out = client_hop(&txn.mw, client, false).await;
        if let Ok(live) = &mut txn.state {
            live.note_client_rtt(hop_out);
        }
        Ok(txn)
    }
}

/// Co-located clients: no client↔middleware network hops (the deployment the
/// paper's closed-loop terminals model).
impl SessionService for Middleware {
    fn connect(self: &Rc<Self>, session_id: u64) -> Session {
        self.register_session(session_id);
        Session {
            id: session_id,
            service: Rc::clone(self) as Rc<dyn SessionService>,
        }
    }

    fn begin(
        self: Rc<Self>,
        session_id: u64,
    ) -> BoxFuture<'static, Result<Box<dyn TxnHandle>, TxnError>> {
        Box::pin(self.begin_session(session_id, None, None, Duration::ZERO))
    }

    fn parse_sql(&self, script: &str) -> Result<SqlScript, ParseError> {
        self.parsed_sql(script)
    }

    fn label(&self) -> String {
        self.protocol().name().to_string()
    }
}

impl SessionService for MiddlewareSessionService {
    fn connect(self: &Rc<Self>, session_id: u64) -> Session {
        self.mw.register_session(session_id);
        Session {
            id: session_id,
            service: Rc::clone(self) as Rc<dyn SessionService>,
        }
    }

    fn begin(
        self: Rc<Self>,
        session_id: u64,
    ) -> BoxFuture<'static, Result<Box<dyn TxnHandle>, TxnError>> {
        let mw = Rc::clone(&self.mw);
        Box::pin(mw.begin_session(session_id, Some(self.client), None, Duration::ZERO))
    }

    fn parse_sql(&self, script: &str) -> Result<SqlScript, ParseError> {
        self.mw.parsed_sql(script)
    }

    fn label(&self) -> String {
        self.mw.label()
    }
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

/// The outcome's hop back to the client, charged to its latency. Its own
/// future, so the outcome waits for the hop in the space the commit used.
async fn reply_hop(
    mw: &Rc<Middleware>,
    client: Option<NodeId>,
    mut outcome: TxnOutcome,
) -> TxnOutcome {
    let hop_out = client_hop(mw, client, false).await;
    outcome.latency += hop_out;
    outcome.breakdown.client_rtt += hop_out;
    outcome
}

/// The middleware's transaction handle, whichever door began it.
struct MiddlewareTxn {
    mw: Rc<Middleware>,
    client: Option<NodeId>,
    /// The live transaction; once it failed, the error every later round,
    /// commit or rollback on the handle re-reports (instead of panicking).
    state: Result<LiveTxn, TxnError>,
    /// A coordinator tier's worker permit, released with the handle.
    _permit: Option<SemaphorePermit>,
}

impl MiddlewareTxn {
    async fn run_round(&mut self, ops: &[ClientOp], last: bool) -> Result<RoundResult, TxnError> {
        let live = match &mut self.state {
            Ok(live) => live,
            Err(failed) => return Err(failed.clone()),
        };
        let round_started = now();
        let hop_in = client_hop(&self.mw, self.client, true).await;
        live.note_client_rtt(hop_in);
        // Only the rows wait for the hop back, not the whole result.
        let rows = match self.mw.execute_live(live, ops, last).await {
            Ok(rows) => rows,
            Err(error) => {
                self.state = Err(error.clone());
                return Err(error);
            }
        };
        let hop_out = client_hop(&self.mw, self.client, false).await;
        live.note_client_rtt(hop_out);
        Ok(RoundResult {
            rows,
            latency: now().duration_since(round_started),
        })
    }

    /// Commit (or roll back), paying the client↔middleware hop each way. A
    /// failed transaction re-reports its abort.
    async fn conclude(&mut self, commit: bool) -> TxnOutcome {
        let live = match &mut self.state {
            Ok(live) => live,
            Err(failed) => return failed.outcome.clone(),
        };
        let hop_in = client_hop(&self.mw, self.client, true).await;
        live.note_client_rtt(hop_in);
        let outcome = if commit {
            self.mw.commit_live(live).await
        } else {
            self.mw.rollback_live(live).await
        };
        reply_hop(&self.mw, self.client, outcome).await
    }

    /// The client poisoned the transaction: roll it back so the reported
    /// abort is real (locks released, outcome recorded), and keep the error
    /// for every later call. A crashed coordinator's rollback is retryable,
    /// like its failed rounds.
    async fn poison(&mut self) -> TxnError {
        if let Err(failed) = &self.state {
            return failed.clone();
        }
        let outcome = self.conclude(false).await;
        let retryable = outcome.abort_reason == Some(AbortReason::CoordinatorCrashed);
        let error = TxnError::aborted(outcome, retryable);
        self.state = Err(error.clone());
        error
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
            let Ok(parsed) = self.mw.parse_statement(statement) else {
                // Garbage from the client aborts the transaction, like a
                // real server erroring the statement and poisoning the txn.
                return Err(self.poison().await);
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
                    // transaction instead of leaving a live transaction
                    // behind a fabricated error.
                    TxnControl::Commit | TxnControl::Rollback => Err(self.poison().await),
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
        if let Ok(live) = &mut self.state {
            live.note_think(thought);
        }
    }

    fn commit(mut self: Box<Self>) -> BoxFuture<'static, TxnOutcome> {
        Box::pin(async move { self.conclude(true).await })
    }

    fn rollback(mut self: Box<Self>) -> BoxFuture<'static, TxnOutcome> {
        Box::pin(async move { self.conclude(false).await })
    }

    fn abandon(self: Box<Self>) {
        // The client vanished: no network hops (there is nobody to talk to);
        // the middleware notices the dropped connection and cleans up.
        if let Ok(live) = self.state {
            self.mw.abandon_live(live);
        }
    }

    fn gtrid(&self) -> u64 {
        match &self.state {
            Ok(live) => live.gtrid(),
            Err(failed) => failed.outcome.gtrid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalKey, MiddlewareConfig, Partitioner, Protocol};
    use geotp_datasource::{DataSource, DataSourceConfig, DsConnection, StatementRequest};
    use geotp_net::NetworkBuilder;
    use geotp_simrt::Runtime;
    use geotp_storage::{TableId, Xid};
    use std::mem::size_of_val;

    /// The unpolled futures of the round path, in bytes, against the sizes
    /// they were slimmed to (from 2 640 / 1 464 / 2 360 / 1 864 / 744). Every
    /// round boxes `run_round` and every commit boxes `conclude`; a
    /// parameter or child future kept across an await where it was not
    /// (a `round_trip` that holds its work twice) grows them by hundreds of
    /// bytes and fails here.
    #[test]
    fn round_path_futures_stay_slim() {
        let mut rt = Runtime::new();
        let sizes = rt.block_on(async {
            let dm = NodeId::middleware(0);
            let node = NodeId::data_source(0);
            let net = NetworkBuilder::new(1)
                .static_link(dm, node, Duration::from_millis(10))
                .build();
            let ds = DataSource::new(DataSourceConfig::new(node), Rc::clone(&net));
            let partitioner = Partitioner::Range {
                rows_per_node: 100,
                nodes: 1,
            };
            let config = MiddlewareConfig::new(dm, Protocol::geotp(), partitioner);
            let mw = Middleware::connect(config, Rc::clone(&net), &[Rc::clone(&ds)], None);
            mw.register_session(1);
            let live = mw.begin_live(1).await.expect("a registered session");
            let mut txn = MiddlewareTxn {
                mw: Rc::clone(&mw),
                client: None,
                state: Ok(live),
                _permit: None,
            };
            let ops = [ClientOp::add(GlobalKey::new(TableId(0), 1), 1)];
            let run_round = size_of_val(&txn.run_round(&ops, true));
            let conclude = size_of_val(&txn.conclude(true));
            let Ok(live) = &mut txn.state else {
                unreachable!("nothing ran")
            };
            let execute_live = size_of_val(&mw.execute_live(live, &ops, true));
            let conn = DsConnection::new(dm, ds, net);
            let request = StatementRequest::simple(Xid::new(1, 0), Vec::new());
            let execute = size_of_val(&conn.execute(&request));
            let commit = size_of_val(&conn.commit(Xid::new(1, 0), false));
            [
                ("MiddlewareTxn::run_round", run_round),
                ("MiddlewareTxn::conclude", conclude),
                ("Middleware::execute_live", execute_live),
                ("DsConnection::execute", execute),
                ("DsConnection::commit", commit),
            ]
        });
        println!("{sizes:?}");
        let limits = [824, 640, 752, 440, 312];
        for ((future, size), limit) in sizes.into_iter().zip(limits) {
            assert!(size <= limit, "{future}: {size} B, more than {limit} B");
        }
    }
}
