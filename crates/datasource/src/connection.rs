//! Middleware-side connection stub towards one data source.
//!
//! Every request/response pair pays the simulated WAN latency between the
//! middleware node and the data-source node, exactly like the TCP connections
//! the paper's middleware keeps in its connection pool.

use std::borrow::Borrow;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use geotp_net::{Network, NodeId};
use geotp_storage::{StorageError, Xid};

use crate::messages::{PrepareVote, StatementRequest, StatementResponse};
use crate::server::DataSource;

/// A connection from a middleware node to one data source.
#[derive(Clone)]
pub struct DsConnection {
    dm: NodeId,
    ds: Rc<DataSource>,
    net: Rc<Network>,
    /// The coordinator's membership epoch, stamped on every command so the
    /// server can reject a fenced (declared-dead) coordinator. `0` is the
    /// unfenced single-coordinator default.
    epoch: u64,
}

impl DsConnection {
    /// Open a connection from middleware `dm` to the data source.
    pub fn new(dm: NodeId, ds: Rc<DataSource>, net: Rc<Network>) -> Self {
        Self {
            dm,
            ds,
            net,
            epoch: 0,
        }
    }

    /// Stamp every command on this connection with the coordinator's
    /// membership epoch.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The epoch this connection stamps on its commands.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The data source this connection talks to.
    pub fn data_source(&self) -> &Rc<DataSource> {
        &self.ds
    }

    /// The data source's node id.
    pub fn node(&self) -> NodeId {
        self.ds.node()
    }

    /// The data source's index.
    pub fn index(&self) -> u32 {
        self.ds.index()
    }

    /// Current nominal RTT from the middleware to this data source.
    pub fn nominal_rtt(&self) -> Duration {
        self.net.nominal_rtt(self.dm, self.ds.node())
    }

    /// One WAN round trip around `work`, which is built only once the
    /// request reached the data source: the caller's future holds the
    /// closure (a few references) rather than a second copy of the work's
    /// future, so every command's future is the work plus two hops.
    async fn round_trip<F: Future>(&self, work: impl FnOnce() -> F) -> F::Output {
        self.net.transfer(self.dm, self.ds.node()).await;
        self.reply(work().await).await
    }

    /// The reply's hop back to the middleware. Its own future, so the reply
    /// waits for the hop in the space the work's future used.
    async fn reply<T>(&self, reply: T) -> T {
        self.net.transfer(self.ds.node(), self.dm).await;
        reply
    }

    /// Execute a statement batch (one WAN round trip). A fenced coordinator's
    /// batch is refused at the server before touching the engine. The
    /// coordinator passes its pooled request by reference; an owned request
    /// works too.
    #[expect(
        clippy::manual_async_fn,
        reason = "an `async fn` keeps each parameter twice in its future, which nests in every statement's"
    )]
    pub fn execute<'a>(
        &'a self,
        req: impl Borrow<StatementRequest> + 'a,
    ) -> impl Future<Output = StatementResponse> + 'a {
        async move {
            let req = req.borrow();
            self.net.transfer(self.dm, self.ds.node()).await;
            let response = match self.ds.fence_check(self.dm, self.epoch, req.xid) {
                Ok(()) => self.ds.execute(self.dm, req).await,
                Err(error) => StatementResponse {
                    outcome: crate::messages::StatementOutcome::Failed { error },
                    local_execution_latency: Duration::ZERO,
                },
            };
            self.reply(response).await
        }
    }

    /// Explicit prepare (one WAN round trip) — the classic XA path.
    pub fn prepare(&self, xid: Xid) -> impl Future<Output = PrepareVote> + '_ {
        self.round_trip(move || async move {
            if self.ds.fence_check(self.dm, self.epoch, xid).is_err() {
                return PrepareVote::Failure;
            }
            self.ds.prepare(xid).await
        })
    }

    /// Commit a branch (one WAN round trip). Rejected if this coordinator's
    /// epoch has been fenced — a stale COMMIT must not contradict the outcome
    /// the adopting peer drove.
    pub fn commit(
        &self,
        xid: Xid,
        one_phase: bool,
    ) -> impl Future<Output = Result<(), StorageError>> + '_ {
        self.round_trip(move || async move {
            self.ds.fence_check(self.dm, self.epoch, xid)?;
            self.ds.commit(xid, one_phase).await
        })
    }

    /// Commit a branch that performed no writes (one WAN round trip, no
    /// prepare, no WAL flush on the server). Fenced like a normal commit.
    pub fn commit_read_only(
        &self,
        xid: Xid,
    ) -> impl Future<Output = Result<(), StorageError>> + '_ {
        self.round_trip(move || async move {
            self.ds.fence_check(self.dm, self.epoch, xid)?;
            self.ds.commit_read_only(xid)
        })
    }

    /// Roll back a branch (one WAN round trip). Fenced like commit: the
    /// branch belongs to the adopting peer once the epoch is sealed.
    pub fn rollback(&self, xid: Xid) -> impl Future<Output = Result<(), StorageError>> + '_ {
        self.round_trip(move || async move {
            self.ds.fence_check(self.dm, self.epoch, xid)?;
            self.ds.rollback(xid).await
        })
    }

    /// `XA RECOVER` scoped to the gtrids coordinator `owner` allocated below
    /// sequence number `below` (one round trip): what a coordinator's own
    /// recovery and a peer takeover resolve.
    pub async fn recover_prepared_owned_by(&self, owner: u32, below: u64) -> Vec<Xid> {
        self.round_trip(|| async { self.ds.recover_prepared_owned_by(owner, below) })
            .await
    }

    /// Measure the current RTT with a ping.
    pub async fn ping(&self) -> Duration {
        self.net.ping(self.dm, self.ds.node()).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{DsOperation, StatementOutcome};
    use crate::server::DataSourceConfig;
    use geotp_net::NetworkBuilder;
    use geotp_simrt::{now, Runtime};
    use geotp_storage::{CostModel, EngineConfig, Key, Row, TableId};

    #[test]
    fn execute_pays_one_wan_round_trip() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let dm = NodeId::middleware(0);
            let node = NodeId::data_source(0);
            let net = NetworkBuilder::new(1)
                .static_link(dm, node, Duration::from_millis(73))
                .build();
            let mut cfg = DataSourceConfig::new(node);
            cfg.engine = EngineConfig {
                lock_wait_timeout: Duration::from_secs(5),
                cost: CostModel::zero(),
                record_history: false,
                ..EngineConfig::default()
            };
            let ds = DataSource::new(cfg, Rc::clone(&net));
            ds.load(Key::new(TableId(0), 1), Row::int(10));
            let conn = DsConnection::new(dm, Rc::clone(&ds), net);
            assert_eq!(conn.nominal_rtt(), Duration::from_millis(73));
            assert_eq!(conn.index(), 0);

            let started = now();
            let xid = Xid::new(1, 0);
            let resp = conn
                .execute(StatementRequest {
                    xid,
                    begin: true,
                    ops: vec![DsOperation::Read {
                        key: Key::new(TableId(0), 1),
                    }],
                    is_last: false,
                    decentralized_prepare: false,
                    early_abort: false,
                    peers: vec![],
                    trace_parent: None,
                })
                .await;
            assert!(matches!(resp.outcome, StatementOutcome::Ok { .. }));
            assert_eq!(now().duration_since(started), Duration::from_millis(73));

            // Classic XA: explicit prepare and commit are one round trip each.
            let before = now();
            assert_eq!(conn.prepare(xid).await, PrepareVote::Prepared);
            conn.commit(xid, false).await.unwrap();
            assert_eq!(now().duration_since(before), Duration::from_millis(146));
            assert_eq!(conn.ping().await, Duration::from_millis(73));
        });
    }

    #[test]
    fn recover_prepared_lists_branches() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let dm = NodeId::middleware(0);
            let node = NodeId::data_source(2);
            let net = NetworkBuilder::new(1)
                .static_link(dm, node, Duration::from_millis(10))
                .build();
            let mut cfg = DataSourceConfig::new(node);
            cfg.engine = EngineConfig {
                lock_wait_timeout: Duration::from_secs(5),
                cost: CostModel::zero(),
                record_history: false,
                ..EngineConfig::default()
            };
            let ds = DataSource::new(cfg, Rc::clone(&net));
            ds.load(Key::new(TableId(0), 1), Row::int(10));
            let conn = DsConnection::new(dm, Rc::clone(&ds), net);
            let xid = Xid::new(4, 2);
            conn.execute(StatementRequest {
                xid,
                begin: true,
                ops: vec![DsOperation::AddInt {
                    key: Key::new(TableId(0), 1),
                    col: 0,
                    delta: 1,
                }],
                is_last: false,
                decentralized_prepare: false,
                early_abort: false,
                peers: vec![0],
                trace_parent: None,
            })
            .await;
            conn.prepare(xid).await;
            assert_eq!(conn.recover_prepared_owned_by(0, 5).await, vec![xid]);
            assert!(conn.recover_prepared_owned_by(1, 5).await.is_empty());
            assert!(
                conn.recover_prepared_owned_by(0, 4).await.is_empty(),
                "gtrid 4 belongs to the incarnation that starts at 4"
            );
            conn.rollback(xid).await.unwrap();
            assert!(conn.recover_prepared_owned_by(0, 5).await.is_empty());
        });
    }
}
