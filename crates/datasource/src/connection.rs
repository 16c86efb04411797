//! Middleware-side connection stub towards one data source.
//!
//! Every request/response pair pays the simulated WAN latency between the
//! middleware node and the data-source node, exactly like the TCP connections
//! the paper's middleware keeps in its connection pool.

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

    async fn round_trip<T>(&self, work: impl std::future::Future<Output = T>) -> T {
        self.net.transfer(self.dm, self.ds.node()).await;
        let out = work.await;
        self.net.transfer(self.ds.node(), self.dm).await;
        out
    }

    /// Execute a statement batch (one WAN round trip). A fenced coordinator's
    /// batch is refused at the server before touching the engine.
    pub async fn execute(&self, req: StatementRequest) -> StatementResponse {
        self.round_trip(async {
            if let Err(error) = self.ds.fence_check(self.dm, self.epoch, req.xid) {
                return StatementResponse {
                    outcome: crate::messages::StatementOutcome::Failed { error },
                    local_execution_latency: std::time::Duration::ZERO,
                };
            }
            self.ds.execute(self.dm, &req).await
        })
        .await
    }

    /// Explicit prepare (one WAN round trip) — the classic XA path.
    pub async fn prepare(&self, xid: Xid) -> PrepareVote {
        self.round_trip(async {
            if self.ds.fence_check(self.dm, self.epoch, xid).is_err() {
                return PrepareVote::Failure;
            }
            self.ds.prepare(xid).await
        })
        .await
    }

    /// Commit a branch (one WAN round trip). Rejected if this coordinator's
    /// epoch has been fenced — a stale COMMIT must not contradict the outcome
    /// the adopting peer drove.
    pub async fn commit(&self, xid: Xid, one_phase: bool) -> Result<(), StorageError> {
        self.round_trip(async {
            self.ds.fence_check(self.dm, self.epoch, xid)?;
            self.ds.commit(xid, one_phase).await
        })
        .await
    }

    /// Commit a branch that performed no writes (one WAN round trip, no
    /// prepare, no WAL flush on the server). Fenced like a normal commit.
    pub async fn commit_read_only(&self, xid: Xid) -> Result<(), StorageError> {
        self.round_trip(async {
            self.ds.fence_check(self.dm, self.epoch, xid)?;
            self.ds.commit_read_only(xid)
        })
        .await
    }

    /// Roll back a branch (one WAN round trip). Fenced like commit: the
    /// branch belongs to the adopting peer once the epoch is sealed.
    pub async fn rollback(&self, xid: Xid) -> Result<(), StorageError> {
        self.round_trip(async {
            self.ds.fence_check(self.dm, self.epoch, xid)?;
            self.ds.rollback(xid).await
        })
        .await
    }

    /// `XA RECOVER` scoped to coordinator `owner`'s gtrid space (one round
    /// trip): what a coordinator's own recovery and a peer takeover resolve.
    pub async fn recover_prepared_owned_by(&self, owner: u32) -> Vec<Xid> {
        self.round_trip(async { self.ds.recover_prepared_owned_by(owner) })
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
            assert_eq!(conn.recover_prepared_owned_by(0).await, vec![xid]);
            assert!(conn.recover_prepared_owned_by(1).await.is_empty());
            conn.rollback(xid).await.unwrap();
            assert!(conn.recover_prepared_owned_by(0).await.is_empty());
        });
    }
}
