//! # geotp-distdb — a YugabyteDB-like distributed database baseline
//!
//! Figure 13 of the paper compares GeoTP against YugabyteDB, a distributed
//! SQL database with intelligent partitioning. The property the paper leans
//! on is YugabyteDB's **single-shard fast path**: single-row / single-shard
//! transactions commit at the tablet leader and apply their updates
//! asynchronously after commit, so at low contention it beats a middleware
//! that must round-trip to external data sources. At high contention the
//! advantage disappears because the database has no latency-aware scheduling
//! and locks are held across cross-shard two-phase commit.
//!
//! This crate builds that baseline on the simulated substrate:
//!
//! * the tablet leaders are the deployment's own data sources — their
//!   [`geotp_storage::StorageEngine`]s driven directly, at the same
//!   geographic nodes GeoTP reaches them at (the XA agents stay idle),
//! * the query router is co-located with the client (same placement as the
//!   middleware in the paper's setup),
//! * **single-shard transactions**: one WAN round trip to the leader; the
//!   leader acquires local locks, executes, commits and replies — the apply /
//!   replication happens off the critical path (asynchronous apply),
//! * **multi-shard transactions**: the router picks the first involved shard
//!   as the transaction coordinator; it executes its local part and drives
//!   prepare/commit over the other shards (shard-to-shard WAN hops), holding
//!   locks across that window.
//!
//! The router ships a transaction's whole statement buffer at once, so this
//! is the only door: there is no per-round session model to drive.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use geotp_datasource::DataSource;
use geotp_middleware::{
    AbortReason, ClientOp, GlobalKey, LatencyBreakdown, MiddlewareStats, Partitioner,
    TransactionSpec, TxnOutcome,
};
use geotp_net::{Network, NodeId};
use geotp_simrt::{join_all, now, spawn};
use geotp_storage::{Row, StorageEngine, StorageError, Xid};

/// The sharded distributed database.
pub struct DistDb {
    /// The query router's node (co-located with the client).
    router: NodeId,
    net: Rc<Network>,
    /// The tablet leaders, indexed by shard (= data-source id).
    shards: Vec<Rc<DataSource>>,
    partitioner: Partitioner,
    next_txn: Cell<u64>,
    stats: RefCell<MiddlewareStats>,
}

impl DistDb {
    /// Build the database with its query router at `router` and one shard
    /// per data source of the deployment (in data-source order).
    pub fn new(
        router: NodeId,
        net: Rc<Network>,
        sources: &[Rc<DataSource>],
        partitioner: Partitioner,
    ) -> Rc<Self> {
        assert!(
            (0..).zip(sources).all(|(i, s)| s.index() == i),
            "the shards are the data sources, in data-source order"
        );
        Rc::new(Self {
            router,
            net,
            shards: sources.to_vec(),
            partitioner,
            next_txn: Cell::new(1),
            stats: RefCell::new(MiddlewareStats::default()),
        })
    }

    /// Read a record directly from its shard (verification only).
    pub fn peek(&self, key: GlobalKey) -> Option<Row> {
        let shard = self.partitioner.route(key);
        self.shards[shard as usize].engine().peek(key.storage_key())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MiddlewareStats {
        *self.stats.borrow()
    }

    async fn apply_ops(
        engine: &Rc<StorageEngine>,
        xid: Xid,
        ops: &[ClientOp],
        rows: &mut Vec<Row>,
    ) -> Result<(), StorageError> {
        for op in ops {
            match op {
                ClientOp::Read(k) => rows.push(engine.read(xid, k.storage_key()).await?),
                ClientOp::ReadForUpdate(k) => {
                    rows.push(engine.read_for_update(xid, k.storage_key()).await?)
                }
                ClientOp::AddInt { key, col, delta } => {
                    engine.add_int(xid, key.storage_key(), *col, *delta).await?;
                }
                ClientOp::Write { key, row } => {
                    engine.write(xid, key.storage_key(), row.clone()).await?
                }
                ClientOp::Insert { key, row } => {
                    engine.insert(xid, key.storage_key(), row.clone()).await?
                }
                ClientOp::Delete(k) => engine.delete(xid, k.storage_key()).await?,
            }
        }
        Ok(())
    }

    /// Run one transaction.
    pub async fn run(self: &Rc<Self>, spec: &TransactionSpec) -> TxnOutcome {
        let started = now();
        let gtrid = self.next_txn.get();
        self.next_txn.set(gtrid + 1);

        let keys = spec.keys();
        let involved = self.partitioner.involved_nodes(&keys);
        let distributed = involved.len() > 1;

        let finish = |committed: bool, reason: Option<AbortReason>, rows: Vec<Row>| {
            let outcome = TxnOutcome {
                gtrid,
                committed,
                abort_reason: reason,
                latency: now().duration_since(started),
                breakdown: LatencyBreakdown::default(),
                distributed,
                rows,
                ..TxnOutcome::default()
            };
            self.stats.borrow_mut().record(&outcome);
            outcome
        };

        // Group every operation (across rounds) per shard; the router ships
        // whole statements, the interactive structure does not add router
        // round trips in a distributed SQL database.
        let all_ops: Vec<ClientOp> = spec.all_ops().cloned().collect();
        let groups = self.partitioner.split(&all_ops);

        if !distributed {
            // -------- Single-shard fast path --------
            let shard_idx = involved[0];
            let shard = &self.shards[shard_idx as usize];
            let xid = Xid::new(gtrid, shard_idx);
            self.net.transfer(self.router, shard.node()).await;
            let mut rows = Vec::new();
            let result: Result<(), StorageError> = async {
                shard.engine().begin(xid)?;
                Self::apply_ops(shard.engine(), xid, &all_ops, &mut rows).await?;
                Ok(())
            }
            .await;
            let ok = match result {
                Ok(()) => {
                    // Commit locally; the apply/replication happens
                    // asynchronously after the response is sent.
                    let engine = Rc::clone(shard.engine());
                    spawn(async move {
                        let _ = engine.commit(xid, true).await;
                    });
                    true
                }
                Err(_) => {
                    let _ = shard.engine().rollback(xid).await;
                    false
                }
            };
            self.net.transfer(shard.node(), self.router).await;
            return if ok {
                finish(true, None, rows)
            } else {
                finish(false, Some(AbortReason::ExecutionFailed), Vec::new())
            };
        }

        // -------- Multi-shard path: shard-coordinated 2PC --------
        let coordinator_idx = involved[0];
        let coordinator_node = self.shards[coordinator_idx as usize].node();
        // Router → coordinator shard.
        self.net.transfer(self.router, coordinator_node).await;

        // The coordinator executes every shard's part: its own locally, the
        // others via shard-to-shard hops (in parallel).
        let mut rows = Vec::new();
        let mut failed = false;
        let mut remote_futures = Vec::new();
        for (shard_idx, ops) in &groups {
            let ops: Vec<ClientOp> = ops.iter().map(|op| (*op).clone()).collect();
            let xid = Xid::new(gtrid, *shard_idx);
            let shard = &self.shards[*shard_idx as usize];
            let shard_node = shard.node();
            let engine = Rc::clone(shard.engine());
            let net = Rc::clone(&self.net);
            let is_local = *shard_idx == coordinator_idx;
            remote_futures.push(async move {
                if !is_local {
                    net.transfer(coordinator_node, shard_node).await;
                }
                let mut local_rows = Vec::new();
                let result: Result<(), StorageError> = async {
                    engine.begin(xid)?;
                    Self::apply_ops(&engine, xid, &ops, &mut local_rows).await?;
                    engine.end(xid)?;
                    engine.prepare(xid).await?;
                    Ok(())
                }
                .await;
                if !is_local {
                    net.transfer(shard_node, coordinator_node).await;
                }
                (result.is_ok(), local_rows, xid, is_local, shard_node)
            });
        }
        let results = join_all(remote_futures).await;
        for (ok, local_rows, _, _, _) in &results {
            if *ok {
                rows.extend(local_rows.iter().cloned());
            } else {
                failed = true;
            }
        }

        // Commit or abort every participant (coordinator-driven).
        let decisions = results.iter().map(|(_, _, xid, is_local, shard_node)| {
            let engine = Rc::clone(self.shards[xid.bqual as usize].engine());
            let net = Rc::clone(&self.net);
            let xid = *xid;
            let is_local = *is_local;
            let shard_node = *shard_node;
            let commit = !failed;
            async move {
                if !is_local {
                    net.transfer(coordinator_node, shard_node).await;
                }
                if commit {
                    let _ = engine.commit(xid, false).await;
                } else if engine.state_of(xid).is_some() {
                    let _ = engine.rollback(xid).await;
                }
                if !is_local {
                    net.transfer(shard_node, coordinator_node).await;
                }
            }
        });
        join_all(decisions).await;

        // Coordinator → router response.
        self.net.transfer(coordinator_node, self.router).await;
        if failed {
            finish(false, Some(AbortReason::ExecutionFailed), Vec::new())
        } else {
            finish(true, None, rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_datasource::DataSourceConfig;
    use geotp_net::NetworkBuilder;
    use geotp_simrt::Runtime;
    use geotp_storage::{CostModel, EngineConfig, TableId};
    use std::time::Duration;

    fn gk(row: u64) -> GlobalKey {
        GlobalKey::new(TableId(0), row)
    }

    fn build() -> Rc<DistDb> {
        let router = NodeId::middleware(0);
        let net = NetworkBuilder::new(2)
            .static_link(router, NodeId::data_source(0), Duration::from_millis(10))
            .static_link(router, NodeId::data_source(1), Duration::from_millis(100))
            .static_link(
                NodeId::data_source(0),
                NodeId::data_source(1),
                Duration::from_millis(100),
            )
            .build();
        let engine = EngineConfig {
            lock_wait_timeout: Duration::from_secs(2),
            cost: CostModel::zero(),
            record_history: false,
            ..EngineConfig::default()
        };
        let sources: Vec<_> = (0..2)
            .map(|i| {
                let mut config = DataSourceConfig::new(NodeId::data_source(i));
                config.engine = engine;
                DataSource::new(config, Rc::clone(&net))
            })
            .collect();
        for row in 0..200u64 {
            sources[row as usize / 100].load(gk(row).storage_key(), Row::int(100));
        }
        let partitioner = Partitioner::Range {
            rows_per_node: 100,
            nodes: 2,
        };
        DistDb::new(router, net, &sources, partitioner)
    }

    #[test]
    fn single_shard_fast_path_takes_one_round_trip() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let db = build();
            let spec =
                TransactionSpec::single_round(vec![ClientOp::Read(gk(1)), ClientOp::add(gk(2), 5)]);
            let started = now();
            let outcome = DistDb::run(&db, &spec).await;
            assert!(outcome.committed);
            assert!(!outcome.distributed);
            // One router→shard round trip (10ms); commit applies asynchronously.
            assert_eq!(now().duration_since(started), Duration::from_millis(10));
            // Let the asynchronous apply land, then verify.
            geotp_simrt::sleep(Duration::from_millis(5)).await;
            assert_eq!(db.peek(gk(2)).unwrap().int_value(), Some(105));
        });
    }

    #[test]
    fn multi_shard_transaction_commits_atomically() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let db = build();
            let spec = TransactionSpec::single_round(vec![
                ClientOp::add(gk(1), -30),
                ClientOp::add(gk(150), 30),
            ]);
            let outcome = DistDb::run(&db, &spec).await;
            assert!(outcome.committed);
            assert!(outcome.distributed);
            // Cross-shard 2PC is clearly slower than the fast path: router→
            // coordinator (10ms) + coordinator↔remote execute (100ms) +
            // coordinator↔remote commit (100ms).
            assert!(outcome.latency >= Duration::from_millis(200));
            assert_eq!(db.peek(gk(1)).unwrap().int_value(), Some(70));
            assert_eq!(db.peek(gk(150)).unwrap().int_value(), Some(130));
        });
    }

    #[test]
    fn conflicting_increments_are_serialized() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let db = build();
            let mut handles = Vec::new();
            for _ in 0..5 {
                let db = Rc::clone(&db);
                handles.push(geotp_simrt::spawn(async move {
                    let spec = TransactionSpec::single_round(vec![ClientOp::add(gk(7), 1)]);
                    DistDb::run(&db, &spec).await
                }));
            }
            let outcomes = join_all(handles).await;
            let committed = outcomes.iter().filter(|o| o.committed).count();
            geotp_simrt::sleep(Duration::from_millis(50)).await;
            assert_eq!(
                db.peek(gk(7)).unwrap().int_value(),
                Some(100 + committed as i64)
            );
        });
    }

    #[test]
    fn missing_key_aborts() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let db = build();
            let spec = TransactionSpec::single_round(vec![
                ClientOp::Read(gk(1)),
                ClientOp::Read(gk(50_000)),
            ]);
            let outcome = DistDb::run(&db, &spec).await;
            assert!(!outcome.committed);
            assert_eq!(db.stats().aborted, 1);
        });
    }
}
