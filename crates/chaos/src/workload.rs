//! Workloads the chaos harness can drive.
//!
//! The harness is workload-generic: anything implementing [`ChaosWorkload`]
//! can run under every fault preset, every checker and the schedule
//! shrinker. A workload contributes three things — how to populate the data
//! sources, how to generate client transactions, and which *state-level
//! consistency conditions* its committed transactions preserve (those
//! conditions are what make atomicity violations observable from final state
//! alone).
//!
//! Two workloads ship built in:
//!
//! * [`TransferWorkload`] — the original balance-transfer workload: every
//!   transaction moves 1 unit between two rows, so the total balance is
//!   conserved by construction;
//! * [`TpccChaosWorkload`] — the real TPC-C mix from `geotp-workloads`
//!   (NewOrder, Payment, OrderStatus, Delivery, StockLevel), scaled down to
//!   drill size, with the TPC-C §3.3.2 consistency conditions
//!   (warehouse/district YTD agreement, order-id/ORDERS/NEW_ORDER counts,
//!   order-line counts, stock conservation).

use std::rc::Rc;

use geotp_datasource::DataSource;
use geotp_middleware::{ClientOp, GlobalKey, Partitioner, TransactionSpec};
use geotp_storage::{Row, TableId};
use geotp_workloads::tpcc::{self, TpccConfig, TpccGenerator};
use rand::rngs::StdRng;
use rand::Rng;

use crate::harness::{ChaosConfig, INITIAL_BALANCE, RECORDS_PER_NODE};

/// A workload the chaos harness can drive under fault schedules.
pub trait ChaosWorkload {
    /// Stable identifier used in traces, tables and CI artifacts.
    fn name(&self) -> &'static str;

    /// The partitioner the middleware routes this workload through.
    fn partitioner(&self) -> Partitioner;

    /// Populate the data sources (bulk load, before any fault fires).
    fn load(&self, sources: &[Rc<DataSource>]);

    /// Generate the next client transaction. Called once per transaction
    /// (retries after a refused connection reuse the same spec, like a real
    /// client re-submitting its statement buffer).
    fn next_spec(&self, rng: &mut StdRng) -> TransactionSpec;

    /// Workload-specific consistency conditions over the healed, recovered
    /// final state. Every committed transaction preserves these by
    /// construction, so violations convict the transaction machinery. One
    /// line per violation; empty means consistent.
    fn consistency_violations(&self, sources: &[Rc<DataSource>]) -> Vec<String>;
}

/// Table used by the transfer workload (the single YCSB-style usertable).
pub const CHAOS_TABLE: TableId = TableId(0);

/// The original balance-transfer workload: −1 from one row, +1 to another.
/// Transfers conserve the total balance, so any partial commit shows up in
/// the conservation condition.
#[derive(Debug, Clone)]
pub struct TransferWorkload {
    /// Data sources in the deployment.
    pub nodes: u32,
    /// Rows per data source.
    pub records_per_node: u64,
    /// Initial integer balance of every row.
    pub initial_balance: i64,
    /// Fraction of transfers that cross data sources.
    pub distributed_ratio: f64,
}

impl TransferWorkload {
    /// The transfer workload of a [`ChaosConfig`] run: 200 rows of balance
    /// 1 000 per data source, transfers crossing sources at the config's
    /// `distributed_ratio`.
    pub fn from_config(config: &ChaosConfig) -> Self {
        Self {
            nodes: config.nodes(),
            records_per_node: RECORDS_PER_NODE,
            initial_balance: INITIAL_BALANCE,
            distributed_ratio: config.distributed_ratio,
        }
    }
}

impl ChaosWorkload for TransferWorkload {
    fn name(&self) -> &'static str {
        "transfer"
    }

    fn partitioner(&self) -> Partitioner {
        Partitioner::Range {
            rows_per_node: self.records_per_node,
            nodes: self.nodes,
        }
    }

    fn load(&self, sources: &[Rc<DataSource>]) {
        let partitioner = self.partitioner();
        let total_rows = self.records_per_node * self.nodes as u64;
        for row in 0..total_rows {
            let key = GlobalKey::new(CHAOS_TABLE, row);
            let ds = partitioner.route(key) as usize;
            sources[ds].load(key.storage_key(), Row::int(self.initial_balance));
        }
    }

    fn next_spec(&self, rng: &mut StdRng) -> TransactionSpec {
        let nodes = self.nodes as u64;
        let records = self.records_per_node;
        let src_ds = rng.gen_range(0..nodes);
        let distributed = nodes > 1 && rng.gen::<f64>() < self.distributed_ratio;
        let dst_ds = if distributed {
            let mut d = rng.gen_range(0..nodes - 1);
            if d >= src_ds {
                d += 1;
            }
            d
        } else {
            src_ds
        };
        let src_row = src_ds * records + rng.gen_range(0..records);
        let dst_row = dst_ds * records + rng.gen_range(0..records);
        TransactionSpec::single_round(vec![
            ClientOp::add(GlobalKey::new(CHAOS_TABLE, src_row), -1),
            ClientOp::add(GlobalKey::new(CHAOS_TABLE, dst_row), 1),
        ])
    }

    fn consistency_violations(&self, sources: &[Rc<DataSource>]) -> Vec<String> {
        let mut violations = Vec::new();
        let partitioner = self.partitioner();
        let total_rows = self.records_per_node * self.nodes as u64;
        let expected_total = total_rows as i64 * self.initial_balance;
        let mut actual_total = 0i64;
        let mut missing_rows = 0u64;
        for row in 0..total_rows {
            let key = GlobalKey::new(CHAOS_TABLE, row);
            let ds = partitioner.route(key) as usize;
            match sources[ds].engine().peek(key.storage_key()) {
                Some(r) => actual_total += r.int_value().unwrap_or(0),
                None => missing_rows += 1,
            }
        }
        if missing_rows > 0 {
            violations.push(format!(
                "transfer: {missing_rows} row(s) vanished from the record stores"
            ));
        }
        if actual_total != expected_total {
            violations.push(format!(
                "transfer: total balance {actual_total} != initial {expected_total} \
                 (transfers conserve it)"
            ));
        }
        violations
    }
}

/// The transfer workload issued *interactively*: the debit and the credit
/// ship as separate statement rounds (the credit carries the `/*+ last */`
/// annotation), so the branch locks span a real client round trip and the
/// harness's think-time and mid-transaction client-crash events have a
/// between-rounds window to land in. Conservation conditions are unchanged.
#[derive(Debug, Clone)]
pub struct InteractiveTransferWorkload(pub TransferWorkload);

impl ChaosWorkload for InteractiveTransferWorkload {
    fn name(&self) -> &'static str {
        "transfer_interactive"
    }

    fn partitioner(&self) -> Partitioner {
        self.0.partitioner()
    }

    fn load(&self, sources: &[Rc<DataSource>]) {
        self.0.load(sources);
    }

    fn next_spec(&self, rng: &mut StdRng) -> TransactionSpec {
        let spec = self.0.next_spec(rng);
        let rounds = spec
            .rounds
            .into_iter()
            .flatten()
            .map(|op| vec![op])
            .collect();
        TransactionSpec::multi_round(rounds)
    }

    fn consistency_violations(&self, sources: &[Rc<DataSource>]) -> Vec<String> {
        self.0.consistency_violations(sources)
    }
}

/// TPC-C at drill scale: the real five-profile mix over warehouse-partitioned
/// data, small enough that a 10-preset × 32-seed sweep stays in CI budget.
pub struct TpccChaosWorkload {
    config: TpccConfig,
    generator: TpccGenerator,
}

impl TpccChaosWorkload {
    /// Drill-scale TPC-C over `nodes` data sources: 2 warehouses per node,
    /// 40 items per warehouse, 20 customers per district, 40% distributed
    /// NewOrder/Payment transactions. Hotspot cardinality (1 warehouse row,
    /// 10 district rows per warehouse) is full-size, so contention behaviour
    /// is preserved.
    pub fn drill_scale(nodes: u32) -> Self {
        let mut config = TpccConfig::new(nodes, 2);
        config.items = 40;
        config.customers_per_district = 20;
        config.distributed_ratio = 0.4;
        Self::new(config)
    }

    /// A TPC-C chaos workload with an explicit configuration.
    pub fn new(config: TpccConfig) -> Self {
        let generator = TpccGenerator::new(config.clone());
        Self { config, generator }
    }

    /// The TPC-C configuration in use.
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }
}

impl ChaosWorkload for TpccChaosWorkload {
    fn name(&self) -> &'static str {
        "tpcc"
    }

    fn partitioner(&self) -> Partitioner {
        self.config.partitioner()
    }

    fn load(&self, sources: &[Rc<DataSource>]) {
        self.generator.load(sources);
    }

    fn next_spec(&self, rng: &mut StdRng) -> TransactionSpec {
        self.generator.generate(rng).0
    }

    fn consistency_violations(&self, sources: &[Rc<DataSource>]) -> Vec<String> {
        tpcc::consistency_violations(&self.config, sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn transfer_spec_is_a_conserving_two_op_transaction() {
        let workload = TransferWorkload {
            nodes: 3,
            records_per_node: 100,
            initial_balance: 10,
            distributed_ratio: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let spec = workload.next_spec(&mut rng);
            assert_eq!(spec.op_count(), 2);
            let deltas: Vec<i64> = spec
                .all_ops()
                .map(|op| match op {
                    ClientOp::AddInt { delta, .. } => *delta,
                    other => panic!("unexpected op {other:?}"),
                })
                .collect();
            assert_eq!(deltas.iter().sum::<i64>(), 0, "transfers conserve");
            // distributed_ratio 1.0: the two rows live on different sources.
            let keys = spec.keys();
            let p = workload.partitioner();
            assert_ne!(p.route(keys[0]), p.route(keys[1]));
        }
    }

    #[test]
    fn tpcc_drill_scale_generates_all_profiles() {
        let workload = TpccChaosWorkload::drill_scale(3);
        assert_eq!(workload.config().nodes, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut op_counts = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let spec = workload.next_spec(&mut rng);
            assert!(!spec.is_empty());
            op_counts.insert(spec.op_count());
        }
        // Five profiles with very different shapes: the op-count spread
        // proves the mix is live (Payment=4, OrderStatus=6, Delivery=10,
        // StockLevel=21, NewOrder varies 11..33).
        assert!(op_counts.len() >= 4, "op counts seen: {op_counts:?}");
    }
}
