//! TPC-C workload: warehouse order processing over warehouse-partitioned
//! data, with the five standard transaction profiles.
//!
//! Layout follows the paper's setup: each data node hosts a fixed number of
//! warehouses (16 by default) and transactions become *distributed* when a
//! NewOrder orders an item supplied by a remote warehouse or a Payment pays a
//! customer registered at a remote warehouse. As in the paper we exclude
//! think time and the 1% intentional NewOrder user errors.
//!
//! Scale-down note: the full TPC-C specification uses 100 000 items and 3 000
//! customers per district; the simulation defaults are smaller (configurable)
//! so that experiments fit comfortably in memory. Contention behaviour is
//! preserved because TPC-C's hotspots are the warehouse and district rows,
//! which keep their original cardinality (1 per warehouse, 10 per warehouse).

use std::rc::Rc;

use geotp_datasource::DataSource;
use geotp_middleware::{ClientOp, GlobalKey, Partitioner, TransactionSpec};
use geotp_storage::{Row, TableId, Value};
use rand::rngs::StdRng;
use rand::Rng;

/// WAREHOUSE table.
pub const WAREHOUSE: TableId = TableId(10);
/// DISTRICT table.
pub const DISTRICT: TableId = TableId(11);
/// CUSTOMER table.
pub const CUSTOMER: TableId = TableId(12);
/// STOCK table.
pub const STOCK: TableId = TableId(13);
/// ITEM table (replicated per warehouse partition).
pub const ITEM: TableId = TableId(14);
/// ORDERS table.
pub const ORDERS: TableId = TableId(15);
/// ORDER_LINE table.
pub const ORDER_LINE: TableId = TableId(16);
/// NEW_ORDER table.
pub const NEW_ORDER: TableId = TableId(17);
/// HISTORY table.
pub const HISTORY: TableId = TableId(18);

/// Number of districts per warehouse (fixed by the TPC-C specification).
pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;

/// Stride separating districts in the ORDERS / NEW_ORDER local key space:
/// `local = district * stride + order_id`. Must keep `district * stride +
/// order_id` within the 32 bits [`wh_key`] reserves for the local part
/// (10 × 10⁷ ≈ 2²⁶·⁶), so the encoding is losslessly decodable by
/// `order_key_parts` — the consistency checker counts orders per district
/// from final state alone.
pub const ORDER_DISTRICT_STRIDE: u64 = 10_000_000;

/// Initial per-item stock quantity loaded by [`TpccGenerator::load`]. Every
/// committed order line decrements stock by one, which is what the stock
/// consistency condition aggregates over.
pub const INITIAL_STOCK: i64 = 10_000;

/// Decode an ORDERS / NEW_ORDER key into `(warehouse, district, order_id)`.
fn order_key_parts(key: GlobalKey) -> (u32, u64, u64) {
    let warehouse = (key.row >> 32) as u32;
    let local = key.row & 0xffff_ffff;
    (
        warehouse,
        local / ORDER_DISTRICT_STRIDE,
        local % ORDER_DISTRICT_STRIDE,
    )
}

/// The five TPC-C transaction profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccTransaction {
    /// Order entry (read-write, ~45% of the mix).
    NewOrder,
    /// Payment processing (read-write, ~43%).
    Payment,
    /// Order status inquiry (read-only, ~4%).
    OrderStatus,
    /// Batch delivery (read-write, ~4%).
    Delivery,
    /// Stock level inquiry (read-only, ~4%).
    StockLevel,
}

impl TpccTransaction {
    /// The standard mix weights.
    fn standard_mix() -> Vec<(TpccTransaction, f64)> {
        vec![
            (TpccTransaction::NewOrder, 0.45),
            (TpccTransaction::Payment, 0.43),
            (TpccTransaction::OrderStatus, 0.04),
            (TpccTransaction::Delivery, 0.04),
            (TpccTransaction::StockLevel, 0.04),
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TpccTransaction::NewOrder => "NewOrder",
            TpccTransaction::Payment => "Payment",
            TpccTransaction::OrderStatus => "OrderStatus",
            TpccTransaction::Delivery => "Delivery",
            TpccTransaction::StockLevel => "StockLevel",
        }
    }
}

/// TPC-C configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TpccConfig {
    /// Warehouses hosted per data node (paper default: 16).
    pub warehouses_per_node: u32,
    /// Number of data nodes.
    pub nodes: u32,
    /// Items (and stock rows) per warehouse partition.
    pub items: u64,
    /// Customers per district.
    pub customers_per_district: u64,
    /// Fraction of NewOrder/Payment transactions forced to touch a remote
    /// data node (the paper's distributed-transaction ratio knob).
    pub distributed_ratio: f64,
    /// Transaction mix (type, weight).
    pub mix: Vec<(TpccTransaction, f64)>,
}

impl TpccConfig {
    /// Defaults scaled for simulation: 4 nodes × `warehouses_per_node`
    /// warehouses, 1 000 items per warehouse, 300 customers per district.
    pub fn new(nodes: u32, warehouses_per_node: u32) -> Self {
        Self {
            warehouses_per_node,
            nodes,
            items: 1_000,
            customers_per_district: 300,
            distributed_ratio: 0.2,
            mix: TpccTransaction::standard_mix(),
        }
    }

    /// Run a single transaction profile only (Fig. 9 evaluates pure Payment
    /// and pure NewOrder workloads).
    pub fn with_only(mut self, txn: TpccTransaction) -> Self {
        self.mix = vec![(txn, 1.0)];
        self
    }

    /// Set the distributed-transaction ratio.
    pub fn with_distributed_ratio(mut self, ratio: f64) -> Self {
        self.distributed_ratio = ratio;
        self
    }

    /// Total number of warehouses.
    fn total_warehouses(&self) -> u32 {
        self.warehouses_per_node * self.nodes
    }

    /// The partitioner matching this layout.
    pub fn partitioner(&self) -> Partitioner {
        Partitioner::ByWarehouse {
            warehouses_per_node: self.warehouses_per_node,
            nodes: self.nodes,
        }
    }
}

/// Encode a warehouse-scoped key: warehouse id in the upper 32 bits.
pub fn wh_key(table: TableId, warehouse: u32, local: u64) -> GlobalKey {
    GlobalKey::new(table, ((warehouse as u64) << 32) | (local & 0xffff_ffff))
}

/// Generates TPC-C transactions.
pub struct TpccGenerator {
    config: TpccConfig,
    next_order_id: std::cell::Cell<u64>,
}

impl TpccGenerator {
    /// Create a generator.
    pub fn new(config: TpccConfig) -> Self {
        assert!(config.nodes >= 1 && config.warehouses_per_node >= 1);
        Self {
            config,
            next_order_id: std::cell::Cell::new(1),
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    /// Populate the data sources with the TPC-C tables.
    pub fn load(&self, sources: &[Rc<DataSource>]) {
        let partitioner = self.config.partitioner();
        for w in 1..=self.config.total_warehouses() {
            let node = partitioner.route(wh_key(WAREHOUSE, w, 0)) as usize;
            let source = &sources[node.min(sources.len() - 1)];
            source.load(
                wh_key(WAREHOUSE, w, 0).storage_key(),
                Row::from_values(vec![
                    Value::Int(0),                // w_ytd
                    Value::Str(format!("wh{w}")), // w_name
                ]),
            );
            for d in 1..=DISTRICTS_PER_WAREHOUSE {
                source.load(
                    wh_key(DISTRICT, w, d).storage_key(),
                    Row::pair(0, 1), // d_ytd, d_next_o_id
                );
                source.load_run(
                    wh_key(CUSTOMER, w, d * 100_000 + 1).storage_key(),
                    self.config.customers_per_district,
                    Row::pair(1_000, 0), // c_balance, c_payment_cnt
                );
            }
            source.load_run(
                wh_key(ITEM, w, 1).storage_key(),
                self.config.items,
                Row::int(100),
            );
            source.load_run(
                wh_key(STOCK, w, 1).storage_key(),
                self.config.items,
                Row::pair(INITIAL_STOCK, 0),
            );
        }
    }

    fn home_warehouse(&self, rng: &mut StdRng) -> u32 {
        rng.gen_range(1..=self.config.total_warehouses())
    }

    fn remote_warehouse(&self, home: u32, rng: &mut StdRng) -> u32 {
        let partitioner = self.config.partitioner();
        let home_node = partitioner.route(wh_key(WAREHOUSE, home, 0));
        // Pick a warehouse on a different data node so the transaction is
        // genuinely geo-distributed (same-node remote warehouses would not be).
        for _ in 0..32 {
            let candidate = rng.gen_range(1..=self.config.total_warehouses());
            if partitioner.route(wh_key(WAREHOUSE, candidate, 0)) != home_node {
                return candidate;
            }
        }
        home
    }

    fn customer_key(&self, w: u32, d: u64, rng: &mut StdRng) -> GlobalKey {
        let c = rng.gen_range(1..=self.config.customers_per_district);
        wh_key(CUSTOMER, w, d * 100_000 + c)
    }

    /// Pick which transaction profile to run next.
    fn pick_transaction(&self, rng: &mut StdRng) -> TpccTransaction {
        let total: f64 = self.config.mix.iter().map(|(_, w)| w).sum();
        let mut draw = rng.gen::<f64>() * total;
        for (txn, weight) in &self.config.mix {
            if draw < *weight {
                return *txn;
            }
            draw -= weight;
        }
        self.config
            .mix
            .last()
            .map(|(t, _)| *t)
            .unwrap_or(TpccTransaction::NewOrder)
    }

    /// Generate one transaction of the given profile.
    fn generate_of(&self, txn: TpccTransaction, rng: &mut StdRng) -> TransactionSpec {
        match txn {
            TpccTransaction::NewOrder => self.new_order(rng),
            TpccTransaction::Payment => self.payment(rng),
            TpccTransaction::OrderStatus => self.order_status(rng),
            TpccTransaction::Delivery => self.delivery(rng),
            TpccTransaction::StockLevel => self.stock_level(rng),
        }
    }

    /// Generate one transaction according to the configured mix.
    pub fn generate(&self, rng: &mut StdRng) -> (TransactionSpec, TpccTransaction) {
        let txn = self.pick_transaction(rng);
        (self.generate_of(txn, rng), txn)
    }

    /// NewOrder: read warehouse/customer, bump the district's next order id,
    /// update the stock of 5–15 items (possibly on a remote node), insert the
    /// order, its lines and the NEW_ORDER entry.
    fn new_order(&self, rng: &mut StdRng) -> TransactionSpec {
        let w = self.home_warehouse(rng);
        let d = rng.gen_range(1..=DISTRICTS_PER_WAREHOUSE);
        let customer = self.customer_key(w, d, rng);
        let distributed = rng.gen::<f64>() < self.config.distributed_ratio && self.config.nodes > 1;
        let ol_cnt = rng.gen_range(5..=15usize);
        let order_id = self.next_order_id.get();
        self.next_order_id.set(order_id + 1);

        let mut round1 = vec![
            ClientOp::Read(wh_key(WAREHOUSE, w, 0)),
            ClientOp::Read(customer),
            ClientOp::AddInt {
                key: wh_key(DISTRICT, w, d),
                col: 1, // d_next_o_id += 1 (column 0 is d_ytd, owned by Payment)
                delta: 1,
            },
        ];
        let mut round2 = Vec::new();
        for line in 0..ol_cnt {
            let item = rng.gen_range(1..=self.config.items);
            // The first line of a "distributed" NewOrder is supplied remotely.
            let supply_w = if distributed && line == 0 {
                self.remote_warehouse(w, rng)
            } else {
                w
            };
            round1.push(ClientOp::Read(wh_key(ITEM, supply_w, item)));
            round2.push(ClientOp::AddInt {
                key: wh_key(STOCK, supply_w, item),
                col: 0,
                delta: -1,
            });
            round2.push(ClientOp::Insert {
                key: wh_key(ORDER_LINE, w, order_id * 100 + line as u64),
                row: Row::pair(item as i64, supply_w as i64),
            });
        }
        round2.push(ClientOp::Insert {
            key: wh_key(ORDERS, w, d * ORDER_DISTRICT_STRIDE + order_id),
            row: Row::int(ol_cnt as i64),
        });
        round2.push(ClientOp::Insert {
            key: wh_key(NEW_ORDER, w, d * ORDER_DISTRICT_STRIDE + order_id),
            row: Row::int(1),
        });
        TransactionSpec::multi_round(vec![round1, round2])
    }

    /// Payment: update warehouse and district year-to-date totals and the
    /// customer's balance (customer possibly registered at a remote node).
    fn payment(&self, rng: &mut StdRng) -> TransactionSpec {
        let w = self.home_warehouse(rng);
        let d = rng.gen_range(1..=DISTRICTS_PER_WAREHOUSE);
        let amount = rng.gen_range(1..=5000i64);
        let remote = rng.gen::<f64>() < self.config.distributed_ratio && self.config.nodes > 1;
        let (c_w, c_d) = if remote {
            (
                self.remote_warehouse(w, rng),
                rng.gen_range(1..=DISTRICTS_PER_WAREHOUSE),
            )
        } else {
            (w, d)
        };
        let customer = self.customer_key(c_w, c_d, rng);
        let order_id = self.next_order_id.get();
        self.next_order_id.set(order_id + 1);
        TransactionSpec::single_round(vec![
            ClientOp::AddInt {
                key: wh_key(WAREHOUSE, w, 0),
                col: 0,
                delta: amount,
            },
            ClientOp::AddInt {
                key: wh_key(DISTRICT, w, d),
                col: 0,
                delta: amount,
            },
            ClientOp::AddInt {
                key: customer,
                col: 0,
                delta: -amount,
            },
            ClientOp::Insert {
                key: wh_key(HISTORY, w, order_id),
                row: Row::int(amount),
            },
        ])
    }

    /// OrderStatus: read a customer and a handful of their order lines.
    fn order_status(&self, rng: &mut StdRng) -> TransactionSpec {
        let w = self.home_warehouse(rng);
        let d = rng.gen_range(1..=DISTRICTS_PER_WAREHOUSE);
        let customer = self.customer_key(w, d, rng);
        let mut ops = vec![ClientOp::Read(customer)];
        for _ in 0..5 {
            let item = rng.gen_range(1..=self.config.items);
            ops.push(ClientOp::Read(wh_key(STOCK, w, item)));
        }
        TransactionSpec::single_round(ops)
    }

    /// Delivery: settle one pending order per district (simplified to a
    /// customer balance credit per district).
    pub fn delivery(&self, rng: &mut StdRng) -> TransactionSpec {
        let w = self.home_warehouse(rng);
        let mut ops = Vec::new();
        for d in 1..=DISTRICTS_PER_WAREHOUSE {
            let customer = self.customer_key(w, d, rng);
            ops.push(ClientOp::AddInt {
                key: customer,
                col: 0,
                delta: 50,
            });
        }
        TransactionSpec::single_round(ops)
    }

    /// StockLevel: read the district row and twenty stock rows.
    fn stock_level(&self, rng: &mut StdRng) -> TransactionSpec {
        let w = self.home_warehouse(rng);
        let d = rng.gen_range(1..=DISTRICTS_PER_WAREHOUSE);
        let mut ops = vec![ClientOp::Read(wh_key(DISTRICT, w, d))];
        for _ in 0..20 {
            let item = rng.gen_range(1..=self.config.items);
            ops.push(ClientOp::Read(wh_key(STOCK, w, item)));
        }
        TransactionSpec::single_round(ops)
    }
}

/// TPC-C consistency conditions (the spec's §3.3.2 conditions, adapted to
/// the simulated schema), checked over the *final durable state* of the data
/// sources. Every condition is an invariant of the workload itself — each
/// committed transaction preserves it — so any violation convicts the
/// transaction machinery (partial commit, lost write, double apply), not the
/// checker. Returns one line per violated condition; empty means consistent.
///
/// Conditions:
/// 1. `w_ytd = Σ d_ytd` per warehouse (Payment updates both atomically);
/// 2. `d_next_o_id − 1 = |ORDERS(w,d)| = |NEW_ORDER(w,d)|` per district
///    (NewOrder bumps the counter and inserts both rows atomically);
/// 3. `Σ ol_cnt over ORDERS(w,·) = |ORDER_LINE(w,·)|` per warehouse;
/// 4. `Σ (INITIAL_STOCK − s_quantity)` over all stock = total order lines
///    (each committed order line decrements exactly one stock row).
pub fn consistency_violations(config: &TpccConfig, sources: &[Rc<DataSource>]) -> Vec<String> {
    let mut violations = Vec::new();
    let snapshot = |table: TableId| -> Vec<(geotp_storage::Key, Row)> {
        let mut rows = Vec::new();
        for source in sources {
            rows.extend(source.engine().snapshot_table(table));
        }
        rows.sort_by_key(|(k, _)| *k);
        rows
    };
    let col_int = |row: &Row, col: usize| row.int_at(col).unwrap_or(0);

    let warehouses = config.total_warehouses() as u64;
    let districts = snapshot(DISTRICT);
    let orders = snapshot(ORDERS);
    let new_orders = snapshot(NEW_ORDER);
    let order_lines = snapshot(ORDER_LINE);

    // 1. Warehouse YTD equals the sum of its districts' YTDs.
    let warehouse_rows = snapshot(WAREHOUSE);
    if warehouse_rows.len() as u64 != warehouses {
        violations.push(format!(
            "tpcc: expected {warehouses} warehouse rows, found {}",
            warehouse_rows.len()
        ));
    }
    for (key, row) in &warehouse_rows {
        let w = (key.row >> 32) as u32;
        let w_ytd = col_int(row, 0);
        let district_sum: i64 = districts
            .iter()
            .filter(|(k, _)| (k.row >> 32) as u32 == w)
            .map(|(_, r)| col_int(r, 0))
            .sum();
        if w_ytd != district_sum {
            violations.push(format!(
                "tpcc: warehouse {w} w_ytd {w_ytd} != sum of district YTDs {district_sum}"
            ));
        }
    }

    // 2. Per district: order-id counter vs ORDERS vs NEW_ORDER counts.
    for (key, row) in &districts {
        let w = (key.row >> 32) as u32;
        let d = key.row & 0xffff_ffff;
        let issued = col_int(row, 1) - 1; // d_next_o_id starts at 1
        let order_count = orders
            .iter()
            .filter(|(k, _)| {
                let (ow, od, _) = order_key_parts(GlobalKey::new(ORDERS, k.row));
                ow == w && od == d
            })
            .count() as i64;
        let new_order_count = new_orders
            .iter()
            .filter(|(k, _)| {
                let (ow, od, _) = order_key_parts(GlobalKey::new(NEW_ORDER, k.row));
                ow == w && od == d
            })
            .count() as i64;
        if issued != order_count || issued != new_order_count {
            violations.push(format!(
                "tpcc: district ({w},{d}) issued {issued} order ids but has \
                 {order_count} ORDERS / {new_order_count} NEW_ORDER rows"
            ));
        }
    }

    // 3. Per warehouse: declared order-line counts vs actual ORDER_LINE rows.
    for w in 1..=config.total_warehouses() {
        let declared: i64 = orders
            .iter()
            .filter(|(k, _)| (k.row >> 32) as u32 == w)
            .map(|(_, r)| col_int(r, 0))
            .sum();
        let actual = order_lines
            .iter()
            .filter(|(k, _)| (k.row >> 32) as u32 == w)
            .count() as i64;
        if declared != actual {
            violations.push(format!(
                "tpcc: warehouse {w} ORDERS declare {declared} line(s) but \
                 ORDER_LINE holds {actual}"
            ));
        }
    }

    // 4. Global: every committed order line decremented exactly one stock row.
    let stock_consumed: i64 = snapshot(STOCK)
        .iter()
        .map(|(_, r)| INITIAL_STOCK - col_int(r, 0))
        .sum();
    let total_lines = order_lines.len() as i64;
    if stock_consumed != total_lines {
        violations.push(format!(
            "tpcc: {stock_consumed} unit(s) of stock consumed but {total_lines} \
             order line(s) exist"
        ));
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    fn small_config() -> TpccConfig {
        let mut cfg = TpccConfig::new(2, 2);
        cfg.items = 50;
        cfg.customers_per_district = 20;
        cfg
    }

    #[test]
    fn mix_weights_cover_all_profiles() {
        let generator = TpccGenerator::new(small_config());
        let mut rng = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..5000 {
            let txn = generator.pick_transaction(&mut rng);
            *counts.entry(txn.name()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 5);
        let neworder = counts["NewOrder"] as f64 / 5000.0;
        assert!((neworder - 0.45).abs() < 0.05, "NewOrder share {neworder}");
    }

    #[test]
    fn payment_distributed_ratio_controls_cross_node_access() {
        let cfg = small_config()
            .with_only(TpccTransaction::Payment)
            .with_distributed_ratio(0.5);
        let partitioner = cfg.partitioner();
        let generator = TpccGenerator::new(cfg);
        let mut rng = rng();
        let mut distributed = 0;
        let n = 1000;
        for _ in 0..n {
            let spec = generator.payment(&mut rng);
            if partitioner.involved_nodes(&spec.keys()).len() > 1 {
                distributed += 1;
            }
        }
        let ratio = distributed as f64 / n as f64;
        assert!((ratio - 0.5).abs() < 0.07, "distributed ratio {ratio}");
    }

    #[test]
    fn new_order_touches_warehouse_district_stock() {
        let generator = TpccGenerator::new(small_config());
        let spec = generator.new_order(&mut rng());
        let tables: Vec<TableId> = spec.keys().iter().map(|k| k.table).collect();
        assert!(tables.contains(&WAREHOUSE));
        assert!(tables.contains(&DISTRICT));
        assert!(tables.contains(&STOCK));
        assert!(tables.contains(&ORDER_LINE));
        assert_eq!(spec.rounds.len(), 2, "NewOrder is interactive (two rounds)");
        assert!(spec.op_count() >= 5 + 3);
    }

    #[test]
    fn order_ids_are_unique_across_generated_orders() {
        let generator = TpccGenerator::new(small_config());
        let mut rng = rng();
        let mut order_keys = std::collections::HashSet::new();
        for _ in 0..100 {
            let spec = generator.new_order(&mut rng);
            for key in spec.keys() {
                if key.table == ORDERS {
                    assert!(order_keys.insert(key), "duplicate order key {key:?}");
                }
            }
        }
    }

    #[test]
    fn loader_distributes_warehouses_across_nodes() {
        use geotp_net::{NetworkBuilder, NodeId};
        let mut rt = geotp_simrt::Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1).build();
            let cfg = small_config();
            let generator = TpccGenerator::new(cfg.clone());
            let sources: Vec<_> = (0..2)
                .map(|i| {
                    DataSource::new(
                        geotp_datasource::DataSourceConfig::new(NodeId::data_source(i)),
                        Rc::clone(&net),
                    )
                })
                .collect();
            generator.load(&sources);
            // Each node hosts 2 warehouses worth of rows.
            assert!(sources[0].engine().record_count() > 0);
            assert!(sources[1].engine().record_count() > 0);
            // Warehouse 1 lives on node 0, warehouse 3 on node 1.
            assert!(sources[0]
                .engine()
                .peek(wh_key(WAREHOUSE, 1, 0).storage_key())
                .is_some());
            assert!(sources[1]
                .engine()
                .peek(wh_key(WAREHOUSE, 3, 0).storage_key())
                .is_some());
            assert!(sources[0]
                .engine()
                .peek(wh_key(WAREHOUSE, 3, 0).storage_key())
                .is_none());
        });
    }

    #[test]
    fn read_only_profiles_contain_no_writes() {
        let generator = TpccGenerator::new(small_config());
        let mut rng = rng();
        let status = generator.order_status(&mut rng);
        assert!(status.all_ops().all(|op| !op.is_write()));
        let stock = generator.stock_level(&mut rng);
        assert!(stock.all_ops().all(|op| !op.is_write()));
        assert_eq!(stock.op_count(), 21);
    }
}
