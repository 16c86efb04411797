//! The transactional YCSB variant used in the paper's evaluation (§VII-A2):
//! each transaction has 5 operations, each a 50/50 read or write, over a
//! `usertable` partitioned with a fixed number of records per data node.
//! The *skew factor* (Zipfian theta) controls contention and the
//! *distributed-transaction ratio* controls how many transactions touch more
//! than one data node.

use std::rc::Rc;

use geotp_datasource::DataSource;
use geotp_middleware::{ClientOp, GlobalKey, Partitioner, TransactionSpec};
use geotp_storage::{Row, TableId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::zipfian::ZipfianGenerator;

/// The `usertable` table id.
pub const USERTABLE: TableId = TableId(0);

/// The paper's three contention presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contention {
    /// Skew factor 0.3.
    Low,
    /// Skew factor 0.9.
    Medium,
    /// Skew factor 1.5.
    High,
}

impl Contention {
    /// The Zipfian theta for this preset.
    pub fn theta(&self) -> f64 {
        match self {
            Contention::Low => 0.3,
            Contention::Medium => 0.9,
            Contention::High => 1.5,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Contention::Low => "low",
            Contention::Medium => "medium",
            Contention::High => "high",
        }
    }
}

/// YCSB workload configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YcsbConfig {
    /// Records hosted per data node (paper: 1 million).
    pub records_per_node: u64,
    /// Number of data nodes.
    pub nodes: u32,
    /// Operations per transaction (paper default: 5).
    pub ops_per_txn: usize,
    /// Probability that an operation is a read (paper default: 0.5).
    pub read_ratio: f64,
    /// Zipfian skew factor.
    pub theta: f64,
    /// Fraction of transactions that access more than one data node.
    pub distributed_ratio: f64,
    /// Number of data nodes a distributed transaction touches (paper: 2).
    pub nodes_per_distributed_txn: usize,
    /// Number of interactive rounds the operations are spread over.
    pub rounds: usize,
    /// If set, centralized transactions always run on this node and
    /// distributed transactions always include it (the Fig. 1b motivating
    /// setup where all centralized traffic hits DS1).
    pub home_node: Option<u32>,
}

impl YcsbConfig {
    /// The paper's default configuration scaled to `records_per_node`.
    pub fn new(nodes: u32, records_per_node: u64) -> Self {
        Self {
            records_per_node,
            nodes,
            ops_per_txn: 5,
            read_ratio: 0.5,
            theta: Contention::Medium.theta(),
            distributed_ratio: 0.2,
            nodes_per_distributed_txn: 2,
            rounds: 1,
            home_node: None,
        }
    }

    /// Set the contention preset.
    pub fn with_contention(mut self, contention: Contention) -> Self {
        self.theta = contention.theta();
        self
    }

    /// Set the distributed-transaction ratio.
    pub fn with_distributed_ratio(mut self, ratio: f64) -> Self {
        self.distributed_ratio = ratio;
        self
    }

    /// The partitioner matching this workload's layout.
    pub fn partitioner(&self) -> Partitioner {
        Partitioner::Range {
            rows_per_node: self.records_per_node,
            nodes: self.nodes,
        }
    }
}

/// The most data nodes one transaction may touch: the generator keeps them in
/// a fixed array rather than a per-transaction `Vec`.
const MAX_TXN_NODES: usize = 8;

/// Generates YCSB transactions.
pub struct YcsbGenerator {
    config: YcsbConfig,
    zipf: ZipfianGenerator,
}

impl YcsbGenerator {
    /// Create a generator for the given configuration.
    pub fn new(config: YcsbConfig) -> Self {
        assert!(config.nodes >= 1);
        assert!(config.ops_per_txn >= 1);
        assert!(config.rounds >= 1);
        assert!(
            config.nodes_per_distributed_txn.min(config.nodes as usize) <= MAX_TXN_NODES,
            "a transaction touches at most {MAX_TXN_NODES} nodes"
        );
        Self {
            zipf: ZipfianGenerator::new(config.records_per_node, config.theta),
            config,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &YcsbConfig {
        &self.config
    }

    /// Populate every data source with its partition of the usertable.
    /// Records start with a balance of 10 000.
    pub fn load(&self, sources: &[Rc<DataSource>]) {
        for (node, source) in sources.iter().enumerate() {
            let base = node as u64 * self.config.records_per_node;
            source.load_run(
                GlobalKey::new(USERTABLE, base).storage_key(),
                self.config.records_per_node,
                Row::int(10_000),
            );
        }
    }

    fn key_on_node(&self, node: u32, rng: &mut StdRng) -> GlobalKey {
        let local = self.zipf.next(rng);
        GlobalKey::new(
            USERTABLE,
            node as u64 * self.config.records_per_node + local,
        )
    }

    /// Fill `nodes` with the transaction's data nodes, home first, and
    /// return the filled prefix.
    fn pick_nodes<'a>(
        &self,
        rng: &mut StdRng,
        distributed: bool,
        nodes: &'a mut [u32; MAX_TXN_NODES],
    ) -> &'a [u32] {
        nodes[0] = self
            .config
            .home_node
            .unwrap_or_else(|| rng.gen_range(0..self.config.nodes));
        let wanted = if !distributed || self.config.nodes == 1 {
            1
        } else {
            self.config
                .nodes_per_distributed_txn
                .clamp(2, self.config.nodes as usize)
        };
        let mut len = 1;
        while len < wanted {
            let candidate = rng.gen_range(0..self.config.nodes);
            if !nodes[..len].contains(&candidate) {
                nodes[len] = candidate;
                len += 1;
            }
        }
        &nodes[..len]
    }

    /// Generate one transaction. Returns the spec and whether it is
    /// distributed by construction.
    pub fn generate(&self, rng: &mut StdRng) -> (TransactionSpec, bool) {
        let distributed = rng.gen::<f64>() < self.config.distributed_ratio;
        let mut picked = [0; MAX_TXN_NODES];
        let nodes = self.pick_nodes(rng, distributed, &mut picked);
        let mut ops: Vec<ClientOp> = Vec::with_capacity(self.config.ops_per_txn);
        for i in 0..self.config.ops_per_txn {
            // Spread operations over the involved nodes round-robin so every
            // involved node receives at least one operation.
            let node = nodes[i % nodes.len()];
            let mut key = self.key_on_node(node, rng);
            for _ in 0..8 {
                if !ops.iter().any(|op| op.key() == key) {
                    break;
                }
                key = self.key_on_node(node, rng);
            }
            let op = if rng.gen::<f64>() < self.config.read_ratio {
                ClientOp::Read(key)
            } else {
                ClientOp::add(key, 1)
            };
            ops.push(op);
        }

        let spec = if self.config.rounds <= 1 {
            TransactionSpec::single_round(ops)
        } else {
            let rounds = self.config.rounds.min(ops.len());
            let chunk = ops.len().div_ceil(rounds);
            TransactionSpec::multi_round(ops.chunks(chunk).map(<[ClientOp]>::to_vec).collect())
        };
        (spec, nodes.len() > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn contention_presets_match_paper() {
        assert_eq!(Contention::Low.theta(), 0.3);
        assert_eq!(Contention::Medium.theta(), 0.9);
        assert_eq!(Contention::High.theta(), 1.5);
    }

    #[test]
    fn distributed_ratio_is_respected() {
        let config = YcsbConfig::new(4, 1000).with_distributed_ratio(0.4);
        let generator = YcsbGenerator::new(config);
        let partitioner = config.partitioner();
        let mut rng = rng();
        let mut distributed = 0;
        let n = 2000;
        for _ in 0..n {
            let (spec, is_distributed) = generator.generate(&mut rng);
            let involved = partitioner.involved_nodes(&spec.keys());
            assert_eq!(involved.len() > 1, is_distributed);
            if is_distributed {
                distributed += 1;
            }
            assert_eq!(spec.op_count(), 5);
        }
        let ratio = distributed as f64 / n as f64;
        assert!(
            (ratio - 0.4).abs() < 0.05,
            "observed distributed ratio {ratio}"
        );
    }

    #[test]
    fn home_node_pins_centralized_transactions() {
        let mut config = YcsbConfig::new(2, 1000).with_distributed_ratio(0.2);
        config.home_node = Some(0);
        let generator = YcsbGenerator::new(config);
        let partitioner = config.partitioner();
        let mut rng = rng();
        for _ in 0..500 {
            let (spec, is_distributed) = generator.generate(&mut rng);
            let involved = partitioner.involved_nodes(&spec.keys());
            assert!(involved.contains(&0), "home node must always participate");
            if !is_distributed {
                assert_eq!(involved, vec![0]);
            }
        }
    }

    #[test]
    fn read_ratio_and_write_mix() {
        let mut config = YcsbConfig::new(1, 1000);
        config.read_ratio = 0.5;
        config.ops_per_txn = 10;
        let generator = YcsbGenerator::new(config);
        let mut rng = rng();
        let mut reads = 0;
        let mut total = 0;
        for _ in 0..500 {
            let (spec, _) = generator.generate(&mut rng);
            for op in spec.all_ops() {
                total += 1;
                if !op.is_write() {
                    reads += 1;
                }
            }
        }
        let ratio = reads as f64 / total as f64;
        assert!((ratio - 0.5).abs() < 0.05, "read ratio {ratio}");
    }

    #[test]
    fn rounds_split_operations() {
        let mut config = YcsbConfig::new(2, 1000);
        config.rounds = 3;
        config.ops_per_txn = 6;
        let generator = YcsbGenerator::new(config);
        let (spec, _) = generator.generate(&mut rng());
        assert_eq!(spec.rounds.len(), 3);
        assert_eq!(spec.op_count(), 6);
    }

    #[test]
    fn skew_concentrates_keys_within_each_partition() {
        let config = YcsbConfig::new(2, 1000).with_contention(Contention::High);
        let generator = YcsbGenerator::new(config);
        let mut rng = rng();
        let mut hot = 0;
        let mut total = 0;
        for _ in 0..1000 {
            let (spec, _) = generator.generate(&mut rng);
            for key in spec.keys() {
                total += 1;
                if key.row % 1000 < 10 {
                    hot += 1;
                }
            }
        }
        assert!(
            hot as f64 / total as f64 > 0.5,
            "high contention should focus on hot keys ({hot}/{total})"
        );
    }

    #[test]
    fn load_populates_every_partition() {
        use geotp_net::{NetworkBuilder, NodeId};
        let mut rt = geotp_simrt::Runtime::new();
        rt.block_on(async {
            let net = NetworkBuilder::new(1).build();
            let config = YcsbConfig::new(2, 50);
            let generator = YcsbGenerator::new(config);
            let sources: Vec<_> = (0..2)
                .map(|i| {
                    DataSource::new(
                        geotp_datasource::DataSourceConfig::new(NodeId::data_source(i)),
                        Rc::clone(&net),
                    )
                })
                .collect();
            generator.load(&sources);
            assert_eq!(sources[0].engine().record_count(), 50);
            assert_eq!(sources[1].engine().record_count(), 50);
            assert!(sources[1]
                .engine()
                .peek(GlobalKey::new(USERTABLE, 50).storage_key())
                .is_some());
        });
    }
}
