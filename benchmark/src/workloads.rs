//! The five workloads. Sizes are fixed in *virtual* seconds, so two commits
//! being compared do identical simulated work; only the number of passes
//! follows the host-time budget.

use std::rc::Rc;
use std::time::Duration;

use crate::driver::{distinct_pair, Generator, Window};
use crate::sut::{
    tpcc_consistency_violations, AdmissionPolicy, ClientOp, DataSource, DeploySpec, Deployment,
    EngineConfig, FrontDoorSpec, GlobalKey, IsolationLevel, Partitioner, Protocol, Rng, Row,
    StdRng, TpccConfig, TpccGenerator, TransactionSpec, YcsbConfig, YcsbGenerator,
    ZipfianGenerator, USERTABLE,
};

const PAPER_RTTS_MS: &[u64] = &[0, 27, 73, 251];
const TIER_RTTS_MS: &[u64] = &[10, 60, 120];
const WARMUP: Duration = Duration::from_secs(2);
const ACCOUNT_BALANCE: i64 = 1_000;
const YCSB_BALANCE: i64 = 10_000;

/// How load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// `terminals` clients, each waiting for its outcome before the next.
    Closed { terminals: usize },
    /// Fixed arrival rates in arrivals per virtual second. End-to-end
    /// metrics are reported at `reference_rate`; `ladder` is walked upward
    /// for the highest rate that still meets the limits.
    Open {
        sessions: u64,
        reference_rate: u64,
        ladder: &'static [u64],
    },
}

/// What is stored and what the transactions look like.
#[derive(Debug, Clone)]
pub enum Dataset {
    Ycsb(YcsbConfig),
    Tpcc(TpccConfig),
    /// `rows_per_node` integer accounts per source in the usertable.
    /// `read_only_share` of the transactions read `read_keys` accounts and
    /// write nothing; the rest move one unit between two accounts. Keys are
    /// uniform when `theta` is `None`, else a uniformly chosen source and a
    /// Zipfian row on it.
    Accounts {
        nodes: u32,
        rows_per_node: u64,
        theta: Option<f64>,
        read_only_share: f64,
        read_keys: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub deploy: DeploySpec,
    pub dataset: Dataset,
    pub load: Load,
    pub window: Window,
    /// Independent generator streams per run. Virtual-time results of one
    /// stream depend on the seed (contended closed loops are chaotic), so a
    /// run reports their median over this many streams.
    pub instances: usize,
}

pub const NAMES: [&str; 5] = [
    "ycsb_paper",
    "ycsb_contended",
    "tpcc_mix",
    "tier_openloop",
    "snapshot_readmostly",
];

pub fn by_name(name: &str) -> Option<Workload> {
    let window = |secs| Window {
        warmup: WARMUP,
        measure: Duration::from_secs(secs),
    };
    let single = |rtts, partitioner| DeploySpec {
        ds_rtts_ms: rtts,
        partitioner,
        protocol: Protocol::geotp(),
        engine: EngineConfig::default(),
        front_door: FrontDoorSpec::Single,
    };
    Some(match name {
        "ycsb_paper" => {
            let ycsb = YcsbConfig::new(4, 1_000_000);
            Workload {
                name: "ycsb_paper",
                // Why: the paper's default YCSB: 80% single-source txns over 4M rows
                // (~590 MB, far beyond CPU cache), so storage point access and
                // simrt timers dominate host time and protocol work is small
                deploy: single(PAPER_RTTS_MS, ycsb.partitioner()),
                dataset: Dataset::Ycsb(ycsb),
                load: Load::Closed { terminals: 256 },
                window: window(120),
                instances: 4,
            }
        }
        "ycsb_contended" => {
            let ycsb = YcsbConfig::new(4, 100_000).with_distributed_ratio(1.0);
            Workload {
                name: "ycsb_contended",
                // Why: every txn distributed and hot over a cache-resident table:
                // decentralized prepare, O2 postpone, O3 admission, early aborts
                // and lock waits do the work while table size is irrelevant
                deploy: single(PAPER_RTTS_MS, ycsb.partitioner()),
                dataset: Dataset::Ycsb(ycsb),
                load: Load::Closed { terminals: 64 },
                window: window(600),
                instances: 6,
            }
        }
        "tpcc_mix" => {
            let tpcc = TpccConfig::new(4, 16);
            Workload {
                name: "tpcc_mix",
                // Why: the paper's second benchmark: multi-round txns with inserts and
                // deletes and long lock spans, so a gain for point updates that
                // costs inserts or multi-round sessions shows
                deploy: single(PAPER_RTTS_MS, tpcc.partitioner()),
                dataset: Dataset::Tpcc(tpcc),
                load: Load::Closed { terminals: 64 },
                window: window(120),
                instances: 4,
            }
        }
        "tier_openloop" => {
            let rows_per_node = 100_000;
            let nodes = TIER_RTTS_MS.len() as u32;
            Workload {
                name: "tier_openloop",
                // Why: open-loop arrivals through a 2-coordinator tier with bounded
                // admission: the only workload where the cluster layer (gate,
                // ring, session registry, heartbeats, shedding) does real work
                deploy: DeploySpec {
                    ds_rtts_ms: TIER_RTTS_MS,
                    partitioner: Partitioner::Range {
                        rows_per_node,
                        nodes,
                    },
                    protocol: Protocol::geotp(),
                    engine: EngineConfig::default(),
                    front_door: FrontDoorSpec::Tier {
                        coordinators: 2,
                        workers_per_coordinator: 32,
                        admission: AdmissionPolicy::bounded(64, Duration::from_millis(500)),
                        snapshot_reads: false,
                    },
                },
                dataset: Dataset::Accounts {
                    nodes,
                    rows_per_node,
                    theta: None,
                    read_only_share: 0.0,
                    read_keys: 0,
                },
                load: Load::Open {
                    sessions: 512,
                    reference_rate: 250,
                    ladder: &[150, 250, 350, 450, 600],
                },
                window: window(120),
                instances: 4,
            }
        }
        "snapshot_readmostly" => {
            let rows_per_node = 25_000;
            Workload {
                name: "snapshot_readmostly",
                // Why: read-mostly mix on SnapshotRead engines with group commit:
                // version chains, snapshot registry, GC and group flush, zero read
                // locks, so a 2PL-path gain that costs the MVCC path (or the
                // reverse) shows
                deploy: DeploySpec {
                    ds_rtts_ms: PAPER_RTTS_MS,
                    partitioner: Partitioner::Range {
                        rows_per_node,
                        nodes: 4,
                    },
                    // O3's admission lottery would serialise the contrast the
                    // workload exists for, as in the MVCC chaos presets.
                    protocol: Protocol::geotp_o1_o2(),
                    engine: EngineConfig {
                        isolation: IsolationLevel::SnapshotRead,
                        group_commit_window: Duration::from_millis(1),
                        ..EngineConfig::default()
                    },
                    front_door: FrontDoorSpec::Tier {
                        coordinators: 1,
                        workers_per_coordinator: 0,
                        admission: AdmissionPolicy::default(),
                        snapshot_reads: true,
                    },
                },
                dataset: Dataset::Accounts {
                    nodes: 4,
                    rows_per_node,
                    theta: Some(0.9),
                    read_only_share: 0.9,
                    read_keys: 8,
                },
                load: Load::Closed { terminals: 128 },
                window: window(20),
                instances: 4,
            }
        }
        _ => return None,
    })
}

impl Dataset {
    /// Bulk-load every source.
    pub fn load(&self, sources: &[Rc<DataSource>]) {
        match self {
            Dataset::Ycsb(config) => YcsbGenerator::new(*config).load(sources),
            Dataset::Tpcc(config) => TpccGenerator::new(config.clone()).load(sources),
            Dataset::Accounts { rows_per_node, .. } => {
                for (node, source) in sources.iter().enumerate() {
                    let base = node as u64 * rows_per_node;
                    for row in base..base + rows_per_node {
                        source.load(
                            GlobalKey::new(USERTABLE, row).storage_key(),
                            Row::int(ACCOUNT_BALANCE),
                        );
                    }
                }
            }
        }
    }

    /// A fresh generator (TPC-C's carries an order-id counter, so one per
    /// pass keeps passes identical).
    pub fn generator(&self) -> Generator {
        match self {
            Dataset::Ycsb(config) => {
                let generator = YcsbGenerator::new(*config);
                Rc::new(move |rng| generator.generate(rng).0)
            }
            Dataset::Tpcc(config) => {
                let generator = TpccGenerator::new(config.clone());
                Rc::new(move |rng| generator.generate(rng).0)
            }
            Dataset::Accounts {
                nodes,
                rows_per_node,
                theta,
                read_only_share,
                read_keys,
            } => {
                let (nodes, rows_per_node) = (*nodes as u64, *rows_per_node);
                let (read_only_share, read_keys) = (*read_only_share, *read_keys);
                let zipf = theta.map(|theta| ZipfianGenerator::new(rows_per_node, theta));
                let account_on = move |node: u64, rng: &mut StdRng| {
                    let local = zipf.as_ref().expect("skewed mix").next(rng);
                    GlobalKey::new(USERTABLE, node * rows_per_node + local)
                };
                let account = {
                    let account_on = account_on.clone();
                    move |rng: &mut StdRng| account_on(rng.gen_range(0..nodes), rng)
                };
                let skewed = theta.is_some();
                Rc::new(move |rng| {
                    if read_only_share > 0.0 && rng.gen::<f64>() < read_only_share {
                        // A read-only transaction stays on one source, like
                        // YCSB's centralized transactions.
                        let node = rng.gen_range(0..nodes);
                        let reads = (0..read_keys)
                            .map(|_| ClientOp::Read(account_on(node, rng)))
                            .collect();
                        // Unannotated, so a snapshot-read front door commits
                        // it without a prepare round.
                        return TransactionSpec::single_round(reads).without_annotation();
                    }
                    let (from, to) = if skewed {
                        let from = account(rng);
                        let mut to = account(rng);
                        while to == from {
                            to = account(rng);
                        }
                        (from, to)
                    } else {
                        let (a, b) = distinct_pair(rng, nodes * rows_per_node);
                        (GlobalKey::new(USERTABLE, a), GlobalKey::new(USERTABLE, b))
                    };
                    // Touch the two rows in key order: opposite transfers
                    // over one pair then queue instead of deadlocking.
                    let (lo, hi, d) = if from < to {
                        (from, to, -1)
                    } else {
                        (to, from, 1)
                    };
                    TransactionSpec::single_round(vec![ClientOp::add(lo, d), ClientOp::add(hi, -d)])
                })
            }
        }
    }

    /// Rows loaded into the usertable (0 for TPC-C, which has its own tables).
    pub fn usertable_rows(&self) -> u64 {
        match self {
            Dataset::Ycsb(config) => config.nodes as u64 * config.records_per_node,
            Dataset::Tpcc(_) => 0,
            Dataset::Accounts {
                nodes,
                rows_per_node,
                ..
            } => *nodes as u64 * rows_per_node,
        }
    }

    /// Check the stored data against what the committed transactions must
    /// have done to it. Returns one line per violation and, for the
    /// fingerprint, the per-source usertable sums.
    pub fn check(&self, deployment: &Deployment, committed_delta: i64) -> (Vec<String>, Vec<i64>) {
        let mut violations = Vec::new();
        let sums = deployment.int_sums(USERTABLE, self.usertable_rows());
        let initial = match self {
            Dataset::Ycsb(_) => YCSB_BALANCE,
            Dataset::Tpcc(_) | Dataset::Accounts { .. } => ACCOUNT_BALANCE,
        };
        let expected = self.usertable_rows() as i64 * initial + committed_delta;
        let found: i64 = sums.iter().sum();
        if found != expected {
            violations.push(format!(
                "usertable sums to {found}, but the load plus every committed update is {expected}"
            ));
        }
        match self {
            Dataset::Tpcc(config) => {
                violations.extend(tpcc_consistency_violations(config, deployment.sources()));
            }
            Dataset::Accounts { .. } if committed_delta != 0 => {
                violations.push(format!("transfers are not zero-sum: {committed_delta}"));
            }
            _ => {}
        }
        (violations, sums)
    }
}
