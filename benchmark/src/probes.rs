//! Host-time probes: each times calls into one layer's public functions in
//! isolation and reports nanoseconds per call (median over batches).
//!
//! The layer peel drives one fixed uncontended transaction — two reads and
//! two increments on one source — at four stack depths (engine, geo-agent
//! connection, middleware session, tier session) over the same 1M-row table,
//! so each layer's host self-time is the difference between neighbours.
//! Every batch is recorded as a host-time span under its probe's root span.

use std::future::Future;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::driver::join_each;
use crate::json::Json;
use crate::stats::median;
use crate::sut::{
    mpsc, probe_link, sleep, spawn, warmed_router, BranchPlan, ClientOp, CostModel, DsOperation,
    EngineConfig, GlobalKey, IsolationLevel, Key, LockManager, LockMode, Partitioner, ProbeRig,
    Rng, Row, Runtime, SeedableRng, SqlParser, StatementRequest, StdRng, StorageEngine, TpccConfig,
    TpccGenerator, TransactionSpec, Xid, YcsbConfig, YcsbGenerator, USERTABLE,
};

const BATCHES: usize = 5;
const BIG_ROWS: u64 = 1_000_000;
const SMALL_ROWS: u64 = 100_000;

/// A host-time span: a probe's root or one of its batches.
struct HostSpan {
    name: &'static str,
    id: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Probes {
    epoch: Instant,
    spans: Vec<HostSpan>,
    results: Vec<(&'static str, f64)>,
}

impl Probes {
    /// Nanoseconds per call of the named probe.
    pub fn get(&self, name: &str) -> f64 {
        self.results
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("probe {name} did not run"))
    }

    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }

    fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `BATCHES` batches of `calls` calls each; `batch(i)` runs batch `i`.
    async fn time<F, Fut>(&mut self, name: &'static str, calls: u64, batch: F)
    where
        F: FnMut(u64) -> Fut,
        Fut: Future<Output = ()>,
    {
        let samples = self.time_settled(name, calls, Duration::ZERO, batch).await;
        self.results.push((name, median(&samples)));
    }

    /// Time the batches without recording a result, sleeping `settle` of
    /// virtual time (untimed) before each. Returns the nanoseconds per call
    /// of every batch, in order.
    async fn time_settled<F, Fut>(
        &mut self,
        name: &'static str,
        calls: u64,
        settle: Duration,
        mut batch: F,
    ) -> Vec<f64>
    where
        F: FnMut(u64) -> Fut,
        Fut: Future<Output = ()>,
    {
        let root = self.spans.len();
        self.spans.push(HostSpan {
            name,
            id: root,
            parent: None,
            start_ns: self.stamp(),
            end_ns: 0,
        });
        let mut samples = Vec::with_capacity(BATCHES);
        for i in 0..BATCHES as u64 {
            if !settle.is_zero() {
                sleep(settle).await;
            }
            let start_ns = self.stamp();
            batch(i).await;
            let end_ns = self.stamp();
            samples.push((end_ns - start_ns) as f64 / calls as f64);
            self.spans.push(HostSpan {
                name,
                id: self.spans.len(),
                parent: Some(root),
                start_ns,
                end_ns,
            });
        }
        self.spans[root].end_ns = self.stamp();
        samples
    }
}

fn key(row: u64) -> Key {
    GlobalKey::new(USERTABLE, row).storage_key()
}

/// The peel transaction's four distinct rows on the big source.
fn four_rows(rng: &mut StdRng) -> [u64; 4] {
    let base = rng.gen_range(0..BIG_ROWS - 4);
    [base, base + 1, base + 2, base + 3]
}

fn peel_spec(rows: [u64; 4]) -> TransactionSpec {
    let k = |r| GlobalKey::new(USERTABLE, r);
    TransactionSpec::single_round(vec![
        ClientOp::Read(k(rows[0])),
        ClientOp::Read(k(rows[1])),
        ClientOp::add(k(rows[2]), 1),
        ClientOp::add(k(rows[3]), 1),
    ])
}

pub fn run_all() -> Probes {
    let mut probes = Probes {
        epoch: Instant::now(),
        spans: Vec::new(),
        results: Vec::new(),
    };
    Runtime::new().block_on(simrt_and_net(&mut probes));
    Runtime::new().block_on(locks(&mut probes));
    Runtime::new().block_on(layer_peel(&mut probes));
    Runtime::new().block_on(snapshot_branch(&mut probes));
    Runtime::new().block_on(generators_and_parser(&mut probes));
    probes
}

async fn simrt_and_net(probes: &mut Probes) {
    const N: u64 = 100_000;
    probes
        .time("simrt.probe_timer_ns", N, |_| async {
            for i in 0..N {
                sleep(Duration::from_micros(1 + i % 7)).await;
            }
        })
        .await;
    probes
        .time("simrt.probe_spawn_ns", N, |_| async {
            let tasks: Vec<_> = (0..N).map(|i| spawn(async move { i })).collect();
            std::hint::black_box(join_each(tasks).await);
        })
        .await;
    // A ping-pong between two tasks: every message wakes its receiver.
    probes
        .time("simrt.probe_channel_ns", 2 * N, |_| async {
            let (ping_tx, mut ping_rx) = mpsc::unbounded::<u64>();
            let (pong_tx, mut pong_rx) = mpsc::unbounded::<u64>();
            let echo = spawn(async move {
                while let Some(v) = ping_rx.recv().await {
                    if pong_tx.send(v).is_err() {
                        break;
                    }
                }
            });
            for i in 0..N {
                ping_tx.send(i).expect("echo task is alive");
                std::hint::black_box(pong_rx.recv().await);
            }
            drop(ping_tx);
            echo.await;
        })
        .await;
    let (net, a, b) = probe_link(Duration::from_millis(1));
    probes
        .time("net.probe_transfer_ns", N, |_| {
            let net = Rc::clone(&net);
            async move {
                for _ in 0..N {
                    net.transfer(a, b).await;
                }
            }
        })
        .await;
}

async fn locks(probes: &mut Probes) {
    const N: u64 = 50_000;
    let manager = LockManager::new(Duration::from_secs(5));
    probes
        .time("storage.probe_lock_ns", 4 * N, |batch| {
            let manager = Rc::clone(&manager);
            async move {
                for i in 0..N {
                    let xid = Xid::new(1 + batch * N + i, 0);
                    for k in 0..4 {
                        manager
                            .acquire(xid, key((i * 4 + k) % SMALL_ROWS), LockMode::Exclusive)
                            .await
                            .expect("uncontended");
                    }
                    std::hint::black_box(manager.release_all(xid));
                }
            }
        })
        .await;
    // 64 writers queue on one row; each holds it across one timer tick so the
    // rest are parked behind it, then hands it to the next waiter.
    //
    // Every parked `acquire` arms the 5 s lock-wait timeout. A grant abandons
    // that timer, but it stays in a coarse slot of the runtime's timer wheel
    // until its deadline, and finding the next deadline scans every entry of
    // the first occupied slot. So the hand-off is timed twice: with virtual
    // time run past the timeout before each batch (a drained wheel: the lock
    // manager's own cost), and back to back, where the last batch runs behind
    // four batches' worth of abandoned timers. The ratio of that last batch to
    // the drained cost is what a fix to the wheel should bring down to 1.
    const WRITERS: u64 = 64;
    const ROUNDS: u64 = 50;
    let handoffs = |manager: &Rc<LockManager>, first_gtrid: u64| {
        let manager = Rc::clone(manager);
        async move {
            let tasks: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let manager = Rc::clone(&manager);
                    spawn(async move {
                        for r in 0..ROUNDS {
                            let xid = Xid::new(first_gtrid + w * ROUNDS + r, 0);
                            manager
                                .acquire(xid, key(0), LockMode::Exclusive)
                                .await
                                .expect("granted within the timeout");
                            sleep(Duration::from_micros(1)).await;
                            manager.release_all(xid);
                        }
                    })
                })
                .collect();
            join_each(tasks).await;
        }
    };
    let past_timeout = manager.wait_timeout() + Duration::from_secs(1);
    let drained = probes
        .time_settled(
            "storage.probe_lock_contended_ns",
            WRITERS * ROUNDS,
            past_timeout,
            |batch| handoffs(&manager, (1 << 32) + batch * WRITERS * ROUNDS),
        )
        .await;
    probes
        .results
        .push(("storage.probe_lock_contended_ns", median(&drained)));
    sleep(past_timeout).await;
    let back_to_back = probes
        .time_settled(
            "simrt.probe_stale_timer_ratio",
            WRITERS * ROUNDS,
            Duration::ZERO,
            |batch| handoffs(&manager, (2 << 32) + batch * WRITERS * ROUNDS),
        )
        .await;
    probes.results.push((
        "simrt.probe_stale_timer_ratio",
        back_to_back[BATCHES - 1] / median(&drained),
    ));
}

async fn layer_peel(probes: &mut Probes) {
    let engine_config = EngineConfig {
        cost: CostModel::zero(),
        ..EngineConfig::default()
    };
    let partitioner = Partitioner::Range {
        rows_per_node: BIG_ROWS,
        nodes: 2,
    };
    let rig = Rc::new(ProbeRig::build(partitioner, engine_config));
    let started = Instant::now();
    for row in 0..BIG_ROWS {
        rig.sources()[0].load(key(row), Row::int(0));
    }
    let load_ns = started.elapsed().as_nanos() as f64 / BIG_ROWS as f64;
    probes
        .results
        .push(("storage.probe_load_ns_per_row", load_ns));
    for row in BIG_ROWS..BIG_ROWS + SMALL_ROWS {
        rig.sources()[1].load(key(row), Row::int(0));
    }

    const N: u64 = 5_000;
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut next_gtrid = 1u64 << 40;

    let batch_rows: Vec<[u64; 4]> = (0..N).map(|_| four_rows(&mut rng)).collect();
    let batch_rows = Rc::new(batch_rows);

    let engine: Rc<StorageEngine> = Rc::clone(rig.engine());
    probes
        .time("storage.probe_branch_ns", N, |_| {
            let engine = Rc::clone(&engine);
            let rows = Rc::clone(&batch_rows);
            let base = next_gtrid;
            next_gtrid += N;
            async move {
                for (i, r) in rows.iter().enumerate() {
                    let xid = Xid::new(base + i as u64, 0);
                    engine.begin(xid).expect("fresh xid");
                    std::hint::black_box(engine.read(xid, key(r[0])).await.expect("row loaded"));
                    std::hint::black_box(engine.read(xid, key(r[1])).await.expect("row loaded"));
                    engine
                        .add_int(xid, key(r[2]), 0, 1)
                        .await
                        .expect("row loaded");
                    engine
                        .add_int(xid, key(r[3]), 0, 1)
                        .await
                        .expect("row loaded");
                    engine.prepare(xid).await.expect("active branch");
                    engine.commit(xid, false).await.expect("prepared branch");
                }
            }
        })
        .await;

    probes
        .time("datasource.probe_branch_ns", N, |_| {
            let rig = Rc::clone(&rig);
            let rows = Rc::clone(&batch_rows);
            let base = next_gtrid;
            next_gtrid += N;
            async move {
                let connection = rig.connection();
                for (i, r) in rows.iter().enumerate() {
                    let xid = Xid::new(base + i as u64, 0);
                    let mut request = StatementRequest::simple(
                        xid,
                        vec![
                            DsOperation::Read { key: key(r[0]) },
                            DsOperation::Read { key: key(r[1]) },
                            DsOperation::AddInt {
                                key: key(r[2]),
                                col: 0,
                                delta: 1,
                            },
                            DsOperation::AddInt {
                                key: key(r[3]),
                                col: 0,
                                delta: 1,
                            },
                        ],
                    );
                    request.begin = true;
                    request.is_last = true;
                    let response = connection.execute(request).await;
                    assert!(response.outcome.is_ok(), "uncontended statement batch");
                    assert!(connection.prepare(xid).await.is_yes());
                    connection
                        .commit(xid, false)
                        .await
                        .expect("prepared branch");
                }
            }
        })
        .await;

    let specs: Rc<Vec<TransactionSpec>> =
        Rc::new(batch_rows.iter().map(|r| peel_spec(*r)).collect());
    for (name, through_tier) in [
        ("middleware.probe_txn_ns", false),
        ("cluster.probe_txn_ns", true),
    ] {
        probes
            .time(name, N, |_| {
                let rig = Rc::clone(&rig);
                let specs = Rc::clone(&specs);
                async move {
                    let mut session = if through_tier {
                        rig.tier_session(1)
                    } else {
                        rig.middleware_session(1)
                    };
                    for spec in specs.iter() {
                        assert!(session.run_spec(spec).await.committed);
                    }
                }
            })
            .await;
    }

    // One row on each source: the distributed path (decentralized prepare,
    // vote wait, commit dispatch) on top of the same statement work.
    let dist_specs: Rc<Vec<TransactionSpec>> = Rc::new(
        (0..N)
            .map(|_| {
                let local = GlobalKey::new(USERTABLE, rng.gen_range(0..BIG_ROWS));
                let remote = GlobalKey::new(USERTABLE, BIG_ROWS + rng.gen_range(0..SMALL_ROWS));
                TransactionSpec::single_round(vec![
                    ClientOp::add(local, 1),
                    ClientOp::add(remote, -1),
                ])
            })
            .collect(),
    );
    probes
        .time("middleware.probe_dist_txn_ns", N, |_| {
            let rig = Rc::clone(&rig);
            let specs = Rc::clone(&dist_specs);
            async move {
                let mut session = rig.middleware_session(2);
                for spec in specs.iter() {
                    assert!(session.run_spec(spec).await.committed);
                }
            }
        })
        .await;

    let script = "BEGIN; SELECT * FROM usertable WHERE id = 11; \
                  UPDATE usertable SET bal = bal + 1 WHERE id = 12 /*+ last */; COMMIT;";
    probes
        .time("middleware.probe_sql_cached_ns", N, |_| {
            let rig = Rc::clone(&rig);
            async move {
                for _ in 0..N {
                    assert!(rig.run_sql(script).await);
                }
            }
        })
        .await;

    let plans = Rc::new(vec![
        BranchPlan {
            ds_index: 0,
            keys: (0..3).map(|r| GlobalKey::new(USERTABLE, r)).collect(),
        },
        BranchPlan {
            ds_index: 1,
            keys: (0..2)
                .map(|r| GlobalKey::new(USERTABLE, BIG_ROWS + r))
                .collect(),
        },
    ]);
    const CALLS: u64 = 100_000;
    probes
        .time("middleware.probe_schedule_ns", CALLS, |_| {
            let rig = Rc::clone(&rig);
            let plans = Rc::clone(&plans);
            async move {
                for _ in 0..CALLS {
                    std::hint::black_box(rig.scheduler().schedule(std::hint::black_box(&plans)));
                }
            }
        })
        .await;
    // One transaction's worth of hotspot bookkeeping on five rows.
    const TXNS: u64 = 10_000;
    let hot_keys: Rc<Vec<[GlobalKey; 5]>> = Rc::new(
        (0..TXNS)
            .map(|_| {
                let base = rng.gen_range(0..SMALL_ROWS);
                std::array::from_fn(|k| GlobalKey::new(USERTABLE, base + k as u64))
            })
            .collect(),
    );
    probes
        .time("middleware.probe_hotspot_ns", TXNS, |_| {
            let rig = Rc::clone(&rig);
            let hot_keys = Rc::clone(&hot_keys);
            async move {
                let mut footprint = rig.scheduler().footprint().borrow_mut();
                for keys in hot_keys.iter() {
                    footprint.on_access_start(keys);
                    footprint.on_subtxn_feedback(keys, Duration::from_micros(300));
                    footprint.on_txn_finish(keys, true);
                }
            }
        })
        .await;
}

async fn snapshot_branch(probes: &mut Probes) {
    let engine = StorageEngine::new(EngineConfig {
        cost: CostModel::zero(),
        isolation: IsolationLevel::SnapshotRead,
        ..EngineConfig::default()
    });
    for row in 0..SMALL_ROWS {
        engine.load(key(row), Row::int(0));
    }
    const N: u64 = 40;
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut next_gtrid = 1u64;
    probes
        .time("storage.probe_snapshot_branch_ns", N, |_| {
            let engine = Rc::clone(&engine);
            let rows: Vec<u64> = (0..N * 8).map(|_| rng.gen_range(0..SMALL_ROWS)).collect();
            let base = next_gtrid;
            next_gtrid += N;
            async move {
                for (i, reads) in rows.chunks(8).enumerate() {
                    let xid = Xid::new(base + i as u64, 0);
                    engine.begin(xid).expect("fresh xid");
                    for row in reads {
                        std::hint::black_box(engine.read(xid, key(*row)).await.expect("loaded"));
                    }
                    engine.commit_read_only(xid).expect("read-only branch");
                }
            }
        })
        .await;
}

async fn generators_and_parser(probes: &mut Probes) {
    const N: u64 = 50_000;
    const SCRIPTS: u64 = 10_000;
    let ycsb = YcsbGenerator::new(YcsbConfig::new(4, BIG_ROWS));
    let tpcc = TpccGenerator::new(TpccConfig::new(4, 16));
    let mut rng = StdRng::seed_from_u64(0x5eed);
    probes
        .time("workloads.probe_ycsb_generate_ns", N, |_| {
            for _ in 0..N {
                std::hint::black_box(ycsb.generate(&mut rng));
            }
            async {}
        })
        .await;
    probes
        .time("workloads.probe_tpcc_generate_ns", N, |_| {
            for _ in 0..N {
                std::hint::black_box(tpcc.generate(&mut rng));
            }
            async {}
        })
        .await;
    let script = "BEGIN; SELECT * FROM usertable WHERE id = 11; \
                  UPDATE usertable SET bal = bal - 100 WHERE id = 12; \
                  UPDATE usertable SET bal = bal + 100 WHERE id = 1000001 /*+ last */; COMMIT;";
    probes
        .time("middleware.probe_parse_ns", SCRIPTS, |_| {
            let mut parser = SqlParser::new();
            for _ in 0..SCRIPTS {
                std::hint::black_box(
                    parser
                        .parse_script(std::hint::black_box(script))
                        .expect("valid script"),
                );
            }
            async {}
        })
        .await;
    const ROUTES: u64 = 1_000_000;
    let route = warmed_router(512);
    probes
        .time("cluster.probe_route_ns", ROUTES, |_| {
            for session in 0..ROUTES {
                std::hint::black_box(route(session % 512));
            }
            async {}
        })
        .await;
}
