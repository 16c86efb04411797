//! Criterion microbenchmarks for the core data structures the middleware's
//! hot path relies on: the 2PL lock manager, the hotspot footprint
//! (hash-indexed slab + intrusive LRU list), the geo-scheduler computation and
//! the YCSB Zipfian generator.

use std::rc::Rc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use geotp_middleware::hotspot::DEFAULT_CAPACITY;
use geotp_middleware::{BranchPlan, GeoScheduler, GlobalKey, HotspotFootprint, SchedulerConfig};
use geotp_simrt::Runtime;
use geotp_storage::{Key, LockManager, LockMode, TableId, Xid};
use geotp_workloads::ZipfianGenerator;

fn bench_lock_manager(c: &mut Criterion) {
    c.bench_function("lock_manager/acquire_release_1000_keys", |b| {
        b.iter_batched(
            Runtime::new,
            |mut rt| {
                rt.block_on(async {
                    let lm = LockManager::new(Duration::from_secs(5));
                    let xid = Xid::new(1, 0);
                    for i in 0..1000u64 {
                        lm.acquire(xid, Key::new(TableId(0), i), LockMode::Exclusive)
                            .await
                            .unwrap();
                    }
                    lm.release_all(xid);
                });
            },
            BatchSize::SmallInput,
        )
    });
}

/// The contended path: N writers queued on one hot key. Measures the
/// release→promote cascade (every grant walks the FIFO queue) and the
/// acquire→timeout path, at two very different lock-table sizes. With the
/// per-transaction key index, `release_all` touches only the releasing
/// transaction's keys, so the two table sizes must bench flat; the pre-index
/// implementation scanned the whole table per release and degraded linearly.
fn bench_contended_lock_manager(c: &mut Criterion) {
    const WRITERS: u64 = 64;
    // Pre-fill the lock table with unrelated held keys in the *untimed* setup
    // so the measurement isolates the contended acquire/release/promote work.
    fn prefilled(table_size: u64, wait_timeout: Duration) -> (Runtime, Rc<LockManager>) {
        let mut rt = Runtime::new();
        let lm = rt.block_on(async move {
            let lm = LockManager::new(wait_timeout);
            // Unrelated transactions holding `table_size` other keys: pure
            // lock-table bulk.
            for i in 0..table_size {
                lm.acquire(
                    Xid::new(100_000 + i, 0),
                    Key::new(TableId(1), i),
                    LockMode::Exclusive,
                )
                .await
                .unwrap();
            }
            lm
        });
        (rt, lm)
    }
    for table_size in [0u64, 10_000] {
        c.bench_function(
            &format!("lock_manager/contended_promote_chain_64_writers_table_{table_size}"),
            |b| {
                b.iter_batched(
                    || prefilled(table_size, Duration::from_secs(30)),
                    |(mut rt, lm)| {
                        rt.block_on(async {
                            let hot = Key::new(TableId(0), 0);
                            let holder = Xid::new(1, 0);
                            lm.acquire(holder, hot, LockMode::Exclusive).await.unwrap();
                            let mut handles = Vec::new();
                            for w in 0..WRITERS {
                                let lm2 = Rc::clone(&lm);
                                handles.push(geotp_simrt::spawn(async move {
                                    let xid = Xid::new(2 + w, 0);
                                    lm2.acquire(xid, hot, LockMode::Exclusive).await.unwrap();
                                    // Each grant immediately releases, promoting
                                    // the next queued writer (FIFO chain).
                                    lm2.release_all(xid);
                                }));
                            }
                            geotp_simrt::sleep(Duration::from_millis(1)).await;
                            lm.release_all(holder);
                            for h in handles {
                                h.await;
                            }
                        });
                        // Returned so the prefilled table's teardown is not timed.
                        (rt, lm)
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        c.bench_function(
            &format!("lock_manager/contended_acquire_timeout_64_writers_table_{table_size}"),
            |b| {
                b.iter_batched(
                    || prefilled(table_size, Duration::from_millis(5)),
                    |(mut rt, lm)| {
                        rt.block_on(async {
                            let hot = Key::new(TableId(0), 0);
                            lm.acquire(Xid::new(1, 0), hot, LockMode::Exclusive)
                                .await
                                .unwrap();
                            let mut handles = Vec::new();
                            for w in 0..WRITERS {
                                let lm2 = Rc::clone(&lm);
                                handles.push(geotp_simrt::spawn(async move {
                                    // The holder never releases: every waiter
                                    // exercises acquire→timeout→dequeue.
                                    let err = lm2
                                        .acquire(Xid::new(2 + w, 0), hot, LockMode::Exclusive)
                                        .await
                                        .unwrap_err();
                                    assert_eq!(err, geotp_storage::LockError::Timeout);
                                }));
                            }
                            for h in handles {
                                h.await;
                            }
                        });
                        // Returned so the prefilled table's teardown is not timed.
                        (rt, lm)
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
}

fn bench_hotspot(c: &mut Criterion) {
    c.bench_function("hotspot/feedback_and_forecast", |b| {
        let keys: Vec<GlobalKey> = (0..5).map(|i| GlobalKey::new(TableId(0), i)).collect();
        b.iter_batched(
            || HotspotFootprint::new(DEFAULT_CAPACITY),
            |mut fp| {
                for _ in 0..200 {
                    fp.on_access_start(&keys);
                    fp.on_subtxn_feedback(&keys, Duration::from_millis(3));
                    fp.on_txn_finish(&keys, true);
                }
                criterion::black_box(fp.forecast_local_latency(&keys));
                criterion::black_box(fp.success_probability(&keys));
            },
            BatchSize::SmallInput,
        )
    });
}

/// LRU eviction churn under a zipfian-shaped touch pattern: a small hot set
/// is touched over and over while a stream of new cold keys keeps the
/// footprint at capacity, so every cold insert evicts. A touch relinks the
/// record at the tail of the intrusive list and an eviction unlinks the head
/// — there are no stale entries to wade through — so the cost per iteration
/// must not depend on capacity beyond cache effects (`cap_100000` is ~6 MB of
/// slab).
fn bench_hotspot_eviction(c: &mut Criterion) {
    const HOT_KEYS: u64 = 64;
    const TOUCHES_PER_COLD_INSERT: u64 = 8;
    for capacity in [1_000usize, 10_000, 100_000] {
        c.bench_function(&format!("hotspot/lru_eviction_churn_cap_{capacity}"), |b| {
            b.iter_batched(
                || {
                    let mut fp = HotspotFootprint::new(capacity);
                    // Fill to capacity (untimed) so the measured loop is pure
                    // touch+insert+evict churn.
                    for i in 0..capacity as u64 {
                        fp.on_access_start(&[GlobalKey::new(TableId(0), i)]);
                        fp.on_txn_finish(&[GlobalKey::new(TableId(0), i)], true);
                    }
                    fp
                },
                |mut fp| {
                    let cold_base = 1 << 40;
                    for i in 0..10_000u64 {
                        // Hot traffic: repeated touches of a small set.
                        for t in 0..TOUCHES_PER_COLD_INSERT {
                            let hot = GlobalKey::new(
                                TableId(0),
                                (i * TOUCHES_PER_COLD_INSERT + t) % HOT_KEYS,
                            );
                            fp.on_access_start(&[hot]);
                            fp.on_txn_finish(&[hot], true);
                        }
                        // One cold insert evicts the coldest record.
                        let cold = GlobalKey::new(TableId(0), cold_base + i);
                        fp.on_access_start(&[cold]);
                        fp.on_txn_finish(&[cold], true);
                    }
                    criterion::black_box(fp.evictions());
                    fp
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("scheduler/schedule_4_branches", |b| {
        b.iter_batched(
            Runtime::new,
            |mut rt| {
                rt.block_on(async {
                    let net = geotp_net_builder();
                    let monitor = geotp_net::LatencyMonitor::new(
                        &net,
                        geotp_net::NodeId::middleware(0),
                        &(0..4)
                            .map(geotp_net::NodeId::data_source)
                            .collect::<Vec<_>>(),
                    );
                    let scheduler =
                        GeoScheduler::new(SchedulerConfig::default(), monitor, true, true);
                    let plans: Vec<BranchPlan> = (0..4)
                        .map(|i| BranchPlan {
                            ds_index: i,
                            keys: vec![GlobalKey::new(TableId(0), i as u64)],
                        })
                        .collect();
                    for _ in 0..100 {
                        criterion::black_box(scheduler.schedule(&plans));
                    }
                });
            },
            BatchSize::SmallInput,
        )
    });
}

fn geotp_net_builder() -> Rc<geotp_net::Network> {
    let mut builder = geotp_net::NetworkBuilder::new(1);
    for (i, rtt) in geotp_net::PAPER_DEFAULT_RTTS_MS.iter().enumerate() {
        builder = builder.static_link(
            geotp_net::NodeId::middleware(0),
            geotp_net::NodeId::data_source(i as u32),
            Duration::from_millis(*rtt),
        );
    }
    builder.build()
}

fn bench_zipfian(c: &mut Criterion) {
    c.bench_function("zipfian/next_10k_draws_theta_0.9", |b| {
        let gen = ZipfianGenerator::new(1_000_000, 0.9);
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(gen.next(&mut rng));
            }
            criterion::black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = bench_lock_manager, bench_contended_lock_manager, bench_hotspot, bench_hotspot_eviction, bench_scheduler, bench_zipfian
}
criterion_main!(benches);
