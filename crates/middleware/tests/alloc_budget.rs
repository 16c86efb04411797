//! Exact heap allocations of one steady-state transaction through the
//! session door, read from this test binary's own allocator (the measuring
//! thread's allocation calls and their largest size).
//!
//! A middleware runs GeoTP (O1–O3) over two data sources. After a warm-up
//! that grows every pool, map and queue on the path to its steady size, each
//! measured transaction is one `Session::run_spec` plus a quiet second in
//! which its background work (decentralized prepares, vote notifications)
//! finishes. What is left is the per-transaction cost: the session door's
//! boxes (the begin future, the handle, one round, the commit), the spawned
//! prepares, the data sources' result rows, and for two branches the
//! round's and the commit's joins. Every pooled buffer (round split, plans,
//! schedule, requests, votes, notification state) costs nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use geotp_datasource::{DataSource, DataSourceConfig};
use geotp_middleware::session::SessionService;
use geotp_middleware::{
    ClientOp, GlobalKey, Middleware, MiddlewareConfig, Partitioner, Protocol, TransactionSpec,
};
use geotp_net::{NetworkBuilder, NodeId};
use geotp_simrt::{sleep, Runtime};
use geotp_storage::{Row, TableId};

struct CountingAlloc;

thread_local! {
    /// Allocation calls (`alloc` and `realloc`) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The largest block this thread asked for since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // During thread teardown the counters may already be gone; those calls
    // are no measurement's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s that themselves never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `(allocations, largest block)` made on this thread while `fut` runs.
async fn allocations_in<F: Future>(fut: F) -> (u64, usize) {
    LARGEST.with(|largest| largest.set(0));
    let before = ALLOCATIONS.with(Cell::get);
    fut.await;
    (
        ALLOCATIONS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
    )
}

const ROWS_PER_NODE: u64 = 100;

fn key(row: u64) -> GlobalKey {
    GlobalKey::new(TableId(0), row)
}

/// Per-transaction `(allocations, largest block)` of `rounds` measured runs
/// of each spec, once the warm-up has run until every data source's WAL
/// checkpointed: its record buffer is at its final capacity, and the next
/// checkpoint (one per 8 192 records, an amortised cost) is thousands of
/// transactions away.
fn steady_state_costs(specs: &[TransactionSpec], rounds: usize) -> Vec<Vec<(u64, usize)>> {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let dm = NodeId::middleware(0);
        let (ds0, ds1) = (NodeId::data_source(0), NodeId::data_source(1));
        let net = NetworkBuilder::new(7)
            .static_link(dm, ds0, Duration::from_millis(10))
            .static_link(dm, ds1, Duration::from_millis(60))
            .static_link(ds0, ds1, Duration::from_millis(60))
            .build();
        let sources: Vec<_> = [ds0, ds1]
            .into_iter()
            .map(|node| {
                let ds = DataSource::new(DataSourceConfig::new(node), Rc::clone(&net));
                for row in 0..ROWS_PER_NODE {
                    let global = u64::from(node.index()) * ROWS_PER_NODE + row;
                    ds.load(key(global).storage_key(), Row::int(1_000));
                }
                ds
            })
            .collect();
        for a in &sources {
            for b in &sources {
                if a.index() != b.index() {
                    a.register_peer(b);
                }
            }
        }
        let partitioner = Partitioner::Range {
            rows_per_node: ROWS_PER_NODE,
            nodes: 2,
        };
        let config = MiddlewareConfig::new(dm, Protocol::geotp(), partitioner);
        let mw = Middleware::connect(config, net, &sources, None);
        let mut session = mw.connect(1);
        let wal_len = |ds: &Rc<DataSource>| ds.engine().wal().len();
        let mut run = async |spec: &TransactionSpec| {
            let outcome = session.run_spec(spec).await;
            assert!(outcome.committed, "{outcome:?}");
            // Let the transaction's background work finish inside the
            // measurement.
            sleep(Duration::from_secs(1)).await;
        };
        let mut checkpointed = [false; 2];
        let mut lens: Vec<usize> = sources.iter().map(wal_len).collect();
        while checkpointed != [true; 2] {
            for spec in specs {
                run(spec).await;
            }
            for (idx, ds) in sources.iter().enumerate() {
                checkpointed[idx] |= wal_len(ds) < lens[idx];
                lens[idx] = wal_len(ds);
            }
        }
        let mut costs = vec![Vec::with_capacity(rounds); specs.len()];
        for _ in 0..rounds {
            for (spec, costs) in specs.iter().zip(&mut costs) {
                costs.push(allocations_in(run(spec)).await);
            }
        }
        for (ds, len) in sources.iter().zip(lens) {
            assert!(
                wal_len(ds) > len,
                "no checkpoint falls into the measurement"
            );
        }
        costs
    })
}

#[test]
fn a_steady_state_transaction_has_an_exact_allocation_budget() {
    let centralized =
        TransactionSpec::single_round(vec![ClientOp::add(key(1), -1), ClientOp::add(key(2), 1)]);
    let two_branch = TransactionSpec::single_round(vec![
        ClientOp::add(key(1), -1),
        ClientOp::add(key(ROWS_PER_NODE + 1), 1),
    ]);
    let costs = steady_state_costs(&[centralized, two_branch], 16);
    for ((kind, costs), budget) in ["centralized", "two-branch"]
        .iter()
        .zip(&costs)
        .zip([7, 13])
    {
        println!("{kind}: {costs:?}");
        for &(allocations, largest) in costs {
            assert_eq!(allocations, budget, "{kind}: allocations per transaction");
            assert!(largest <= 1024, "{kind}: a {largest}-byte allocation");
        }
    }
}
