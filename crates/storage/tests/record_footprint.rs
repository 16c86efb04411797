//! Heap bytes the record store keeps per loaded row, read from this test
//! binary's own allocator (live bytes after a load minus live bytes before).
//!
//! A million dense single-integer rows are the YCSB usertable shape; 80 000
//! rows 640 apart, one to a 64-row page, are the TPC-C ORDERS / NEW_ORDER
//! insert shape; 100 000 dense two-integer rows are the TPC-C STOCK /
//! CUSTOMER shape, and 100 000 dense integer-and-string rows the TPC-C
//! WAREHOUSE shape. The per-row hash map the paged store replaced read 136.3
//! and 106.5 B/row on the first two loads. Over the paged store, 48-byte
//! rows (an inline first column beside a `Vec` of the rest) read 50.4, 119.6
//! and 97.5 B/row on the first three loads; 24-byte rows (one column inline,
//! wider rows in one `Arc<[Value]>` that clones share) read 25.9, 93.4 and
//! 89.2. Two integers inline in the 24 bytes bring the third to 25.2; the
//! integer-and-string row keeps the shared `Arc` path and reads 97.2.
//! Pages that keep one-integer rows as bare `i64`s and two-integer rows as
//! bare pairs bring the dense loads from 25.9 to 9.9 and from 25.2 to 17.2
//! B/row (on every engine configuration); the stride-640 rows (one to a
//! page, inline) and the integer-and-string rows (a `Row` buffer) still read
//! 93.4 and 97.2.
//!
//! A load touches only the pages under every engine configuration. While
//! the pages also held uncommitted writes, a dense load into a `SnapshotRead`
//! engine filled a version chain per row beside the pages (281.5 B/row), and
//! one into a history-recording engine a version counter and a base
//! fingerprint per row (147.5 B/row).

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use geotp_storage::{EngineConfig, IsolationLevel, Key, Row, StorageEngine, TableId, Value};

struct LiveBytes;

// Statistics only: the counters publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations for `realloc` are passed through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn key(row: u64) -> Key {
    Key::new(TableId(0), row)
}

fn int_row(n: u64) -> Row {
    Row::int(n as i64)
}

fn two_int_row(n: u64) -> Row {
    Row::pair(n as i64, 0)
}

fn int_str_row(n: u64) -> Row {
    Row::from_values(vec![Value::Int(n as i64), Value::Str(format!("wh{n}"))])
}

/// A fresh engine configured by `config`, holding `rows` rows `row(n)`
/// under keys `0, stride, 2 * stride, ...` of one table, and the live heap
/// bytes per row that loading them left behind.
fn load_into(
    config: EngineConfig,
    rows: u64,
    stride: u64,
    row: fn(u64) -> Row,
) -> (Rc<StorageEngine>, f64) {
    let before = LIVE.load(Ordering::Relaxed);
    let engine = StorageEngine::new(config);
    for n in 0..rows {
        engine.load(key(n * stride), row(n));
    }
    assert_eq!(engine.record_count(), rows as usize);
    let after = LIVE.load(Ordering::Relaxed);
    (engine, (after - before) as f64 / rows as f64)
}

/// A fresh engine configured by `config`, holding `rows` copies of `row`
/// under keys `0..rows` of one table, loaded as one run; the live heap bytes
/// per row and the allocations that loading them left behind.
fn load_run_into(config: EngineConfig, rows: u64, row: Row) -> (f64, usize) {
    let engine = StorageEngine::new(config);
    let (before, count) = (
        LIVE.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    engine.load_run(key(0), rows, row);
    let (after, allocations) = (
        LIVE.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed) - count,
    );
    assert_eq!(engine.record_count(), rows as usize);
    ((after - before) as f64 / rows as f64, allocations)
}

/// [`load_into`] a default (strict 2PL, no history) engine.
fn load(rows: u64, stride: u64, row: fn(u64) -> Row) -> (Rc<StorageEngine>, f64) {
    load_into(EngineConfig::default(), rows, stride, row)
}

// One test in this binary, so no other test allocates while it measures.
#[test]
fn loaded_rows_stay_within_their_heap_budget() {
    let dense = load(1_000_000, 1, int_row).1;
    let sparse = load(80_000, 640, int_row).1;
    const WIDE_ROWS: u64 = 100_000;
    let (pairs, pair) = load(WIDE_ROWS, 1, two_int_row);
    let (shared, wide) = load(WIDE_ROWS, 1, int_str_row);
    let snapshot_config = EngineConfig {
        isolation: IsolationLevel::SnapshotRead,
        ..EngineConfig::default()
    };
    let snapshot = load_into(snapshot_config, 1_000_000, 1, int_row).1;
    let history_config = EngineConfig {
        record_history: true,
        ..EngineConfig::default()
    };
    let history = load_into(history_config, 1_000_000, 1, int_row).1;
    println!("dense rows: {dense:.1} heap B/row (per-row hash map: 136.3, 24-byte rows: 25.9)");
    println!("stride-640 rows: {sparse:.1} heap B/row (per-row hash map: 106.5)");
    println!(
        "dense two-integer rows: {pair:.1} heap B/row (in a shared Arc: 89.2, 24-byte rows: 25.2)"
    );
    println!("dense integer-and-string rows: {wide:.1} heap B/row");
    println!("dense rows, SnapshotRead: {snapshot:.1} heap B/row (version chain per row: 281.5)");
    println!("dense rows, record_history: {history:.1} heap B/row (stamps per row: 147.5)");
    assert!(
        dense <= 12.0,
        "dense rows cost {dense:.1} B each (budget 12)"
    );
    assert!(
        sparse <= 106.5,
        "stride-640 rows cost {sparse:.1} B each (budget 106.5)"
    );
    assert!(
        pair <= 20.0,
        "dense two-integer rows cost {pair:.1} B each (budget 20)"
    );
    assert!(
        wide <= 1.1 * 97.2,
        "dense integer-and-string rows cost {wide:.1} B each (budget 1.1 x 97.2)"
    );
    assert!(
        snapshot <= 12.0,
        "dense rows on a SnapshotRead engine cost {snapshot:.1} B each (budget 12)"
    );
    assert!(
        history <= 12.0,
        "dense rows on a history-recording engine cost {history:.1} B each (budget 12)"
    );

    // The same dense loads as one run each: the same budgets, and one
    // buffer per full page plus the page map's bucket arrays (one per
    // doubling: at most log2 of the page count, plus two).
    const RUN_ROWS: u64 = 1 << 20;
    let pages = (RUN_ROWS >> 6) as usize;
    let map_growth = pages.ilog2() as usize + 2;
    for (name, config) in [
        ("default", EngineConfig::default()),
        ("SnapshotRead", snapshot_config),
        ("record_history", history_config),
    ] {
        for (shape, row, budget) in [
            ("one-integer", Row::int(7), 12.0),
            ("two-integer", Row::pair(7, 0), 20.0),
        ] {
            let (bytes, allocations) = load_run_into(config, RUN_ROWS, row);
            println!(
                "dense {shape} rows as one run, {name}: {bytes:.1} heap B/row, \
                 {allocations} allocations for {pages} pages"
            );
            assert!(
                bytes <= budget,
                "dense {shape} rows loaded as a run on a {name} engine cost {bytes:.1} B each \
                 (budget {budget})"
            );
            assert!(
                (pages..=pages + map_growth).contains(&allocations),
                "{allocations} allocations for {pages} pages of {shape} rows on a {name} engine"
            );
        }
    }

    // A clone of a stored wide row shares its columns, and a stored pair is
    // read out as two integers: neither allocates. Nor does a write to a
    // read pair.
    for engine in [&pairs, &shared] {
        let mut clones = Vec::with_capacity(WIDE_ROWS as usize);
        let (bytes, count) = (
            LIVE.load(Ordering::Relaxed),
            ALLOCATIONS.load(Ordering::Relaxed),
        );
        clones.extend((0..WIDE_ROWS).map(|n| engine.peek(key(n)).expect("loaded")));
        let cloned = LIVE.load(Ordering::Relaxed) as isize - bytes as isize;
        assert_eq!(
            (cloned, ALLOCATIONS.load(Ordering::Relaxed) - count),
            (0, 0),
            "cloning {WIDE_ROWS} stored two-column rows allocated (B, blocks)"
        );
    }
    let mut row = pairs.peek(key(7)).expect("loaded");
    let count = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        row.add_int(0, 1);
        row.add_int(1, -1);
    }
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        count,
        "add_int on a pair allocated"
    );
    assert_eq!(row, Row::pair(1_007, -1_000));
}
