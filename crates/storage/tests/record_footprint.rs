//! Heap bytes the record store keeps per loaded row, read from this test
//! binary's own allocator (live bytes after a load minus live bytes before).
//!
//! A million dense single-integer rows are the YCSB usertable shape; 80 000
//! rows 640 apart, one to a 64-row page, are the TPC-C ORDERS / NEW_ORDER
//! insert shape. The per-row hash map the paged store replaced read 136.3
//! and 106.5 B/row on these two loads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use geotp_storage::{Key, Row, StorageEngine, TableId};

struct LiveBytes;

// Statistics only: the counter publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Live heap bytes per row left behind by loading `rows` keys `0, stride,
/// 2 * stride, ...` of one table into a fresh engine.
fn heap_bytes_per_row(rows: u64, stride: u64) -> f64 {
    let before = LIVE.load(Ordering::Relaxed);
    let engine = StorageEngine::with_defaults();
    for n in 0..rows {
        engine.load(Key::new(TableId(0), n * stride), Row::int(n as i64));
    }
    assert_eq!(engine.record_count(), rows as usize);
    let after = LIVE.load(Ordering::Relaxed);
    drop(engine);
    (after - before) as f64 / rows as f64
}

// One test in this binary, so no other test allocates while it measures.
#[test]
fn loaded_rows_stay_within_their_heap_budget() {
    let dense = heap_bytes_per_row(1_000_000, 1);
    let sparse = heap_bytes_per_row(80_000, 640);
    println!("dense rows: {dense:.1} heap B/row (per-row hash map: 136.3)");
    println!("stride-640 rows: {sparse:.1} heap B/row (per-row hash map: 106.5)");
    assert!(
        dense <= 64.0,
        "dense rows cost {dense:.1} B each (budget 64)"
    );
    assert!(
        sparse <= 1.5 * 106.5,
        "stride-640 rows cost {sparse:.1} B each (budget 1.5 x 106.5)"
    );
}
