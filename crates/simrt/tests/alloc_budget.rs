//! Exact heap allocations of the runtime's hot paths, read from this test
//! binary's own allocator (the measuring thread's allocation calls and live bytes).
//!
//! Each measurement runs after a warm-up that grows the slab, the ready
//! queue, the timer heap and the notify queues to their steady size, so what
//! is left is the per-operation cost: two allocations per spawn (the task's
//! future and its handle's completion slot), none for a waker,
//! two per `join_all` over an iterator (the futures' boxed slice and the
//! returned `Vec`; one when the output is zero-sized), and none for
//! `notify_waiters`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use geotp_simrt::sync::Notify;
use geotp_simrt::{join_all, sleep, spawn, yield_now, Runtime};

struct CountingAlloc;

thread_local! {
    /// Allocation calls (`alloc` and `realloc`) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocated: usize, freed: usize) {
    // During thread teardown the counters may already be gone; those calls
    // are no measurement's.
    if allocated > 0 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + allocated as i64 - freed as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s that themselves never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `fut` runs to completion.
async fn allocations_in<F: Future>(fut: F) -> (F::Output, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = fut.await;
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Run `body` on a runtime whose slab, ready queue and timer heap were first
/// grown by a burst of eight sleeping tasks.
fn on_warm_runtime<F: Future>(body: impl FnOnce() -> F) -> F::Output {
    let mut rt = Runtime::new();
    rt.block_on(async {
        let handles: Vec<_> = (0..8u64)
            .map(|i| spawn(sleep(Duration::from_micros(i + 1))))
            .collect();
        for handle in handles {
            handle.await;
        }
        body().await
    })
}

#[test]
fn a_spawn_costs_two_allocations_joined_or_detached() {
    let costs = on_warm_runtime(|| async {
        let done = Rc::new(Cell::new(false));
        let flag = Rc::clone(&done);
        let ((), detached) = allocations_in(async {
            drop(spawn(async move {
                sleep(Duration::from_millis(1)).await;
                flag.set(true);
            }));
            sleep(Duration::from_millis(2)).await;
        })
        .await;
        assert!(done.get());
        let (ready, at_once) = allocations_in(async { spawn(async { 7u64 }).await }).await;
        let (slept, after_a_sleep) = allocations_in(async {
            spawn(async {
                sleep(Duration::from_millis(1)).await;
                11u64
            })
            .await
        })
        .await;
        assert_eq!((ready, slept), (7, 11));
        [detached, at_once, after_a_sleep]
    });
    assert_eq!(costs, [2, 2, 2]);
}

#[test]
fn waker_clone_wake_and_drop_cost_nothing() {
    let ((), cost) = on_warm_runtime(|| async {
        let measured = allocations_in(poll_fn(|cx| {
            let waker = cx.waker().clone();
            let twin = waker.clone();
            waker.wake_by_ref();
            drop(waker);
            twin.wake();
            Poll::Ready(())
        }))
        .await;
        // Drain the two self-wakes before the runtime goes away.
        yield_now().await;
        measured
    });
    assert_eq!(cost, 0);
}

#[test]
fn join_all_costs_its_slots_plus_its_output_vec() {
    for n in [2u32, 4] {
        // The futures are built from the iterator straight into the join's
        // slots: no caller `Vec` to allocate and copy them out of.
        let ((outs, units), costs) = on_warm_runtime(|| async move {
            let micros = |i: u32| Duration::from_micros(10 * u64::from(n - i));
            let (outs, valued) = allocations_in(join_all((0..n).map(|i| async move {
                sleep(micros(i)).await;
                i
            })))
            .await;
            // A zero-sized output needs no output buffer.
            let (units, unit) = allocations_in(join_all((0..n).map(|i| sleep(micros(i))))).await;
            ((outs, units.len()), [valued, unit])
        });
        assert_eq!(outs, (0..n).collect::<Vec<_>>());
        assert_eq!(units, n as usize);
        assert_eq!(costs, [2, 1], "join_all over {n} futures");
    }
}

#[test]
fn notify_waiters_costs_nothing() {
    let costs = on_warm_runtime(|| async {
        let notify = Rc::new(Notify::new());
        let woken = Rc::new(Cell::new(0u32));
        for _ in 0..4 {
            let notify = Rc::clone(&notify);
            let woken = Rc::clone(&woken);
            spawn(async move {
                loop {
                    notify.notified().await;
                    woken.set(woken.get() + 1);
                }
            });
        }
        let mut costs = Vec::with_capacity(3);
        for round in 1..=3 {
            // Every waiter is parked again.
            yield_now().await;
            let before = ALLOCATIONS.with(Cell::get);
            notify.notify_waiters();
            costs.push(ALLOCATIONS.with(Cell::get) - before);
            yield_now().await;
            assert_eq!(woken.get(), 4 * round);
        }
        costs
    });
    // The first round grows the woken-id list; after that nothing.
    assert_eq!(costs[1..], [0, 0]);
}

/// The benchmark's open loop keeps every arrival's handle until the run
/// ends: a finished task's handle must not keep its future's storage.
#[test]
fn a_kept_handle_outlives_its_task_in_a_few_bytes() {
    const TASKS: usize = 1_000;
    /// A thousand tasks with a 1 KiB future each, run to completion; their
    /// handles are kept.
    async fn burst() -> Vec<geotp_simrt::JoinHandle<()>> {
        let handles: Vec<_> = (0..TASKS)
            .map(|i| {
                let ballast = [i as u8; 1024];
                spawn(async move {
                    sleep(Duration::from_millis(1)).await;
                    std::hint::black_box(ballast);
                })
            })
            .collect();
        sleep(Duration::from_millis(2)).await;
        assert!(handles.iter().all(|h| h.is_finished()));
        handles
    }
    let per_handle = on_warm_runtime(|| async {
        // The first burst grows the slab, ready queue and timer heap.
        drop(burst().await);
        let before = LIVE_BYTES.with(Cell::get);
        let handles = burst().await;
        let retained = LIVE_BYTES.with(Cell::get) - before;
        drop(handles);
        retained / TASKS as i64
    });
    // The handle's completion slot and its place in the `Vec`: 56 B on a
    // 64-bit target, where keeping the future would cost over 1 KiB.
    assert!(
        per_handle <= 64,
        "{per_handle} B per finished task's handle"
    );
}
