//! The discrete-event executor: ready queue, virtual clock and timer heap.
//!
//! ## Hot-path design
//!
//! The executor is the inner loop of every experiment, so its per-poll cost is
//! kept free of allocations and atomics:
//!
//! * **Task slab** — tasks live in a `Vec<TaskSlot>` indexed by slot, with a
//!   free list and per-slot generation counters (so a stale wake for a
//!   finished task can never poll an unrelated task that reused the slot).
//!   Polling takes the future out of its slot and puts it back — two pointer
//!   moves — instead of the remove/insert pair a `HashMap` would cost.
//!   Dropping the runtime drops the unfinished futures in slot order.
//! * **Task-id wakers** — a waker is a [`RawWaker`] whose data word *is* the
//!   task id: runtime tag (16 bits), slot (24) and generation (24). Cloning
//!   copies the word, dropping does nothing, and waking pushes the id onto
//!   the thread's current runtime's `RefCell` ready queue — a no-op outside
//!   a runtime or when the tag names another runtime. Stale ids are
//!   filtered by the slot generation when popped.
//! * **`Cell` metrics** — the run counters are plain `Cell`s, not a `RefCell`
//!   of the whole struct, so bumping a counter is a load+store.
//! * **Batch timer firing** — expired timers are popped from the timer heap
//!   (see [`crate::timer_heap`]) into a reusable scratch buffer under a
//!   single `RefCell` borrow.
//!
//! ## One loop
//!
//! [`RuntimeInner::run`] is the whole schedule: one thread, one ready queue,
//! one clock, one timer heap, run until the root future completes. The same
//! program and seed therefore produce the same bytes on every run.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::ptr;
use std::rc::Rc;
use std::sync::atomic::{AtomicU16, Ordering};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::task::{JoinHandle, JoinState};
use crate::time::SimInstant;
use crate::timer_heap::{TimerEntry, TimerHeap};

/// Identifier of a task, and the data word of its waker: the runtime's tag
/// in the top 16 bits, the slab slot in the next 24 and the slot's
/// generation in the low 24 (so ids of finished tasks are never confused
/// with the slot's next occupant).
pub(crate) type TaskId = u64;

const SLOT_BITS: u32 = 24;
const GENERATION_BITS: u32 = 24;
const FIELD_MASK: u64 = (1 << SLOT_BITS) - 1;
const GENERATION_MASK: u32 = (1 << GENERATION_BITS) - 1;

/// The root future's slot: one past the last slot a task may occupy.
const ROOT_SLOT: u32 = FIELD_MASK as u32;

// The id is carried in a waker's data pointer.
const _: () = assert!(usize::BITS >= u64::BITS, "task ids need 64-bit pointers");

fn task_id(tag: u16, slot: u32, generation: u32) -> TaskId {
    ((tag as u64) << (SLOT_BITS + GENERATION_BITS))
        | ((slot as u64) << GENERATION_BITS)
        | generation as u64
}

/// `(tag, slot, generation)`.
fn split_id(id: TaskId) -> (u16, u32, u32) {
    (
        (id >> (SLOT_BITS + GENERATION_BITS)) as u16,
        ((id >> GENERATION_BITS) & FIELD_MASK) as u32,
        (id & GENERATION_MASK as u64) as u32,
    )
}

/// Tags handed out to runtimes, so a waker woken inside another runtime's
/// `block_on` is recognised as foreign. Wraps after 65 536 runtimes.
static NEXT_TAG: AtomicU16 = AtomicU16::new(0);

static TASK_WAKER: RawWakerVTable =
    RawWakerVTable::new(clone_task_waker, wake_task, wake_task, drop_task_waker);

fn task_waker(id: TaskId) -> Waker {
    // SAFETY: the data pointer is never dereferenced — it is the task id,
    // read back as an integer — and the vtable's functions touch only the
    // calling thread's own runtime, so the `RawWaker` contract (clone, wake
    // and drop callable from any thread, any number of times) holds.
    unsafe {
        Waker::from_raw(RawWaker::new(
            ptr::without_provenance(id as usize),
            &TASK_WAKER,
        ))
    }
}

// The three vtable entries must be `unsafe fn`s to fit `RawWakerVTable`.
// None of them dereferences `data`, so each is sound for any `data`.

/// # Safety
///
/// None: `data` is copied, never dereferenced.
unsafe fn clone_task_waker(data: *const ()) -> RawWaker {
    RawWaker::new(data, &TASK_WAKER)
}

/// # Safety
///
/// None: `data` is read as a task id, never dereferenced, and a stale or
/// foreign id is ignored.
unsafe fn wake_task(data: *const ()) {
    let id = data.addr() as TaskId;
    let _ = CURRENT.try_with(|cur| {
        if let Some(inner) = cur.borrow().as_ref() {
            if split_id(id).0 == inner.tag {
                inner.ready.borrow_mut().push_back(id);
            }
        }
    });
}

/// # Safety
///
/// None: a task waker owns nothing.
unsafe fn drop_task_waker(_data: *const ()) {}

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// Counters describing what one `block_on` call did. Exposed so the experiment
/// harness can report simulator "resource" usage (substitute for Fig. 6a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Total number of task polls performed.
    pub polls: u64,
    /// Total number of tasks spawned (including the root task).
    pub tasks_spawned: u64,
    /// Total number of timer registrations.
    pub timers_registered: u64,
    /// Number of times the virtual clock jumped forward.
    pub clock_advances: u64,
    /// Exact high-water mark of pending timers, abandoned ones included (a
    /// timer whose future was dropped stays pending until its deadline).
    pub timers_pending_peak: u64,
}

/// One slab slot. `fut` is `None` both while the task is being polled (the
/// future is taken out so polling holds no borrow of the slab) and after the
/// task finished (until the slot is reused).
struct TaskSlot {
    fut: Option<LocalFuture>,
    generation: u32,
}

pub(crate) struct RuntimeInner {
    /// This runtime's waker tag.
    tag: u16,
    now_micros: Cell<u64>,
    tasks: RefCell<Vec<TaskSlot>>,
    free_slots: RefCell<Vec<u32>>,
    ready: RefCell<VecDeque<TaskId>>,
    timers: RefCell<TimerHeap>,
    /// Scratch buffer for expired timers (reused across clock advances).
    fired: RefCell<Vec<TimerEntry>>,
    polls: Cell<u64>,
    tasks_spawned: Cell<u64>,
    timers_registered: Cell<u64>,
    clock_advances: Cell<u64>,
    timers_pending_peak: Cell<u64>,
}

impl RuntimeInner {
    fn new() -> Self {
        Self {
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            now_micros: Cell::new(0),
            tasks: RefCell::new(Vec::new()),
            free_slots: RefCell::new(Vec::new()),
            ready: RefCell::new(VecDeque::new()),
            timers: RefCell::new(TimerHeap::new()),
            fired: RefCell::new(Vec::new()),
            polls: Cell::new(0),
            tasks_spawned: Cell::new(0),
            timers_registered: Cell::new(0),
            clock_advances: Cell::new(0),
            timers_pending_peak: Cell::new(0),
        }
    }

    pub(crate) fn now_micros(&self) -> u64 {
        self.now_micros.get()
    }

    fn metrics(&self) -> RunMetrics {
        RunMetrics {
            polls: self.polls.get(),
            tasks_spawned: self.tasks_spawned.get(),
            timers_registered: self.timers_registered.get(),
            clock_advances: self.clock_advances.get(),
            timers_pending_peak: self.timers_pending_peak.get(),
        }
    }

    /// Register a timer waking `waker` at `deadline_micros` (virtual time).
    fn register_timer(&self, deadline_micros: u64, waker: Waker) {
        debug_assert!(
            deadline_micros >= self.now_micros(),
            "timer registered in the past: deadline={deadline_micros} now={}",
            self.now_micros()
        );
        self.timers_registered.set(self.timers_registered.get() + 1);
        let mut timers = self.timers.borrow_mut();
        timers.push(deadline_micros, waker);
        let peak = self.timers_pending_peak.get().max(timers.len() as u64);
        self.timers_pending_peak.set(peak);
    }

    fn root_id(&self) -> TaskId {
        task_id(self.tag, ROOT_SLOT, 0)
    }

    /// Insert a task into the slab and schedule it. Safe to call from inside
    /// a poll: polling never holds the slab borrow (the future is taken out
    /// of its slot first), so there is no deferred-spawn side channel.
    fn spawn_inner(&self, fut: LocalFuture) {
        self.tasks_spawned.set(self.tasks_spawned.get() + 1);
        let mut tasks = self.tasks.borrow_mut();
        let (slot, generation) = match self.free_slots.borrow_mut().pop() {
            Some(slot) => {
                let entry = &mut tasks[slot as usize];
                debug_assert!(entry.fut.is_none());
                entry.fut = Some(fut);
                (slot, entry.generation)
            }
            None => {
                let slot = tasks.len() as u32;
                assert!(slot < ROOT_SLOT, "geotp-simrt: too many live tasks");
                tasks.push(TaskSlot {
                    fut: Some(fut),
                    generation: 0,
                });
                (slot, 0)
            }
        };
        drop(tasks);
        self.ready
            .borrow_mut()
            .push_back(task_id(self.tag, slot, generation));
    }

    /// The executor loop: poll ready tasks in FIFO order; when none is
    /// runnable, advance the virtual clock to the earliest pending timer and
    /// fire every timer due by then. Returns the root's output once it
    /// completes, or `None` when the root is pending while no task is
    /// runnable and no timer is pending.
    fn run<F: Future>(&self, mut root: Pin<&mut F>) -> Option<F::Output> {
        let root_id = self.root_id();
        loop {
            let next = self.ready.borrow_mut().pop_front();
            match next {
                Some(id) if id == root_id => {
                    self.polls.set(self.polls.get() + 1);
                    let waker = task_waker(root_id);
                    let mut cx = Context::from_waker(&waker);
                    if let Poll::Ready(out) = root.as_mut().poll(&mut cx) {
                        return Some(out);
                    }
                }
                Some(id) => {
                    let (_, slot, generation) = split_id(id);
                    // Take the future out of its slot; a stale wake (finished
                    // task, reused slot, or a wake that raced an earlier poll
                    // in this batch) finds either a mismatched generation or
                    // an empty slot and is ignored.
                    let taken = match self.tasks.borrow_mut().get_mut(slot as usize) {
                        Some(entry) if entry.generation == generation => entry.fut.take(),
                        _ => None,
                    };
                    let Some(mut fut) = taken else {
                        continue;
                    };
                    self.polls.set(self.polls.get() + 1);
                    let waker = task_waker(id);
                    let mut cx = Context::from_waker(&waker);
                    if fut.as_mut().poll(&mut cx).is_ready() {
                        // Free the slot: bump the generation so any waker
                        // still floating around for this task goes stale,
                        // then recycle the slot.
                        let mut tasks = self.tasks.borrow_mut();
                        let entry = &mut tasks[slot as usize];
                        entry.generation = (entry.generation + 1) & GENERATION_MASK;
                        drop(tasks);
                        self.free_slots.borrow_mut().push(slot);
                    } else {
                        self.tasks.borrow_mut()[slot as usize].fut = Some(fut);
                    }
                }
                None => {
                    // No runnable task: advance the clock to the next timer
                    // and fire every expired timer under one borrow.
                    let mut timers = self.timers.borrow_mut();
                    let deadline = timers.next_deadline()?;
                    debug_assert!(deadline >= self.now_micros());
                    if deadline > self.now_micros() {
                        self.now_micros.set(deadline);
                        self.clock_advances.set(self.clock_advances.get() + 1);
                    }
                    let mut fired = self.fired.borrow_mut();
                    timers.expire(self.now_micros(), &mut fired);
                    drop(timers);
                    for entry in fired.drain(..) {
                        entry.waker.wake();
                    }
                }
            }
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<RuntimeInner>>> = const { RefCell::new(None) };
}

pub(crate) fn with_current<R>(f: impl FnOnce(&Rc<RuntimeInner>) -> R) -> R {
    CURRENT.with(|cur| {
        let borrow = cur.borrow();
        let inner = borrow.as_ref().expect(
            "geotp-simrt: no runtime is active on this thread; wrap the call in Runtime::block_on",
        );
        f(inner)
    })
}

pub(crate) fn try_with_current<R>(f: impl FnOnce(&Rc<RuntimeInner>) -> R) -> Option<R> {
    CURRENT.with(|cur| cur.borrow().as_ref().map(f))
}

struct CurrentGuard;

impl CurrentGuard {
    fn enter(inner: Rc<RuntimeInner>) -> Self {
        CURRENT.with(|cur| {
            let mut slot = cur.borrow_mut();
            assert!(
                slot.is_none(),
                "geotp-simrt: nested Runtime::block_on is not supported"
            );
            *slot = Some(inner);
        });
        CurrentGuard
    }
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|cur| *cur.borrow_mut() = None);
    }
}

/// The simulated-time runtime: construct with [`Runtime::new`], then call
/// [`Runtime::block_on`] with the root future.
pub struct Runtime {
    inner: Rc<RuntimeInner>,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// Create a fresh runtime with the virtual clock at zero.
    pub fn new() -> Self {
        Self {
            inner: Rc::new(RuntimeInner::new()),
        }
    }

    /// Current virtual time in microseconds since start.
    pub fn now_micros(&self) -> u64 {
        self.inner.now_micros()
    }

    /// Counters accumulated so far (polls, spawns, timers, clock advances).
    pub fn metrics(&self) -> RunMetrics {
        self.inner.metrics()
    }

    /// Drive `root` to completion, advancing virtual time as needed.
    ///
    /// Background tasks spawned with [`spawn`] keep running while the root is
    /// pending; once the root completes they are abandoned (dropped when the
    /// runtime is dropped), mirroring tokio's `block_on` semantics.
    ///
    /// # Panics
    ///
    /// Panics if the root future is still pending while no task is runnable
    /// and no timer is registered (a genuine deadlock in the simulated
    /// system), or if `block_on` is re-entered on the same thread.
    pub fn block_on<F: Future>(&mut self, root: F) -> F::Output {
        let inner = Rc::clone(&self.inner);
        let _guard = CurrentGuard::enter(Rc::clone(&inner));
        let mut root = Box::pin(root);
        inner.ready.borrow_mut().push_back(inner.root_id());
        match inner.run(root.as_mut()) {
            Some(out) => out,
            None => panic!(
                "geotp-simrt: simulation deadlock at t={}us — the root task is \
                 pending but no task is runnable and no timer is registered",
                inner.now_micros()
            ),
        }
    }
}

/// Spawn a new asynchronous task onto the currently running runtime.
///
/// The returned [`JoinHandle`] can be awaited for the task's output; dropping
/// it detaches the task. Unlike tokio, futures do not need to be `Send`: the
/// runtime is single-threaded. A spawn costs two allocations, the future's
/// and the handle's completion slot.
///
/// # Panics
///
/// Panics if called outside [`Runtime::block_on`].
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let state = Rc::new(RefCell::new(JoinState::new()));
    let task = Task {
        fut: Some(fut),
        state: Rc::clone(&state),
    };
    with_current(|inner| inner.spawn_inner(Box::pin(task)));
    JoinHandle::new(state)
}

/// A spawned task's future: the caller's future beside its handle's
/// completion slot. Written out rather than as an `async` block, which would
/// keep the future twice (once captured, once as the awaited value) and
/// double every task's allocation.
struct Task<F: Future> {
    /// `None` once finished: the future is dropped before its output is
    /// published, as at the end of an `.await`.
    fut: Option<F>,
    state: Rc<RefCell<JoinState<F::Output>>>,
}

impl<F: Future> Future for Task<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `fut` is structurally pinned: it is never moved out of the
        // pinned `Task`, only dropped in place (by the assignment below or
        // with the task), and `Task` has no `Drop` impl of its own.
        let this = unsafe { self.get_unchecked_mut() };
        let Some(fut) = this.fut.as_mut() else {
            return Poll::Ready(());
        };
        // SAFETY: see above.
        match unsafe { Pin::new_unchecked(fut) }.poll(cx) {
            Poll::Ready(out) => {
                this.fut = None;
                JoinState::complete(&this.state, out);
                Poll::Ready(())
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Current virtual time of the active runtime, as a [`SimInstant`].
pub(crate) fn current_now() -> SimInstant {
    with_current(|inner| SimInstant::from_micros(inner.now_micros()))
}

/// Register a wake-up at `deadline` (virtual) for `waker` on the active runtime.
pub(crate) fn current_register_timer(deadline: SimInstant, waker: Waker) {
    with_current(|inner| inner.register_timer(deadline.as_micros(), waker));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, yield_now};
    use std::time::Duration;

    #[test]
    fn block_on_returns_value() {
        let mut rt = Runtime::new();
        let v = rt.block_on(async { 7 });
        assert_eq!(v, 7);
    }

    #[test]
    fn virtual_time_advances_with_sleep() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            sleep(Duration::from_millis(250)).await;
        });
        assert_eq!(rt.now_micros(), 250_000);
    }

    #[test]
    fn spawned_tasks_run_concurrently_in_virtual_time() {
        let mut rt = Runtime::new();
        let elapsed = rt.block_on(async {
            let start = crate::now();
            let a = spawn(async {
                sleep(Duration::from_millis(100)).await;
            });
            let b = spawn(async {
                sleep(Duration::from_millis(100)).await;
            });
            a.await;
            b.await;
            crate::now().duration_since(start)
        });
        // Two concurrent 100ms sleeps overlap: total virtual time is 100ms.
        assert_eq!(elapsed, Duration::from_millis(100));
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            sleep(Duration::from_millis(10)).await;
            sleep(Duration::from_millis(20)).await;
            sleep(Duration::from_millis(30)).await;
        });
        assert_eq!(rt.now_micros(), 60_000);
    }

    #[test]
    fn join_handle_returns_output() {
        let mut rt = Runtime::new();
        let out = rt.block_on(async {
            let h = spawn(async {
                sleep(Duration::from_millis(5)).await;
                "done"
            });
            h.await
        });
        assert_eq!(out, "done");
    }

    #[test]
    fn yield_now_reschedules_fairly() {
        let mut rt = Runtime::new();
        let order = rt.block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let l1 = Rc::clone(&log);
            let l2 = Rc::clone(&log);
            let h1 = spawn(async move {
                for i in 0..3 {
                    l1.borrow_mut().push(format!("a{i}"));
                    yield_now().await;
                }
            });
            let h2 = spawn(async move {
                for i in 0..3 {
                    l2.borrow_mut().push(format!("b{i}"));
                    yield_now().await;
                }
            });
            h1.await;
            h2.await;
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        // FIFO ready queue interleaves the two tasks deterministically.
        assert_eq!(order, vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn metrics_are_recorded() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            spawn(async {
                sleep(Duration::from_millis(1)).await;
            })
            .await;
        });
        let m = rt.metrics();
        assert!(m.polls >= 2);
        assert_eq!(m.tasks_spawned, 1);
        assert!(m.timers_registered >= 1);
        assert!(m.clock_advances >= 1);
    }

    #[test]
    fn pending_peak_counts_abandoned_timers() {
        const N: u64 = 50;
        let mut rt = Runtime::new();
        rt.block_on(async {
            for _ in 0..N {
                // The inner sleep wins; the 5 s deadline is abandoned and
                // stays pending (nothing cancels a timer).
                crate::timeout(Duration::from_secs(5), sleep(Duration::from_millis(1)))
                    .await
                    .unwrap();
            }
        });
        let m = rt.metrics();
        // The last round holds N - 1 abandoned deadlines plus its own two.
        assert_eq!(m.timers_pending_peak, N + 1);
        assert_eq!(m.timers_registered, 2 * N);
        assert_eq!(m.clock_advances, N);
        assert_eq!(rt.now_micros(), N * 1_000);
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn deadlock_is_detected() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            // A future that is never woken.
            std::future::pending::<()>().await;
        });
    }

    #[test]
    fn background_task_abandoned_after_root_completes() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            spawn(async {
                sleep(Duration::from_secs(3600)).await;
            });
            sleep(Duration::from_millis(1)).await;
        });
        // Root returned after 1ms; the hour-long background sleep never ran to completion.
        assert_eq!(rt.now_micros(), 1_000);
    }

    #[test]
    fn determinism_same_program_same_schedule() {
        fn run_once() -> (u64, Vec<u32>) {
            let mut rt = Runtime::new();
            let log = rt.block_on(async {
                let log = Rc::new(RefCell::new(Vec::new()));
                let mut handles = Vec::new();
                for i in 0..10u32 {
                    let log = Rc::clone(&log);
                    handles.push(spawn(async move {
                        sleep(Duration::from_millis((10 - i) as u64)).await;
                        log.borrow_mut().push(i);
                    }));
                }
                for h in handles {
                    h.await;
                }
                Rc::try_unwrap(log).unwrap().into_inner()
            });
            (rt.now_micros(), log)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn slots_are_reused_without_cross_talk() {
        // Spawn waves of short-lived tasks so slots recycle, interleaved with
        // a long-lived task; generation checks must keep wakes routed to the
        // right occupant.
        let mut rt = Runtime::new();
        let total = rt.block_on(async {
            let counter = Rc::new(Cell::new(0u32));
            let c_long = Rc::clone(&counter);
            let long = spawn(async move {
                sleep(Duration::from_millis(50)).await;
                c_long.set(c_long.get() + 1_000);
            });
            for _wave in 0..10 {
                let mut handles = Vec::new();
                for _ in 0..8 {
                    let c = Rc::clone(&counter);
                    handles.push(spawn(async move {
                        sleep(Duration::from_millis(1)).await;
                        c.set(c.get() + 1);
                    }));
                }
                for h in handles {
                    h.await;
                }
            }
            long.await;
            counter.get()
        });
        assert_eq!(total, 1_080);
        // The slab stayed small: 8 concurrent short tasks + 1 long task fit
        // in at most a handful of slots despite 81 spawns.
        let m = rt.metrics();
        assert_eq!(m.tasks_spawned, 81);
    }

    #[test]
    fn spawning_from_inside_a_poll_runs_in_fifo_order() {
        let mut rt = Runtime::new();
        let order = rt.block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let l = Rc::clone(&log);
            let outer = spawn(async move {
                let l_inner = Rc::clone(&l);
                l.borrow_mut().push("outer-start");
                // Spawned while `outer` is being polled: the slab must accept
                // the insert mid-poll (no deferred side channel).
                let inner = spawn(async move {
                    l_inner.borrow_mut().push("inner");
                });
                yield_now().await;
                inner.await;
                l.borrow_mut().push("outer-end");
            });
            outer.await;
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec!["outer-start", "inner", "outer-end"]);
    }

    /// Logs `name` into the shared log when dropped.
    struct DropLog(&'static str, Rc<RefCell<Vec<&'static str>>>);

    impl Drop for DropLog {
        fn drop(&mut self) {
            self.1.borrow_mut().push(self.0);
        }
    }

    /// A future that stays pending forever, counts its polls and hands its
    /// waker out.
    fn pending_probe(
        polls: Rc<Cell<u32>>,
        waker: Rc<RefCell<Option<Waker>>>,
    ) -> impl Future<Output = ()> {
        std::future::poll_fn(move |cx| {
            polls.set(polls.get() + 1);
            *waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        })
    }

    #[test]
    fn waking_after_the_runtime_is_dropped_is_a_no_op() {
        let polls = Rc::new(Cell::new(0));
        let waker = Rc::new(RefCell::new(None));
        let mut rt = Runtime::new();
        rt.block_on(async {
            spawn(pending_probe(Rc::clone(&polls), Rc::clone(&waker)));
            yield_now().await;
        });
        drop(rt);
        let waker = waker.borrow_mut().take().expect("the task was polled");
        waker.wake_by_ref();
        waker.wake();
        assert_eq!(polls.get(), 1);
    }

    /// Runtime B's first task has the same slot and generation as the task
    /// runtime A left pending; only the runtime tag tells their wakers apart.
    #[test]
    fn a_foreign_runtimes_waker_polls_nothing() {
        let foreign = Rc::new(RefCell::new(None));
        let mut a = Runtime::new();
        a.block_on(async {
            spawn(pending_probe(Rc::new(Cell::new(0)), Rc::clone(&foreign)));
            yield_now().await;
        });
        let foreign = foreign.borrow_mut().take().expect("A's task was polled");

        let polls = Rc::new(Cell::new(0));
        let mut b = Runtime::new();
        b.block_on(async {
            spawn(pending_probe(
                Rc::clone(&polls),
                Rc::new(RefCell::new(None)),
            ));
            yield_now().await;
            assert_eq!(polls.get(), 1);
            foreign.wake_by_ref();
            sleep(Duration::from_millis(1)).await;
        });
        assert_eq!(polls.get(), 1, "A's waker polled B's task");
        // Root: first poll, after the yield, after the sleep.
        assert_eq!(b.metrics().polls, 4);
        drop(a);
    }

    #[test]
    fn a_detached_tasks_future_drops_with_the_runtime_while_its_handle_lives() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut rt = Runtime::new();
        // Out of `block_on` in an `Option`: the handle outlives its runtime.
        let handle = rt.block_on({
            let log = Rc::clone(&log);
            async move {
                let handles = ["slot0", "slot1"].map(|name| {
                    let guard = DropLog(name, Rc::clone(&log));
                    spawn(async move {
                        sleep(Duration::from_secs(3_600)).await;
                        drop(guard);
                    })
                });
                sleep(Duration::from_millis(1)).await;
                let [first, second] = handles;
                drop(first);
                Some(second)
            }
        });
        let handle = handle.expect("the second task's handle");
        assert!(log.borrow().is_empty());
        drop(rt);
        assert_eq!(*log.borrow(), ["slot0", "slot1"], "dropped in slot order");
        assert!(!handle.is_finished());
    }
}
