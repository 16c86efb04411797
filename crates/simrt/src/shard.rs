//! Conservative multi-worker execution: per-shard executors under a
//! window barrier.
//!
//! ## Protocol
//!
//! Each worker shard owns a full [`RuntimeInner`] (ready queue, clock, timer
//! heap). Execution alternates between *barriers* and *windows*:
//!
//! 1. At a barrier every shard reports its next local event time (its clock
//!    if a task is runnable, else its earliest timer) and hands over the
//!    cross-shard envelopes it produced in the last window.
//! 2. The last shard to arrive resolves the round: envelopes are sorted by
//!    the canonical delivery key `(deliver_at, src_node, seq, mailbox)` and
//!    routed to their destination shards, each shard's *effective* next
//!    event `eff_i` is the min of its report and its routed-in mail, and
//!    every shard `j` receives a window end
//!    `W_j = min over i≠j of (eff_i + lookahead(i → j))`.
//! 3. Each shard delivers its routed mail and runs freely up to (but not
//!    including) `W_j`, then returns to step 1.
//!
//! Because a cross-shard message sent at time `t` arrives no earlier than
//! `t + lookahead`, no shard inside its window can receive mail from its
//! past — every interleaving of worker threads yields the same per-shard
//! event sequence, so runs are bit-reproducible at any worker count. The
//! shard holding the global-minimum event always has `W_j` strictly above
//! it (lookahead is floored at 1µs), so the protocol cannot livelock.
//!
//! Termination: when the root future (driven by shard 0 on the caller's
//! thread) completes, a stop flag turns the next barrier verdict into
//! `Stop` for every shard, abandoning background tasks exactly like
//! single-worker `block_on`. If every shard reports "no events" while the
//! root is still pending, the verdict is `Deadlock` and shard 0 raises the
//! same diagnostic the single-worker runtime uses. A panicking worker
//! flips the verdict to `Abort` so no peer blocks forever, and the panic
//! is re-thrown on the caller's thread.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::executor::{
    CurrentCtx, CurrentGuard, PendingSpawn, RootCtx, RunMetrics, RuntimeInner, WindowPause,
};
use crate::mailbox::Envelope;
use crate::topology::RunMeta;

/// A shard's connection to the barrier: its id, the shared coordinator and
/// the outbox collecting cross-shard envelopes produced during a window.
pub(crate) struct ShardLink {
    pub(crate) shard: u32,
    #[allow(dead_code)] // reserved for in-task barrier introspection
    pub(crate) ctl: Arc<Control>,
    pub(crate) outbox: Rc<RefCell<Vec<Envelope>>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Running,
    Stop,
    Deadlock,
    Abort,
}

struct BarrierState {
    epoch: u64,
    arrived: usize,
    /// Per-shard next-event report for the current round.
    reports: Vec<Option<u64>>,
    /// Envelopes handed over this round, pending routing.
    staged: Vec<Envelope>,
    /// Routed envelopes awaiting pickup by their destination shard.
    inboxes: Vec<Vec<Envelope>>,
    /// Window end per shard, valid for the verdict `Running`.
    windows: Vec<u64>,
    verdict: Verdict,
}

/// What a shard should do after a barrier round.
enum Directive {
    Run { window: u64, inbox: Vec<Envelope> },
    Stop,
    Deadlock,
    Abort,
}

pub(crate) struct Control {
    meta: Arc<RunMeta>,
    stop: AtomicBool,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl Control {
    fn new(meta: Arc<RunMeta>) -> Self {
        let workers = meta.workers;
        Self {
            meta,
            stop: AtomicBool::new(false),
            state: Mutex::new(BarrierState {
                epoch: 0,
                arrived: 0,
                reports: vec![None; workers],
                staged: Vec::new(),
                inboxes: (0..workers).map(|_| Vec::new()).collect(),
                windows: vec![0; workers],
                verdict: Verdict::Running,
            }),
            cv: Condvar::new(),
        }
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Called on worker panic so peers waiting at the barrier don't hang.
    fn abort(&self) {
        let mut state = self.state.lock().unwrap();
        state.verdict = Verdict::Abort;
        self.cv.notify_all();
    }

    /// Report this shard's next event and outbox, wait for the round to
    /// resolve, and collect the directive. The last arriver resolves the
    /// round for everyone; resolution is a pure function of the reports and
    /// staged envelopes, so thread arrival order cannot affect the outcome.
    fn arrive(&self, shard: u32, next: Option<u64>, outbox: Vec<Envelope>) -> Directive {
        let workers = self.meta.workers;
        let mut state = self.state.lock().unwrap();
        if state.verdict == Verdict::Abort {
            return Directive::Abort;
        }
        let my_epoch = state.epoch;
        state.reports[shard as usize] = next;
        state.staged.extend(outbox);
        state.arrived += 1;
        if state.arrived == workers {
            state.arrived = 0;
            // Canonical routing order: key on the full delivery tuple so the
            // inbox contents (and therefore replay order for not-yet-bound
            // mailboxes) are independent of which shard staged first.
            let mut staged = std::mem::take(&mut state.staged);
            staged.sort_by_key(|e| (e.deliver_at, e.src_node, e.seq, e.mailbox));
            for env in staged {
                state.inboxes[env.dst_shard as usize].push(env);
            }
            let eff: Vec<Option<u64>> = (0..workers)
                .map(|i| {
                    let mail = state.inboxes[i].iter().map(|e| e.deliver_at).min();
                    match (state.reports[i], mail) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    }
                })
                .collect();
            if self.stop.load(Ordering::SeqCst) {
                state.verdict = Verdict::Stop;
            } else if eff.iter().all(Option::is_none) {
                state.verdict = Verdict::Deadlock;
            } else {
                state.verdict = Verdict::Running;
                for j in 0..workers {
                    state.windows[j] = (0..workers)
                        .filter(|&i| i != j)
                        .filter_map(|i| {
                            eff[i]
                                .map(|e| e.saturating_add(self.meta.lookahead(i as u32, j as u32)))
                        })
                        .min()
                        .unwrap_or(u64::MAX);
                }
            }
            state.epoch += 1;
            self.cv.notify_all();
        } else {
            while state.epoch == my_epoch && state.verdict != Verdict::Abort {
                state = self.cv.wait(state).unwrap();
            }
        }
        match state.verdict {
            Verdict::Running => Directive::Run {
                window: state.windows[shard as usize],
                inbox: std::mem::take(&mut state.inboxes[shard as usize]),
            },
            Verdict::Stop => Directive::Stop,
            Verdict::Deadlock => Directive::Deadlock,
            Verdict::Abort => Directive::Abort,
        }
    }
}

/// Sets the abort verdict if the owning thread unwinds, so peer shards
/// parked at the barrier wake up instead of hanging.
struct AbortOnPanic(Arc<Control>);

impl Drop for AbortOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

enum Outcome {
    Stopped,
    Deadlock,
    Aborted,
}

/// Drive one shard: barrier → deliver inbox → run window → repeat.
fn drive_shard<F: Future>(
    shard: u32,
    inner: &RuntimeInner,
    ctl: &Control,
    outbox: &RefCell<Vec<Envelope>>,
    mut root: Option<RootCtx<'_, F>>,
) -> Outcome {
    loop {
        let next = if inner.has_ready() {
            Some(inner.now_micros())
        } else {
            inner.next_timer_deadline()
        };
        let mail = std::mem::take(&mut *outbox.borrow_mut());
        match ctl.arrive(shard, next, mail) {
            Directive::Run { window, inbox } => {
                for env in inbox {
                    inner.deliver(env);
                }
                // An unbounded window means no peer has any event: run until
                // locally blocked — but return to the barrier the moment a
                // cross-shard envelope is produced, since an idle peer may be
                // waiting on exactly that message. (Deterministic: outbox
                // occupancy is a pure function of this shard's execution.)
                let unbounded = window == u64::MAX;
                let pause = inner.run_window(Some(window), &mut root, || {
                    unbounded && !outbox.borrow().is_empty()
                });
                if let WindowPause::RootDone = pause {
                    root = None;
                    ctl.request_stop();
                }
            }
            Directive::Stop => return Outcome::Stopped,
            Directive::Deadlock => return Outcome::Deadlock,
            Directive::Abort => return Outcome::Aborted,
        }
    }
}

/// Body of worker shards 1..N (shard 0 runs on the caller's thread).
fn worker_main(
    shard: u32,
    meta: Arc<RunMeta>,
    ctl: Arc<Control>,
    thunks: Vec<Box<dyn FnOnce() + Send>>,
) -> (RunMetrics, u64) {
    let inner = Rc::new(RuntimeInner::new());
    let outbox = Rc::new(RefCell::new(Vec::new()));
    let _abort = AbortOnPanic(Arc::clone(&ctl));
    let _guard = CurrentGuard::enter(CurrentCtx {
        inner: Rc::clone(&inner),
        meta: Arc::clone(&meta),
        shard: Some(ShardLink {
            shard,
            ctl: Arc::clone(&ctl),
            outbox: Rc::clone(&outbox),
        }),
    });
    for hooks in &meta.shard_hooks {
        (hooks.enter)(shard);
    }
    for thunk in thunks {
        thunk();
    }
    let mut no_root: Option<RootCtx<'static, std::future::Ready<()>>> = None;
    drive_shard(shard, &inner, &ctl, &outbox, no_root.take());
    for hooks in meta.shard_hooks.iter().rev() {
        (hooks.teardown)(shard);
    }
    (inner.metrics(), inner.now_micros())
}

/// Run `root` across `meta.workers` shards. Shard 0 (and the root future)
/// stays on the calling thread; shards 1..N get their own threads. Returns
/// the root's output, the per-shard metrics (index = shard) and the max
/// shard clock.
pub(crate) fn run_sharded<F: Future>(
    meta: Arc<RunMeta>,
    pending: Vec<PendingSpawn>,
    root: F,
) -> (F::Output, Vec<RunMetrics>, u64) {
    let workers = meta.workers;
    let ctl = Arc::new(Control::new(Arc::clone(&meta)));
    let mut per_shard: Vec<Vec<Box<dyn FnOnce() + Send>>> =
        (0..workers).map(|_| Vec::new()).collect();
    for spawn in pending {
        let shard = meta.topology.shard_of(spawn.node) as usize;
        per_shard[shard].push(spawn.thunk);
    }
    let mut shards = per_shard.into_iter();
    let shard0_thunks = shards.next().expect("workers >= 1");

    let mut out: Option<F::Output> = None;
    let (metrics, now) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (i, thunks) in shards.enumerate() {
            let shard = (i + 1) as u32;
            let meta = Arc::clone(&meta);
            let ctl = Arc::clone(&ctl);
            handles.push(s.spawn(move || worker_main(shard, meta, ctl, thunks)));
        }

        let inner = Rc::new(RuntimeInner::new());
        let outbox = Rc::new(RefCell::new(Vec::new()));
        let _abort = AbortOnPanic(Arc::clone(&ctl));
        let _guard = CurrentGuard::enter(CurrentCtx {
            inner: Rc::clone(&inner),
            meta: Arc::clone(&meta),
            shard: Some(ShardLink {
                shard: 0,
                ctl: Arc::clone(&ctl),
                outbox: Rc::clone(&outbox),
            }),
        });
        for hooks in &meta.shard_hooks {
            (hooks.enter)(0);
        }
        for thunk in shard0_thunks {
            thunk();
        }
        let mut root = Box::pin(root);
        let root_waker = inner.root_waker();
        inner.push_root_ready();
        let mut root_ctx = Some(RootCtx {
            fut: root.as_mut(),
            waker: &root_waker,
            out: &mut out,
        });
        let outcome = drive_shard(0, &inner, &ctl, &outbox, root_ctx.take());
        for hooks in meta.shard_hooks.iter().rev() {
            (hooks.teardown)(0);
        }
        let now0 = inner.now_micros();
        let mut metrics = vec![inner.metrics()];
        let mut now = now0;
        let mut worker_panic = None;
        for handle in handles {
            match handle.join() {
                Ok((m, n)) => {
                    metrics.push(m);
                    now = now.max(n);
                }
                Err(payload) => worker_panic = Some(payload),
            }
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
        match outcome {
            Outcome::Stopped => {}
            Outcome::Deadlock => panic!(
                "geotp-simrt: simulation deadlock at t={now0}us — the root task is \
                 pending but no task is runnable and no timer is registered"
            ),
            Outcome::Aborted => panic!("geotp-simrt: a worker shard aborted"),
        }
        (metrics, now)
    });
    (out.expect("root future completed"), metrics, now)
}
