//! Broadcast event notification: [`Notify::notify_waiters`] wakes every
//! task waiting in [`Notify::notified`] at the time of the call.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

#[derive(Default)]
struct State {
    /// How many `notify_waiters` calls there have been.
    epoch: u64,
    waiters: VecDeque<(usize, Waker)>,
    next_waiter_id: usize,
}

/// Wakes every task waiting on it. A notification with no waiter is not
/// remembered.
#[derive(Default)]
pub struct Notify {
    state: Rc<RefCell<State>>,
}

impl Notify {
    /// Create a new `Notify`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake every task currently waiting, in queue order. Waking only
    /// queues a task id, so the state stays borrowed meanwhile.
    pub fn notify_waiters(&self) {
        let mut s = self.state.borrow_mut();
        s.epoch += 1;
        for (_, waker) in s.waiters.drain(..) {
            waker.wake();
        }
    }

    /// Wait for the next [`notify_waiters`](Self::notify_waiters) after this
    /// future's first poll.
    pub fn notified(&self) -> Notified {
        Notified {
            state: Rc::clone(&self.state),
            waiter: None,
        }
    }
}

/// Future returned by [`Notify::notified`]. It registers at its first poll,
/// recording the notify's epoch, and is ready once the epoch has moved.
pub struct Notified {
    state: Rc<RefCell<State>>,
    /// The waiter's id and the epoch it registered in.
    waiter: Option<(usize, u64)>,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.state.borrow_mut();
        match self.waiter {
            None => {
                let id = s.next_waiter_id;
                s.next_waiter_id += 1;
                s.waiters.push_back((id, cx.waker().clone()));
                let epoch = s.epoch;
                drop(s);
                self.waiter = Some((id, epoch));
                Poll::Pending
            }
            Some((_, epoch)) if s.epoch != epoch => Poll::Ready(()),
            Some((id, _)) => {
                // Refresh the stored waker in case the future moved tasks.
                if let Some(entry) = s.waiters.iter_mut().find(|(wid, _)| *wid == id) {
                    entry.1 = cx.waker().clone();
                }
                Poll::Pending
            }
        }
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        if let Some((id, _)) = self.waiter {
            self.state
                .borrow_mut()
                .waiters
                .retain(|(wid, _)| *wid != id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, spawn, timeout, Runtime};
    use std::cell::Cell;
    use std::future::poll_fn;
    use std::time::Duration;

    /// Poll `fut` once from inside a task.
    async fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        poll_fn(|cx| Poll::Ready(Pin::new(&mut *fut).poll(cx))).await
    }

    #[test]
    fn cancelled_waiter_leaves_no_dangling_entry() {
        // A task awaiting `notified()` is cancelled (here: by a timeout racing
        // it, the same shape an injected crash produces). Its queue entry must
        // be removed on drop, and a later `notify_waiters` must wake the
        // other waiter.
        let mut rt = Runtime::new();
        let woken = rt.block_on(async {
            let n = Rc::new(Notify::new());
            let n1 = Rc::clone(&n);
            // First waiter: cancelled after 5ms by the timeout.
            let cancelled = spawn(async move {
                timeout(Duration::from_millis(5), n1.notified())
                    .await
                    .is_ok()
            });
            let n2 = Rc::clone(&n);
            let count = Rc::new(Cell::new(0u32));
            let c2 = Rc::clone(&count);
            spawn(async move {
                n2.notified().await;
                c2.set(c2.get() + 1);
            });
            sleep(Duration::from_millis(10)).await;
            assert!(!cancelled.await, "first waiter must have timed out");
            assert_eq!(n.state.borrow().waiters.len(), 1, "dead entry removed");
            n.notify_waiters();
            sleep(Duration::from_millis(1)).await;
            assert!(n.state.borrow().waiters.is_empty());
            count.get()
        });
        assert_eq!(woken, 1);
    }

    #[test]
    fn waiter_registered_after_notify_waiters_is_not_woken() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let n = Notify::new();
            n.notify_waiters(); // nobody waits: nothing is remembered
            let mut late = Box::pin(n.notified());
            assert!(poll_once(&mut late).await.is_pending());
            assert!(poll_once(&mut late).await.is_pending());
            assert_eq!(n.state.borrow().waiters.len(), 1);
            n.notify_waiters();
            assert!(poll_once(&mut late).await.is_ready());
        });
        assert_eq!(rt.now_micros(), 0);
    }

    #[test]
    fn woken_waiter_dropped_before_poll_leaves_nothing_behind() {
        // A waiter is woken but its future is dropped before it is polled
        // again (its task was cancelled in the same virtual instant). The
        // notification is not passed on: the next waiter stays pending.
        let mut rt = Runtime::new();
        rt.block_on(async {
            let n = Notify::new();
            let mut first = Box::pin(n.notified());
            assert!(poll_once(&mut first).await.is_pending());
            n.notify_waiters();
            drop(first);
            assert!(n.state.borrow().waiters.is_empty());
            let next = timeout(Duration::from_millis(1), n.notified()).await;
            assert!(next.is_err(), "the dropped wake was not stored");
            assert!(n.state.borrow().waiters.is_empty());
        });
        assert_eq!(rt.now_micros(), 1_000);
    }

    #[test]
    fn notify_waiters_wakes_all_current_waiters() {
        let mut rt = Runtime::new();
        let woken = rt.block_on(async {
            let n = Rc::new(Notify::new());
            let count = Rc::new(Cell::new(0u32));
            for _ in 0..4 {
                let n = Rc::clone(&n);
                let count = Rc::clone(&count);
                spawn(async move {
                    n.notified().await;
                    count.set(count.get() + 1);
                });
            }
            sleep(Duration::from_millis(1)).await;
            n.notify_waiters();
            sleep(Duration::from_millis(1)).await;
            // A waiter registering after notify_waiters must not be woken.
            let n2 = Rc::clone(&n);
            spawn(async move {
                n2.notified().await;
                unreachable!("late waiter must not be notified");
            });
            sleep(Duration::from_millis(1)).await;
            count.get()
        });
        assert_eq!(woken, 4);
    }
}
