//! Event notification primitive, modelled on `tokio::sync::Notify`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

#[derive(Default)]
struct State {
    /// One stored permit: a `notify_one` with no waiter is remembered so the
    /// next `notified().await` returns immediately.
    permit: bool,
    waiters: VecDeque<(usize, Waker)>,
    /// Waiter ids that have been explicitly woken and should complete.
    woken: Vec<usize>,
    next_waiter_id: usize,
}

/// Notifies one or many waiting tasks.
#[derive(Default)]
pub struct Notify {
    state: Rc<RefCell<State>>,
}

impl Notify {
    /// Create a new `Notify` with no stored permit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake a single waiting task, or store a permit if none is waiting.
    pub fn notify_one(&self) {
        let waker = {
            let mut s = self.state.borrow_mut();
            if let Some((id, waker)) = s.waiters.pop_front() {
                s.woken.push(id);
                Some(waker)
            } else {
                s.permit = true;
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Wake every task currently waiting (does not store a permit).
    ///
    /// Waiters are popped and woken one at a time, in queue order, with no
    /// borrow of the state held across a wake; a waiter that registers
    /// during this call is not among them.
    pub fn notify_waiters(&self) {
        let waiting = self.state.borrow().waiters.len();
        for _ in 0..waiting {
            let waker = {
                let mut s = self.state.borrow_mut();
                let Some((id, waker)) = s.waiters.pop_front() else {
                    break;
                };
                s.woken.push(id);
                waker
            };
            waker.wake();
        }
    }

    /// Wait for a notification.
    pub fn notified(&self) -> Notified {
        Notified {
            state: Rc::clone(&self.state),
            waiter_id: None,
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    state: Rc<RefCell<State>>,
    waiter_id: Option<usize>,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.state.borrow_mut();
        match self.waiter_id {
            None => {
                if s.permit {
                    s.permit = false;
                    return Poll::Ready(());
                }
                let id = s.next_waiter_id;
                s.next_waiter_id += 1;
                s.waiters.push_back((id, cx.waker().clone()));
                drop(s);
                self.waiter_id = Some(id);
                Poll::Pending
            }
            Some(id) => {
                if let Some(pos) = s.woken.iter().position(|w| *w == id) {
                    s.woken.swap_remove(pos);
                    return Poll::Ready(());
                }
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
        if let Some(id) = self.waiter_id {
            let mut s = self.state.borrow_mut();
            s.waiters.retain(|(wid, _)| *wid != id);
            // If we were woken but never polled to completion, pass the wake on
            // to the next waiter so the notification is not lost.
            if let Some(pos) = s.woken.iter().position(|w| *w == id) {
                s.woken.swap_remove(pos);
                if let Some((next_id, waker)) = s.waiters.pop_front() {
                    s.woken.push(next_id);
                    drop(s);
                    waker.wake();
                } else {
                    s.permit = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, spawn, Runtime};
    use std::cell::Cell;
    use std::time::Duration;

    #[test]
    fn stored_permit_completes_immediately() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let n = Notify::new();
            n.notify_one();
            n.notified().await; // must not hang
        });
        assert_eq!(rt.now_micros(), 0);
    }

    #[test]
    fn notify_one_wakes_single_waiter() {
        let mut rt = Runtime::new();
        let woken = rt.block_on(async {
            let n = Rc::new(Notify::new());
            let count = Rc::new(Cell::new(0u32));
            for _ in 0..3 {
                let n = Rc::clone(&n);
                let count = Rc::clone(&count);
                spawn(async move {
                    n.notified().await;
                    count.set(count.get() + 1);
                });
            }
            sleep(Duration::from_millis(1)).await;
            n.notify_one();
            sleep(Duration::from_millis(1)).await;
            count.get()
        });
        assert_eq!(woken, 1);
    }

    #[test]
    fn cancelled_waiter_leaves_no_dangling_entry() {
        // A task awaiting `notified()` is cancelled (here: by a timeout racing
        // it, the same shape an injected crash produces). Its queue entry must
        // be removed on drop, and a later `notify_one` must wake the *other*
        // waiter instead of being swallowed by the dead one.
        let mut rt = Runtime::new();
        let woken = rt.block_on(async {
            let n = Rc::new(Notify::new());
            let n1 = Rc::clone(&n);
            // First waiter: cancelled after 5ms by the timeout.
            let cancelled = spawn(async move {
                crate::timeout(Duration::from_millis(5), n1.notified())
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
            n.notify_one();
            sleep(Duration::from_millis(1)).await;
            assert!(n.state.borrow().waiters.is_empty());
            assert!(n.state.borrow().woken.is_empty(), "no stale woken ids");
            count.get()
        });
        assert_eq!(woken, 1);
    }

    #[test]
    fn wake_passed_on_when_woken_waiter_is_dropped_before_poll() {
        // A waiter is woken by `notify_one` but its future is dropped before
        // it gets polled again (the owning task was cancelled in the same
        // virtual instant). The notification must not be lost: it moves to the
        // next waiter, or becomes a stored permit when none is queued.
        let mut rt = Runtime::new();
        rt.block_on(async {
            let n = Rc::new(Notify::new());
            let mut first = Box::pin(n.notified());
            // Register the waiter.
            assert!(
                crate::race(&mut first, std::future::ready(())).await == crate::Either::Right(())
            );
            n.notify_one();
            // Dropped while "woken but not yet re-polled".
            drop(first);
            assert!(n.state.borrow().woken.is_empty());
            // The wake survived as the stored permit.
            n.notified().await;
        });
        assert_eq!(rt.now_micros(), 0);
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
