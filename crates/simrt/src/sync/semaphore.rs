//! Counting semaphore with FIFO fairness, used for connection-pool admission.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct State {
    permits: usize,
    waiters: VecDeque<(usize, Waker)>,
    granted: Vec<usize>,
    next_waiter_id: usize,
}

/// An async counting semaphore. Permits are released when the
/// [`SemaphorePermit`] guard is dropped.
pub struct Semaphore {
    state: Rc<RefCell<State>>,
}

/// RAII guard returned by an acquire; releases its permit on drop.
pub struct SemaphorePermit {
    state: Rc<RefCell<State>>,
}

impl Drop for SemaphorePermit {
    fn drop(&mut self) {
        release_one(&self.state);
    }
}

fn release_one(state: &Rc<RefCell<State>>) {
    let waker = {
        let mut s = state.borrow_mut();
        if let Some((id, waker)) = s.waiters.pop_front() {
            s.granted.push(id);
            Some(waker)
        } else {
            s.permits += 1;
            None
        }
    };
    if let Some(w) = waker {
        w.wake();
    }
}

impl Semaphore {
    /// Create a semaphore with `permits` available permits.
    pub fn new(permits: usize) -> Self {
        Self {
            state: Rc::new(RefCell::new(State {
                permits,
                waiters: VecDeque::new(),
                granted: Vec::new(),
                next_waiter_id: 0,
            })),
        }
    }

    /// Number of currently available permits.
    pub fn available_permits(&self) -> usize {
        self.state.borrow().permits
    }

    /// Acquire one permit, waiting (FIFO) if none is available.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            state: Rc::clone(&self.state),
            waiter_id: None,
        }
    }

    /// Try to acquire one permit without waiting.
    pub fn try_acquire(&self) -> Option<SemaphorePermit> {
        let mut s = self.state.borrow_mut();
        if s.permits == 0 {
            return None;
        }
        s.permits -= 1;
        drop(s);
        Some(SemaphorePermit {
            state: Rc::clone(&self.state),
        })
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    state: Rc<RefCell<State>>,
    waiter_id: Option<usize>,
}

impl Future for Acquire {
    type Output = SemaphorePermit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.state.borrow_mut();
        match self.waiter_id {
            None => {
                if s.permits > 0 {
                    s.permits -= 1;
                    drop(s);
                    return Poll::Ready(SemaphorePermit {
                        state: Rc::clone(&self.state),
                    });
                }
                let id = s.next_waiter_id;
                s.next_waiter_id += 1;
                s.waiters.push_back((id, cx.waker().clone()));
                drop(s);
                self.waiter_id = Some(id);
                Poll::Pending
            }
            Some(id) => {
                if let Some(pos) = s.granted.iter().position(|g| *g == id) {
                    s.granted.swap_remove(pos);
                    drop(s);
                    return Poll::Ready(SemaphorePermit {
                        state: Rc::clone(&self.state),
                    });
                }
                if let Some(entry) = s.waiters.iter_mut().find(|(wid, _)| *wid == id) {
                    entry.1 = cx.waker().clone();
                }
                Poll::Pending
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(id) = self.waiter_id {
            let mut s = self.state.borrow_mut();
            s.waiters.retain(|(wid, _)| *wid != id);
            if let Some(pos) = s.granted.iter().position(|g| *g == id) {
                // We were granted a permit but never consumed it: hand it back.
                s.granted.swap_remove(pos);
                drop(s);
                release_one(&self.state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{now, sleep, spawn, Runtime};
    use std::time::Duration;

    #[test]
    fn limits_concurrency() {
        let mut rt = Runtime::new();
        let elapsed_ms = rt.block_on(async {
            let sem = Rc::new(Semaphore::new(2));
            let start = now();
            let mut handles = Vec::new();
            for _ in 0..4 {
                let sem = Rc::clone(&sem);
                handles.push(spawn(async move {
                    let _permit = sem.acquire().await;
                    sleep(Duration::from_millis(10)).await;
                }));
            }
            for h in handles {
                h.await;
            }
            now().duration_since(start).as_millis()
        });
        // 4 jobs of 10ms with concurrency 2 => 20ms of virtual time.
        assert_eq!(elapsed_ms, 20);
    }

    #[test]
    fn try_acquire_fails_while_the_permit_is_held() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let sem = Semaphore::new(1);
            let p = sem.try_acquire().unwrap();
            assert!(sem.try_acquire().is_none());
            drop(p);
            assert!(sem.try_acquire().is_some()); // dropped immediately again
            assert_eq!(sem.available_permits(), 1);
        });
    }
}
