//! Join handles for spawned tasks.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Shared completion slot between a spawned task and its [`JoinHandle`].
pub(crate) struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

impl<T> JoinState<T> {
    pub(crate) fn new() -> Self {
        Self {
            result: None,
            waker: None,
            finished: false,
        }
    }

    pub(crate) fn complete(state: &Rc<RefCell<Self>>, value: T) {
        let waker = {
            let mut s = state.borrow_mut();
            s.result = Some(value);
            s.finished = true;
            s.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Handle to a spawned task; awaiting it yields the task's output.
///
/// Dropping the handle detaches the task (it keeps running in the background).
///
/// Unlike tokio there is no cancellation-on-drop and no `JoinError`: the
/// runtime is single-threaded and panics propagate directly, so the output is
/// returned by value.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    pub(crate) fn new(state: Rc<RefCell<JoinState<T>>>) -> Self {
        Self { state }
    }

    /// Whether the task has already finished.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut state = self.state.borrow_mut();
        if let Some(v) = state.result.take() {
            return Poll::Ready(v);
        }
        assert!(
            !state.finished,
            "JoinHandle polled after its output was already taken"
        );
        state.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use crate::{sleep, spawn, Runtime};
    use std::time::Duration;

    #[test]
    fn is_finished_once_the_task_returns() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let h = spawn(async { 5u32 });
            assert!(!h.is_finished());
            sleep(Duration::from_millis(1)).await;
            assert!(h.is_finished());
            assert_eq!(h.await, 5);
        });
    }

    #[test]
    fn detached_task_still_runs() {
        let mut rt = Runtime::new();
        let out = rt.block_on(async {
            let flag = std::rc::Rc::new(std::cell::Cell::new(false));
            let f = std::rc::Rc::clone(&flag);
            drop(spawn(async move {
                sleep(Duration::from_millis(2)).await;
                f.set(true);
            }));
            sleep(Duration::from_millis(5)).await;
            flag.get()
        });
        assert!(out);
    }
}
