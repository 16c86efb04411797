//! Small future combinators: `timeout`, `join_all`, `yield_now`.

use std::fmt;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::time::{sleep, Sleep};

/// Error returned by [`timeout`] when the deadline elapsed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl fmt::Display for Elapsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operation timed out (virtual deadline elapsed)")
    }
}

impl std::error::Error for Elapsed {}

/// Run `fut` with a virtual-time deadline of `dur`.
///
/// Returns `Ok(output)` if the future completes first, `Err(Elapsed)` if the
/// timer fires first. The inner future is dropped on timeout, cancelling it.
pub fn timeout<F: Future>(dur: Duration, fut: F) -> Timeout<F> {
    Timeout {
        fut,
        deadline: sleep(dur),
    }
}

/// Future returned by [`timeout`]: the inner future and its deadline side by
/// side, nothing else (a lock wait's is 56 bytes). Each poll polls the inner
/// future first, then the deadline, whose clock starts at the first poll.
pub struct Timeout<F> {
    fut: F,
    deadline: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `fut` is structurally pinned — it is never moved out of
        // the pinned `Timeout`, which has no `Drop` impl and is `Unpin` only
        // when `F` is; `deadline` is `Unpin` and needs no pinning.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: see above.
        if let Poll::Ready(out) = unsafe { Pin::new_unchecked(&mut this.fut) }.poll(cx) {
            return Poll::Ready(Ok(out));
        }
        if Pin::new(&mut this.deadline).poll(cx).is_ready() {
            return Poll::Ready(Err(Elapsed));
        }
        Poll::Pending
    }
}

/// Await a set of futures concurrently, returning their outputs in input order.
///
/// Every wake-up re-polls every unfinished future, so joining `n` of them
/// costs O(n²) polls: this is for the coordinator's 2–4-branch fan-outs.
/// Spawned tasks progress on their own — to join many, await their
/// [`JoinHandle`](crate::JoinHandle)s one after another instead.
///
/// The futures are built straight into one boxed slice from the exact-size
/// iterator (no caller `Vec`, no second copy), and their outputs replace
/// them there: joining costs that allocation plus the returned `Vec`, which
/// allocates nothing when the output is zero-sized. Futures are polled, and
/// dropped when the join is cancelled, in index order.
pub async fn join_all<I>(futures: I) -> Vec<<I::Item as Future>::Output>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Future,
{
    let slots: Box<[Slot<I::Item>]> = futures.into_iter().map(Slot::Pending).collect();
    let mut slots = Box::into_pin(slots);
    poll_fn(move |cx| {
        // SAFETY: the slots are never moved out of the boxed slice (which
        // itself never moves); a pending future leaves its slot only by
        // being dropped in place when the slot is overwritten.
        let slots = unsafe { slots.as_mut().get_unchecked_mut() };
        let mut all_done = true;
        for slot in slots.iter_mut() {
            if let Slot::Pending(fut) = slot {
                // SAFETY: as above, `fut` stays at this address until dropped.
                match unsafe { Pin::new_unchecked(fut) }.poll(cx) {
                    Poll::Ready(out) => *slot = Slot::Done(out),
                    Poll::Pending => all_done = false,
                }
            }
        }
        if !all_done {
            return Poll::Pending;
        }
        Poll::Ready(
            slots
                .iter_mut()
                .map(|slot| match std::mem::replace(slot, Slot::Taken) {
                    Slot::Done(out) => out,
                    _ => unreachable!("join_all finished with a pending slot"),
                })
                .collect(),
        )
    })
    .await
}

/// One [`join_all`] entry.
enum Slot<F: Future> {
    Pending(F),
    Done(F::Output),
    Taken,
}

/// Yield control back to the scheduler once, allowing other ready tasks to run.
pub async fn yield_now() {
    let mut yielded = false;
    poll_fn(move |cx| {
        if yielded {
            Poll::Ready(())
        } else {
            yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{now, sleep, spawn, Runtime};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn timeout_ok_when_future_finishes_first() {
        let mut rt = Runtime::new();
        let out = rt.block_on(async {
            let block = timeout(Duration::from_millis(100), async {
                sleep(Duration::from_millis(10)).await;
                5
            })
            .await;
            // An `Unpin` future — the shape of the lock manager's grant wait.
            let (tx, rx) = crate::sync::oneshot::channel();
            spawn(async move {
                sleep(Duration::from_millis(3)).await;
                tx.send(11u8).unwrap();
            });
            (block, timeout(Duration::from_millis(10), rx).await)
        });
        assert_eq!(out, (Ok(5), Ok(Ok(11))));
        assert_eq!(rt.now_micros(), 13_000);
    }

    #[test]
    fn timeout_elapsed_when_deadline_first() {
        let mut rt = Runtime::new();
        let out = rt.block_on(async {
            let block = timeout(Duration::from_millis(10), async {
                sleep(Duration::from_millis(100)).await;
                5
            })
            .await;
            // The inner future is dropped: its sender observes the closure.
            let (tx, rx) = crate::sync::oneshot::channel::<u8>();
            let channel = timeout(Duration::from_millis(5), rx).await;
            assert_eq!(tx.send(1), Err(1), "timed-out receiver was cancelled");
            (block, channel)
        });
        assert_eq!(out, (Err(Elapsed), Err(Elapsed)));
        assert_eq!(rt.now_micros(), 15_000);
    }

    #[test]
    fn join_all_preserves_order_and_overlaps() {
        let mut rt = Runtime::new();
        let (outs, elapsed) = rt.block_on(async {
            let start = now();
            let futs: Vec<_> = (0..5u64)
                .map(|i| async move {
                    sleep(Duration::from_millis(10 * (5 - i))).await;
                    i
                })
                .collect();
            let outs = join_all(futs).await;
            (outs, now().duration_since(start))
        });
        assert_eq!(outs, vec![0, 1, 2, 3, 4]);
        assert_eq!(elapsed, Duration::from_millis(50));
    }

    #[test]
    fn join_all_empty() {
        let mut rt = Runtime::new();
        let outs: Vec<u8> =
            rt.block_on(async { join_all(Vec::<std::future::Ready<u8>>::new()).await });
        assert!(outs.is_empty());
    }

    /// The drivers' join: spawned tasks awaited one handle after another.
    /// Linear in the number of tasks (`join_all` over these handles re-polls
    /// every unfinished one on each completion and does not finish).
    #[test]
    fn awaiting_spawned_handles_in_order_is_linear() {
        const N: u64 = 100_000;
        let mut rt = Runtime::new();
        let sum = rt.block_on(async {
            let handles: Vec<_> = (0..N)
                .map(|i| {
                    spawn(async move {
                        // Completion order is scrambled against join order.
                        sleep(Duration::from_micros(i * 7919 % N)).await;
                        i
                    })
                })
                .collect();
            let mut sum = 0;
            for handle in handles {
                sum += handle.await;
            }
            sum
        });
        assert_eq!(sum, N * (N - 1) / 2);
        assert_eq!(rt.now_micros(), N - 1);
        // Two polls per task plus at most one wake-up of the joiner each.
        assert!(rt.metrics().polls <= 3 * N + 8, "{}", rt.metrics().polls);
    }

    #[test]
    fn timeout_on_spawned_work() {
        let mut rt = Runtime::new();
        let ok = rt.block_on(async {
            let handle = spawn(async {
                sleep(Duration::from_millis(2)).await;
                42
            });
            timeout(Duration::from_millis(5), handle).await
        });
        assert_eq!(ok, Ok(42));
    }

    #[test]
    fn join_all_cancelled_by_timeout_drops_unfinished_futures_in_index_order() {
        struct DropLog(usize, Rc<RefCell<Vec<usize>>>);
        impl Drop for DropLog {
            fn drop(&mut self) {
                self.1.borrow_mut().push(self.0);
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut rt = Runtime::new();
        let out = rt.block_on({
            let log = Rc::clone(&log);
            async move {
                let futs: Vec<_> = [100, 1, 100, 100]
                    .into_iter()
                    .enumerate()
                    .map(|(i, ms)| {
                        let guard = DropLog(i, Rc::clone(&log));
                        async move {
                            sleep(Duration::from_millis(ms)).await;
                            drop(guard);
                        }
                    })
                    .collect();
                timeout(Duration::from_millis(10), join_all(futs)).await
            }
        });
        assert_eq!(out, Err(Elapsed));
        // The finished future went at its completion, the rest by index.
        assert_eq!(*log.borrow(), [1, 0, 2, 3]);
    }
}
