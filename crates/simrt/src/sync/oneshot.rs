//! One-shot channel: send exactly one value from one task to another.
//!
//! Besides the plain [`channel`] constructor there is a [`Pool`] that recycles
//! the channel's shared node across uses. High-rate callers that create one
//! channel per event (the lock manager creates one per *contended* lock
//! acquisition) otherwise pay an `Rc` allocation and deallocation per channel;
//! with a pool the steady state allocates nothing.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Shared<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_dropped: bool,
    receiver_dropped: bool,
}

impl<T> Shared<T> {
    fn fresh() -> Self {
        Self {
            value: None,
            waker: None,
            sender_dropped: false,
            receiver_dropped: false,
        }
    }
}

type Node<T> = Rc<RefCell<Shared<T>>>;
type FreeList<T> = Rc<RefCell<Vec<Node<T>>>>;

/// Upper bound on nodes a [`Pool`] keeps around. Beyond this, surplus nodes
/// are simply dropped; the bound only exists so a one-off burst of contention
/// cannot pin memory forever.
const POOL_MAX: usize = 256;

/// A recycling allocator for one-shot channel nodes.
///
/// [`Pool::channel`] behaves exactly like [`channel`], except that the shared
/// node is taken from (and, when both halves are gone, returned to) a free
/// list owned by the pool. Nodes are recycled only once the *last* half drops,
/// so a pooled channel can never observe another use's state.
pub struct Pool<T> {
    free: FreeList<T>,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Pool<T> {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self {
            free: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Number of nodes currently cached.
    pub fn cached(&self) -> usize {
        self.free.borrow().len()
    }

    /// Create a channel whose node is recycled through this pool.
    pub fn channel(&self) -> (Sender<T>, Receiver<T>) {
        let shared = match self.free.borrow_mut().pop() {
            Some(node) => {
                *node.borrow_mut() = Shared::fresh();
                node
            }
            None => Rc::new(RefCell::new(Shared::fresh())),
        };
        (
            Sender {
                shared: Rc::clone(&shared),
                sent: false,
                pool: Some(Rc::clone(&self.free)),
            },
            Receiver {
                shared,
                pool: Some(Rc::clone(&self.free)),
            },
        )
    }
}

/// Return `shared` to `pool` if the caller is the last half alive. Called from
/// both halves' `Drop` impls; whichever drops second sees a strong count of 1
/// (its own reference) and recycles the node.
fn recycle<T>(pool: &Option<FreeList<T>>, shared: &Node<T>) {
    let Some(free) = pool else { return };
    if Rc::strong_count(shared) == 1 {
        let mut free = free.borrow_mut();
        if free.len() < POOL_MAX {
            free.push(Rc::clone(shared));
        }
    }
}

/// Sending half; consumed by [`Sender::send`].
pub struct Sender<T> {
    shared: Rc<RefCell<Shared<T>>>,
    sent: bool,
    pool: Option<FreeList<T>>,
}

/// Receiving half; awaiting it yields `Result<T, RecvError>`.
pub struct Receiver<T> {
    shared: Rc<RefCell<Shared<T>>>,
    pool: Option<FreeList<T>>,
}

/// Error returned when the sender was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oneshot sender dropped without sending a value")
    }
}

impl std::error::Error for RecvError {}

/// Create a new one-shot channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(Shared {
        value: None,
        waker: None,
        sender_dropped: false,
        receiver_dropped: false,
    }));
    (
        Sender {
            shared: Rc::clone(&shared),
            sent: false,
            pool: None,
        },
        Receiver { shared, pool: None },
    )
}

impl<T> Sender<T> {
    /// Send `value` to the receiver. Returns `Err(value)` if the receiver was
    /// already dropped.
    pub fn send(mut self, value: T) -> Result<(), T> {
        let waker = {
            let mut shared = self.shared.borrow_mut();
            if shared.receiver_dropped {
                return Err(value);
            }
            shared.value = Some(value);
            shared.waker.take()
        };
        self.sent = true;
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if !self.sent {
            let waker = {
                let mut shared = self.shared.borrow_mut();
                shared.sender_dropped = true;
                shared.waker.take()
            };
            if let Some(w) = waker {
                w.wake();
            }
        }
        recycle(&self.pool, &self.shared);
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.borrow_mut().receiver_dropped = true;
        recycle(&self.pool, &self.shared);
    }
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut shared = self.shared.borrow_mut();
        if let Some(v) = shared.value.take() {
            return Poll::Ready(Ok(v));
        }
        if shared.sender_dropped {
            return Poll::Ready(Err(RecvError));
        }
        shared.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, spawn, Runtime};
    use std::time::Duration;

    #[test]
    fn send_then_receive() {
        let mut rt = Runtime::new();
        let v = rt.block_on(async {
            let (tx, rx) = channel();
            spawn(async move {
                sleep(Duration::from_millis(3)).await;
                tx.send(99).unwrap();
            });
            rx.await.unwrap()
        });
        assert_eq!(v, 99);
    }

    #[test]
    fn dropped_sender_yields_error() {
        let mut rt = Runtime::new();
        let res = rt.block_on(async {
            let (tx, rx) = channel::<u8>();
            drop(tx);
            rx.await
        });
        assert_eq!(res, Err(RecvError));
    }

    #[test]
    fn send_to_dropped_receiver_fails() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = channel::<u8>();
            drop(rx);
            assert_eq!(tx.send(1), Err(1));
        });
    }

    #[test]
    fn pooled_channels_recycle_their_node() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let pool = Pool::new();
            let (tx, rx) = pool.channel();
            tx.send(5).unwrap();
            assert_eq!(rx.await, Ok(5));
            assert_eq!(pool.cached(), 1, "node returned after both halves died");
            // The recycled node starts from a clean slate.
            let (tx2, rx2) = pool.channel();
            assert_eq!(pool.cached(), 0);
            tx2.send(6).unwrap();
            assert_eq!(rx2.await, Ok(6));
            assert_eq!(pool.cached(), 1);
        });
    }

    #[test]
    fn pooled_channel_recycles_on_abandoned_receiver() {
        // Timeout path: the receiver is dropped first, the sender later.
        let mut rt = Runtime::new();
        rt.block_on(async {
            let pool = Pool::new();
            let (tx, rx) = pool.channel();
            drop(rx);
            assert_eq!(pool.cached(), 0, "sender still alive");
            assert_eq!(tx.send(9), Err(9));
            assert_eq!(pool.cached(), 1);
            // And the reverse order: sender dropped without sending.
            let (tx2, rx2) = pool.channel();
            drop(tx2);
            assert_eq!(rx2.await, Err(RecvError));
            assert_eq!(pool.cached(), 1);
        });
    }

    #[test]
    fn pool_is_bounded() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let pool = Pool::<u8>::new();
            let channels: Vec<_> = (0..(POOL_MAX + 50)).map(|_| pool.channel()).collect();
            drop(channels);
            assert_eq!(pool.cached(), POOL_MAX);
        });
    }
}
