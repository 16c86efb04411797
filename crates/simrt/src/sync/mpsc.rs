//! Unbounded multi-producer single-consumer channel.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Shared<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    sender_count: usize,
    receiver_alive: bool,
}

/// Error returned by [`Sender::send`] when the receiver has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mpsc receiver dropped; message could not be delivered")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Sending half of an unbounded channel (cloneable).
pub struct Sender<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(Shared {
        queue: VecDeque::new(),
        recv_waker: None,
        sender_count: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            shared: Rc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.borrow_mut().sender_count += 1;
        Sender {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut shared = self.shared.borrow_mut();
            shared.sender_count -= 1;
            if shared.sender_count == 0 {
                shared.recv_waker.take()
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue a message; wakes the receiver if it is waiting.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let waker = {
            let mut shared = self.shared.borrow_mut();
            if !shared.receiver_alive {
                return Err(SendError(value));
            }
            shared.queue.push_back(value);
            shared.recv_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.borrow_mut().receiver_alive = false;
    }
}

impl<T> Receiver<T> {
    /// Receive the next message; resolves to `None` once all senders are
    /// dropped and the queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<T> {
        self.shared.borrow_mut().queue.pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.borrow().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut shared = self.receiver.shared.borrow_mut();
        if let Some(v) = shared.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if shared.sender_count == 0 {
            return Poll::Ready(None);
        }
        shared.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, spawn, Runtime};
    use std::time::Duration;

    #[test]
    fn messages_arrive_in_order() {
        let mut rt = Runtime::new();
        let got = rt.block_on(async {
            let (tx, mut rx) = unbounded();
            spawn(async move {
                for i in 0..5 {
                    sleep(Duration::from_millis(1)).await;
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_returns_none_when_all_senders_dropped() {
        let mut rt = Runtime::new();
        let got = rt.block_on(async {
            let (tx, mut rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(7).unwrap();
            drop(tx2);
            (rx.recv().await, rx.recv().await)
        });
        assert_eq!(got, (Some(7), None));
    }

    #[test]
    fn send_after_receiver_dropped_errors() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
        });
    }

    #[test]
    fn try_recv_and_len() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = unbounded();
            assert!(rx.is_empty());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.try_recv(), Some(1));
            assert_eq!(rx.try_recv(), Some(2));
            assert_eq!(rx.try_recv(), None);
        });
    }
}
