//! Asynchronous coordination primitives for the simulated runtime.
//!
//! These mirror the tokio primitives the middleware would use in a real
//! deployment: one-shot channels for request/response RPC, unbounded mpsc
//! channels for server mailboxes, [`Notify`] for broadcast wake-ups (the
//! notify hub's vote arrivals, the WAL's group flush) and [`Semaphore`] for
//! connection-pool style admission (FIFO, never closed).

pub mod mpsc;
pub mod notify;
pub mod oneshot;
pub mod semaphore;

pub use notify::Notify;
pub use semaphore::{Semaphore, SemaphorePermit};
