//! # geotp-simrt — deterministic simulated async runtime
//!
//! A single-threaded, discrete-event async runtime with a **virtual clock**.
//! It is the substrate on which the whole GeoTP reproduction runs: WAN round
//! trips, LAN hops, lock waits and execution costs are all expressed as
//! virtual-time sleeps, so a 320-virtual-second experiment finishes in a small
//! fraction of that wall-clock time and every run is exactly reproducible:
//! one thread, same seed ⇒ same bytes.
//!
//! The runtime intentionally mirrors a small subset of the tokio API surface
//! (`spawn`, `sleep`, `timeout`, `oneshot`, `mpsc`, `Notify`, `Semaphore`) so
//! that the higher layers read like ordinary async Rust service code, and
//! keeps only what the workspace calls: `Notify` is broadcast-only, a
//! `Semaphore` cannot be closed, and [`try_now`] reads the clock where no
//! runtime may be active.
//!
//! ## Semantics
//!
//! * Tasks are polled from a FIFO ready queue; a task that returns `Pending`
//!   is only re-polled after one of its wakers fires.
//! * When no task is runnable, the clock jumps to the earliest pending timer
//!   deadline (classic discrete-event semantics). If there is no pending timer
//!   either and the root future has not completed, the runtime panics with a
//!   "simulation deadlock" diagnostic — in a correct system something must
//!   always either be runnable or waiting on time.
//! * All APIs are `!Send`-friendly: futures may freely hold `Rc`/`RefCell`.
//!
//! ## Example
//!
//! ```
//! use std::time::Duration;
//!
//! let mut rt = geotp_simrt::Runtime::new();
//! let total = rt.block_on(async {
//!     let handle = geotp_simrt::spawn(async {
//!         geotp_simrt::sleep(Duration::from_millis(50)).await;
//!         21u64
//!     });
//!     geotp_simrt::sleep(Duration::from_millis(10)).await;
//!     handle.await + 21
//! });
//! assert_eq!(total, 42);
//! // Virtual time advanced by exactly 50ms even though the test ran instantly.
//! ```

mod builder;
mod executor;
mod future_util;
pub mod hash;
pub mod sync;
mod task;
mod time;
mod timer_heap;

pub use builder::RuntimeBuilder;
pub use executor::{spawn, RunMetrics, Runtime};
pub use future_util::{join_all, timeout, yield_now, Elapsed, Timeout};
pub use task::JoinHandle;
pub use time::{now, sleep, sleep_until, try_now, SimInstant, Sleep};
