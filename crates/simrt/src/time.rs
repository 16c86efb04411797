//! Virtual time: instants and the `sleep` primitive.

use std::future::Future;
use std::ops::{Add, AddAssign, Sub};
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::{current_now, current_register_timer, try_with_current};

/// A point in virtual time, measured in microseconds since the runtime started.
///
/// Mirrors `std::time::Instant` but is driven entirely by the simulated clock,
/// so arithmetic on it is exact and reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant {
    micros: u64,
}

impl SimInstant {
    /// The runtime's epoch (virtual time zero).
    pub const ZERO: SimInstant = SimInstant { micros: 0 };

    /// Construct from a raw microsecond count.
    pub const fn from_micros(micros: u64) -> Self {
        Self { micros }
    }

    /// Raw microsecond count since the runtime epoch.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Duration elapsed from `earlier` to `self`; zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimInstant) -> Duration {
        Duration::from_micros(self.micros.saturating_sub(earlier.micros))
    }

    /// Duration from this instant until the current virtual time.
    ///
    /// # Panics
    /// Panics if called outside a running [`crate::Runtime`].
    pub fn elapsed(self) -> Duration {
        now().duration_since(self)
    }

    /// Checked addition of a duration.
    fn checked_add(self, dur: Duration) -> Option<SimInstant> {
        let extra: u64 = dur.as_micros().try_into().ok()?;
        self.micros.checked_add(extra).map(SimInstant::from_micros)
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, dur: Duration) -> SimInstant {
        let extra = dur.as_micros().min(u64::MAX as u128) as u64;
        SimInstant::from_micros(self.micros.saturating_sub(extra))
    }
}

impl Add<Duration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: Duration) -> SimInstant {
        self.checked_add(rhs)
            .expect("SimInstant overflow when adding Duration")
    }
}

impl AddAssign<Duration> for SimInstant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = Duration;
    fn sub(self, rhs: SimInstant) -> Duration {
        self.duration_since(rhs)
    }
}

impl Sub<Duration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: Duration) -> SimInstant {
        self.saturating_sub(rhs)
    }
}

/// Current virtual time of the active runtime.
///
/// # Panics
/// Panics if called outside [`crate::Runtime::block_on`].
pub fn now() -> SimInstant {
    current_now()
}

/// Current virtual time, or `None` when no runtime is active on this thread
/// (in plain unit tests, or after [`crate::Runtime::block_on`] returned).
pub fn try_now() -> Option<SimInstant> {
    try_with_current(|inner| SimInstant::from_micros(inner.now_micros()))
}

/// Future returned by [`sleep`] / [`sleep_until`].
///
/// Dropping a pending `Sleep` cancels nothing: its timer stays in the
/// executor's heap until the deadline, then wakes the registering task once
/// more (a spurious poll if the task lives on, ignored if it finished).
#[derive(Debug)]
pub struct Sleep {
    deadline: Option<SimInstant>,
    requested: Duration,
    /// Whether a timer has already been registered for this sleep. A sleep
    /// registers exactly one timer: combinators such as `join_all` re-poll
    /// pending children on every wake-up, and re-registering on each poll
    /// would let stale duplicate timers feed further spurious wake-ups — a
    /// quadratic poll storm over long simulations. Futures never migrate
    /// between tasks in this runtime, so the first registered waker stays
    /// valid.
    registered: bool,
}

impl Sleep {
    /// The absolute deadline, once the sleep has been polled at least once.
    pub fn deadline(&self) -> Option<SimInstant> {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let deadline = match self.deadline {
            Some(d) => d,
            None => {
                let d = now() + self.requested;
                self.deadline = Some(d);
                d
            }
        };
        if now() >= deadline {
            Poll::Ready(())
        } else {
            if !self.registered {
                current_register_timer(deadline, cx.waker().clone());
                self.registered = true;
            }
            Poll::Pending
        }
    }
}

/// Sleep for `dur` of virtual time. The deadline is captured lazily at the
/// first poll, matching tokio's behaviour.
pub fn sleep(dur: Duration) -> Sleep {
    Sleep {
        deadline: None,
        requested: dur,
        registered: false,
    }
}

/// Sleep until the given virtual instant (resolves immediately if already past).
pub fn sleep_until(deadline: SimInstant) -> Sleep {
    Sleep {
        deadline: Some(deadline),
        requested: Duration::ZERO,
        registered: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn instant_arithmetic() {
        let a = SimInstant::from_micros(1_000);
        let b = a + Duration::from_millis(5);
        assert_eq!(b.as_micros(), 6_000);
        assert_eq!(b - a, Duration::from_millis(5));
        assert_eq!(a - b, Duration::ZERO); // saturating
        assert_eq!(b - Duration::from_millis(10), SimInstant::ZERO);
    }

    #[test]
    fn sleep_until_past_is_immediate() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            sleep(Duration::from_millis(10)).await;
            let before = now();
            sleep_until(SimInstant::from_micros(1)).await;
            assert_eq!(now(), before);
        });
    }

    #[test]
    fn zero_sleep_completes_without_advancing() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            sleep(Duration::ZERO).await;
        });
        assert_eq!(rt.now_micros(), 0);
    }

    #[test]
    fn elapsed_tracks_virtual_time() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let start = now();
            sleep(Duration::from_micros(1234)).await;
            assert_eq!(start.elapsed(), Duration::from_micros(1234));
        });
    }

    #[test]
    fn try_now_reads_the_clock_only_inside_a_runtime() {
        assert_eq!(try_now(), None);
        let mut rt = Runtime::new();
        rt.block_on(async {
            sleep(Duration::from_millis(3)).await;
            assert_eq!(try_now(), Some(SimInstant::from_micros(3_000)));
        });
        assert_eq!(try_now(), None);
    }
}
