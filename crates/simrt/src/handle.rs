//! [`RuntimeHandle`] — the in-task view of the running runtime's clock,
//! obtained via [`handle`] / [`try_handle`] from inside any task.

use std::rc::Rc;

use crate::executor::{try_with_current, with_current, RuntimeInner};
use crate::time::SimInstant;

/// A handle to the runtime the calling task runs on. `!Send` — it is a view
/// of this thread's runtime.
#[derive(Clone)]
pub struct RuntimeHandle {
    inner: Rc<RuntimeInner>,
}

/// The current runtime's handle.
///
/// # Panics
///
/// Panics if no runtime is active on this thread (use [`try_handle`] for a
/// fallible variant).
pub fn handle() -> RuntimeHandle {
    with_current(|inner| RuntimeHandle {
        inner: Rc::clone(inner),
    })
}

/// The current runtime's handle, or `None` when no runtime is active on
/// this thread (e.g. in plain unit tests or during teardown).
pub fn try_handle() -> Option<RuntimeHandle> {
    try_with_current(|inner| RuntimeHandle {
        inner: Rc::clone(inner),
    })
}

impl RuntimeHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.inner.now_micros())
    }

    /// Current virtual time, in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.inner.now_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_reports_the_clock() {
        let mut rt = crate::Runtime::new();
        rt.block_on(async {
            let h = handle();
            assert_eq!(h.now_micros(), 0);
            crate::sleep(std::time::Duration::from_millis(3)).await;
            assert_eq!(h.now(), SimInstant::from_micros(3_000));
            assert_eq!(handle().now_micros(), 3_000);
        });
    }

    #[test]
    fn try_handle_is_none_outside_a_runtime() {
        assert!(try_handle().is_none());
    }
}
