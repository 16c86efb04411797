//! [`RuntimeHandle`] — the in-task view of the running runtime.
//!
//! Folds the previously scattered accessors (`try_now`, ad-hoc seed
//! plumbing, topology lookups) into one cheap, clonable handle obtained via
//! [`handle`] / [`try_handle`] from inside any task.

use std::rc::Rc;
use std::sync::Arc;

use crate::executor::{try_with_current_ctx, with_current_ctx, RuntimeInner};
use crate::time::SimInstant;
use crate::topology::{RunMeta, Topology};

/// A handle to the runtime the calling task runs on: virtual clock, run
/// seed, derived RNG streams, worker/shard placement and the declared
/// topology. `!Send` — it is a view of the current shard.
#[derive(Clone)]
pub struct RuntimeHandle {
    inner: Rc<RuntimeInner>,
    meta: Arc<RunMeta>,
    shard: u32,
}

/// The current runtime's handle.
///
/// # Panics
///
/// Panics if no runtime is active on this thread (use [`try_handle`] for a
/// fallible variant).
pub fn handle() -> RuntimeHandle {
    with_current_ctx(|ctx| RuntimeHandle {
        inner: Rc::clone(&ctx.inner),
        meta: Arc::clone(&ctx.meta),
        shard: ctx.shard.as_ref().map(|s| s.shard).unwrap_or(0),
    })
}

/// The current runtime's handle, or `None` when no runtime is active on
/// this thread (e.g. in plain unit tests or during teardown).
pub fn try_handle() -> Option<RuntimeHandle> {
    try_with_current_ctx(|ctx| RuntimeHandle {
        inner: Rc::clone(&ctx.inner),
        meta: Arc::clone(&ctx.meta),
        shard: ctx.shard.as_ref().map(|s| s.shard).unwrap_or(0),
    })
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RuntimeHandle {
    /// Current virtual time of this shard.
    pub fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.inner.now_micros())
    }

    /// Current virtual time of this shard, in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.inner.now_micros()
    }

    /// The run's root seed, as set by [`crate::RuntimeBuilder::seed`].
    pub fn seed(&self) -> u64 {
        self.meta.seed
    }

    /// A deterministic per-component RNG seed derived from the root seed
    /// and a stable tag (e.g. `"net"`, `"client:17"`). Independent of
    /// worker count and of call order, so components can seed their own
    /// streams without threading seeds through every constructor.
    pub fn stream_seed(&self, tag: &str) -> u64 {
        let mut h = crate::hash::FxHasher::default();
        std::hash::Hasher::write(&mut h, tag.as_bytes());
        splitmix64(self.meta.seed ^ std::hash::Hasher::finish(&h))
    }

    /// Number of worker shards in this run.
    pub fn workers(&self) -> usize {
        self.meta.workers
    }

    /// The shard the calling task runs on (always 0 with one worker).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The declared topology (empty for runtimes built via
    /// [`crate::Runtime::new`]).
    pub fn topology(&self) -> &Topology {
        &self.meta.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_reports_clock_seed_and_placement() {
        let mut rt = crate::RuntimeBuilder::new().seed(99).build();
        rt.block_on(async {
            let h = handle();
            assert_eq!(h.now_micros(), 0);
            assert_eq!(h.seed(), 99);
            assert_eq!(h.workers(), 1);
            assert_eq!(h.shard(), 0);
            crate::sleep(std::time::Duration::from_millis(3)).await;
            assert_eq!(handle().now_micros(), 3_000);
        });
    }

    #[test]
    fn try_handle_is_none_outside_a_runtime() {
        assert!(try_handle().is_none());
    }

    #[test]
    fn stream_seeds_differ_by_tag_and_depend_on_root_seed() {
        let mut rt = crate::RuntimeBuilder::new().seed(7).build();
        let (a, b, a2) = rt.block_on(async {
            let h = handle();
            (
                h.stream_seed("net"),
                h.stream_seed("client:0"),
                h.stream_seed("net"),
            )
        });
        assert_ne!(a, b);
        assert_eq!(a, a2);
        let mut rt2 = crate::RuntimeBuilder::new().seed(8).build();
        let a_other = rt2.block_on(async { handle().stream_seed("net") });
        assert_ne!(a, a_other);
    }
}
