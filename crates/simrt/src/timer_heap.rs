//! The executor's pending-timer store: one binary min-heap keyed
//! `(deadline, seq)`.
//!
//! Timers fire in key order, and that order is the heap's pop order — there
//! is nothing to re-establish after the fact. `seq` is the registration
//! sequence number, so timers due at the same instant fire in the order they
//! were registered, and [`TimerHeap::next_deadline`] is the *exact* minimum
//! pending deadline (a `peek`), which is what keeps the executor's
//! one-clock-jump-per-advance accounting (`clock_advances`) exact.
//!
//! Nothing is ever cancelled: a timer whose future was dropped (a granted
//! lock wait's 5 s timeout, a vote wait's 30 s one) stays until its deadline
//! and fires a stale waker, which task generations absorb. Such a timer
//! costs O(log n) on its way in and out and nothing in between; the
//! benchmark's five workloads peak at 300 to 9 100 pending timers
//! ([`crate::RunMetrics::timers_pending_peak`]), a heap at most 14 deep.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::task::Waker;

/// One registered timer.
pub(crate) struct TimerEntry {
    deadline: u64,
    seq: u64,
    pub(crate) waker: Waker,
}

impl TimerEntry {
    fn key(&self) -> (u64, u64) {
        (self.deadline, self.seq)
    }
}

impl Ord for TimerEntry {
    /// Reversed: `BinaryHeap` is a max-heap and the smallest key fires first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for TimerEntry {}

/// The heap. Single-threaded; owned by the executor's `RuntimeInner`.
pub(crate) struct TimerHeap {
    heap: BinaryHeap<TimerEntry>,
    next_seq: u64,
}

impl TimerHeap {
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending timers.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Register a timer.
    pub(crate) fn push(&mut self, deadline: u64, waker: Waker) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(TimerEntry {
            deadline,
            seq,
            waker,
        });
    }

    /// Exact minimum pending deadline, or `None` when no timer is pending.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.deadline)
    }

    /// Append every entry with `deadline <= now` to `out` in
    /// `(deadline, seq)` order.
    pub(crate) fn expire(&mut self, now: u64, out: &mut Vec<TimerEntry>) {
        while self.heap.peek().is_some_and(|e| e.deadline <= now) {
            out.extend(self.heap.pop());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::task::Wake;

    /// Waker that appends its timer's sequence number to a shared log, so a
    /// test sees which registration each fired entry carries.
    struct LogWaker {
        seq: u64,
        log: Arc<Mutex<Vec<u64>>>,
    }

    impl Wake for LogWaker {
        fn wake(self: Arc<Self>) {
            self.log.lock().unwrap().push(self.seq);
        }
    }

    /// A heap plus the log its wakers write to; `push` hands every timer a
    /// waker carrying the sequence number the heap is about to assign.
    struct Harness {
        heap: TimerHeap,
        log: Arc<Mutex<Vec<u64>>>,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                heap: TimerHeap::new(),
                log: Arc::default(),
            }
        }

        fn push(&mut self, deadline: u64) -> (u64, u64) {
            let seq = self.heap.next_seq;
            let waker = Waker::from(Arc::new(LogWaker {
                seq,
                log: Arc::clone(&self.log),
            }));
            self.heap.push(deadline, waker);
            (deadline, seq)
        }

        /// Expire to `now`, wake what fired, and return the fired keys after
        /// checking each entry woke the waker it was registered with.
        fn fire_upto(&mut self, now: u64) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            self.heap.expire(now, &mut out);
            let keys: Vec<_> = out.iter().map(TimerEntry::key).collect();
            for entry in out {
                entry.waker.wake();
            }
            let woken = std::mem::take(&mut *self.log.lock().unwrap());
            assert_eq!(woken, keys.iter().map(|k| k.1).collect::<Vec<_>>());
            keys
        }
    }

    #[test]
    fn fires_in_deadline_then_seq_order() {
        let mut h = Harness::new();
        h.push(20);
        h.push(10);
        h.push(10);
        assert_eq!(h.heap.next_deadline(), Some(10));
        assert_eq!(h.fire_upto(10), vec![(10, 1), (10, 2)]);
        assert_eq!(h.heap.next_deadline(), Some(20));
        assert_eq!(h.fire_upto(20), vec![(20, 0)]);
        assert_eq!(h.heap.next_deadline(), None);
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Differential test: the heap must agree with a sorted `Vec` on a long
    /// seeded schedule of interleaved `push` / `next_deadline` / `expire`.
    /// The inputs keep the edges of the seven-level, 64-slot hierarchical
    /// wheel this heap replaced — horizons of 64^k ± 1 µs for k = 1..7 and
    /// beyond 64^7, equal deadlines registered apart, and expiry to an instant
    /// strictly between two deadlines — because a store that treats any of
    /// them specially is exactly what must never come back unnoticed.
    #[test]
    fn matches_sorted_vec_model_on_seeded_schedule() {
        const HORIZON: u64 = 1 << (6 * 7); // 64^7 µs ≈ 51 simulated days
        let edges: Vec<u64> = (1..=7u32)
            .flat_map(|k| {
                let b = 1u64 << (6 * k);
                [b - 1, b, b + 1]
            })
            .collect();

        let mut draws = 0xfeed_f00d_u64;
        let mut rng = || {
            draws += 1;
            splitmix64(draws)
        };
        let mut h = Harness::new();
        // Reference: every pending `(deadline, seq)`, kept sorted.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        let mut expired_between = 0;
        for round in 0..3_000 {
            for _ in 0..(rng() % 4) {
                let horizon = match rng() % 10 {
                    0..=3 => rng() % 1_000,
                    4..=5 => rng() % 5_000_000,
                    6..=7 => edges[(rng() % edges.len() as u64) as usize],
                    8 => rng() % (HORIZON / 2),
                    _ => HORIZON + rng() % HORIZON,
                };
                model.push(h.push(now + horizon));
                if rng().is_multiple_of(4) {
                    // The same instant, registered later.
                    model.push(h.push(now + horizon));
                }
            }
            model.sort_unstable();
            assert_eq!(h.heap.len(), model.len(), "round {round} len");
            let next = model.first().map(|k| k.0);
            assert_eq!(h.heap.next_deadline(), next, "round {round} next");
            let Some(next) = next else { continue };
            now = match round % 3 {
                0 => continue,
                1 => next,
                _ => {
                    // Halfway to the following distinct deadline.
                    let after = model.iter().map(|k| k.0).find(|&d| d > next);
                    let to = after.map_or(next, |d| next + (d - next) / 2);
                    expired_between += usize::from(to > next);
                    to
                }
            };
            let due = model.partition_point(|k| k.0 <= now);
            let expect: Vec<_> = model.drain(..due).collect();
            assert_eq!(h.fire_upto(now), expect, "round {round} fire order");
        }
        assert!(expired_between > 100, "{expired_between}");
    }
}
