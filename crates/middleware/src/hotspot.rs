//! Hotspot footprint: per-record statistics powering the high-contention
//! optimizations (paper §IV-C).
//!
//! For each hot record `r` the footprint maintains the four fields the paper
//! defines:
//!
//! * `w_lat(r)`  — weighted average latency of subtransactions completing
//!   operations on `r` (updated with Eq. 4),
//! * `t_cnt(r)`  — total number of transactions that have accessed `r`,
//! * `c_cnt(r)`  — number of committed transactions that accessed `r`,
//! * `a_cnt(r)`  — number of transactions currently accessing `r`.
//!
//! # Layout, and the departure from the paper
//!
//! §IV-C keeps the footprint in an AVL tree, for point *and range* lookups.
//! Every statement this reproduction routes is point-keyed and no caller
//! ranges over the footprint, so the tree bought nothing, while its ≥ 6
//! descents per key per transaction measured 16–33 % of the simulator's host
//! time (`BENCH_hotpath.json`, `pr14_hotspot_o1`). Records therefore live in
//! a dense slab found through one hash index, and recency is a doubly-linked
//! list threaded through the slab (head = coldest): every operation is O(1)
//! expected and memory is O(capacity) however many touches are made. The
//! index is never iterated, so hash order cannot leak into a run.
//!
//! # Eviction contract
//!
//! An evicted record re-enters with `w_lat = 0`, which feeds Eq. 5/8/9, so
//! which record is evicted when is part of the simulated behaviour:
//!
//! * a touch ([`HotspotFootprint::on_access_start`] and
//!   [`HotspotFootprint::on_subtxn_feedback`]; *not*
//!   [`HotspotFootprint::on_txn_finish`]) moves the record to the tail of the
//!   list, linking it if it was unlinked;
//! * only an insert that pushes `len` over `capacity` evicts;
//! * the evict loop unlinks the head and removes it iff `a_cnt == 0`,
//!   otherwise leaves it tracked but unlinked until its next touch, and stops
//!   once `len <= capacity` or the list is empty.
//!
//! Consequently a record popped while in use is never evictable again unless
//! it is re-touched, even after its transactions finish
//! ([`HotspotFootprint::unlinked_in_use`] counts them).

use std::collections::hash_map::Entry;
use std::time::Duration;

use geotp_simrt::hash::FxHashMap;

use crate::ops::GlobalKey;

/// Statistics for one hot record.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HotRecordStats {
    /// Weighted average completion latency attributed to this record (seconds).
    pub w_lat: f64,
    /// Total transactions that accessed the record.
    pub t_cnt: u64,
    /// Committed transactions that accessed the record.
    pub c_cnt: u64,
    /// Transactions currently accessing the record.
    pub a_cnt: u64,
}

impl HotRecordStats {
    /// The success ratio `c_cnt / t_cnt`, defaulting to 1 when unknown.
    fn success_ratio(&self) -> f64 {
        if self.t_cnt == 0 {
            1.0
        } else {
            self.c_cnt as f64 / self.t_cnt as f64
        }
    }
}

/// Records tracked before LRU eviction kicks in, unless a caller of
/// [`HotspotFootprint::new`] asks for another bound.
pub const DEFAULT_CAPACITY: usize = 10_000;

/// EWMA coefficient `α` of Eq. 4 (weight of the previous estimate).
const FEEDBACK_ALPHA: f64 = 0.7;

/// "No slot": list terminator and the scratch marker for an absent key.
const NIL: u32 = u32::MAX;

/// One slab entry: a record plus its links in the recency list.
struct Slot {
    key: GlobalKey,
    stats: HotRecordStats,
    prev: u32,
    next: u32,
    /// Whether the slot is on the recency list (see the eviction contract).
    linked: bool,
}

/// The hotspot footprint table.
pub struct HotspotFootprint {
    /// Maximum number of records tracked before LRU eviction kicks in.
    capacity: usize,
    /// Dense record storage; vacated slots are recycled through `free`.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Key → slot. Point lookups only — never iterated (determinism).
    index: FxHashMap<GlobalKey, u32>,
    /// Coldest linked slot, the next eviction candidate.
    head: u32,
    /// Most recently touched slot.
    tail: u32,
    /// Tracked slots that are off the recency list.
    unlinked: usize,
    evictions: u64,
    /// Reusable `(slot, w_lat)` buffer for
    /// [`HotspotFootprint::on_subtxn_feedback`].
    feedback_scratch: Vec<(u32, f64)>,
}

impl HotspotFootprint {
    /// Create a footprint that tracks at most `capacity` records (see the
    /// eviction contract).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            unlinked: 0,
            evictions: 0,
            feedback_scratch: Vec::new(),
        }
    }

    /// Number of records currently tracked.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no records are tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of LRU evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of tracked records that are off the recency list: popped by an
    /// eviction scan while in use and not touched since. They cannot be
    /// evicted until a touch relinks them.
    pub fn unlinked_in_use(&self) -> usize {
        self.unlinked
    }

    fn get(&self, key: &GlobalKey) -> Option<&HotRecordStats> {
        self.index
            .get(key)
            .map(|&idx| &self.slots[idx as usize].stats)
    }

    /// Snapshot of a record's statistics.
    pub fn stats(&self, key: GlobalKey) -> Option<HotRecordStats> {
        self.get(&key).copied()
    }

    fn unlink(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        let (prev, next) = (slot.prev, slot.next);
        slot.linked = false;
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, idx: u32) {
        let prev = self.tail;
        let slot = &mut self.slots[idx as usize];
        (slot.prev, slot.next, slot.linked) = (prev, NIL, true);
        match prev {
            NIL => self.head = idx,
            p => self.slots[p as usize].next = idx,
        }
        self.tail = idx;
    }

    /// Touch an existing record: move it to the tail of the recency list and
    /// apply `f` to its stats.
    fn touch_slot(&mut self, idx: u32, f: impl FnOnce(&mut HotRecordStats)) {
        if self.tail != idx {
            if self.slots[idx as usize].linked {
                self.unlink(idx);
            } else {
                self.unlinked -= 1;
            }
            self.push_tail(idx);
        }
        f(&mut self.slots[idx as usize].stats);
    }

    /// Touch `key`'s record, creating it first if needed — one index probe
    /// per call. `f` runs before any eviction the insert triggers, so it
    /// decides whether the new record itself is evictable.
    fn touch_with(&mut self, key: GlobalKey, f: impl FnOnce(&mut HotRecordStats)) {
        let idx = match self.index.entry(key) {
            Entry::Occupied(entry) => {
                let idx = *entry.get();
                return self.touch_slot(idx, f);
            }
            Entry::Vacant(entry) => {
                let slot = Slot {
                    key,
                    stats: HotRecordStats::default(),
                    prev: NIL,
                    next: NIL,
                    linked: false,
                };
                let idx = match self.free.pop() {
                    Some(idx) => {
                        self.slots[idx as usize] = slot;
                        idx
                    }
                    None => {
                        let idx = self.slots.len();
                        assert!(idx < NIL as usize, "slot index would collide with NIL");
                        self.slots.push(slot);
                        idx as u32
                    }
                };
                *entry.insert(idx)
            }
        };
        self.push_tail(idx);
        f(&mut self.slots[idx as usize].stats);
        self.evict_over_capacity();
    }

    fn evict_over_capacity(&mut self) {
        while self.index.len() > self.capacity && self.head != NIL {
            let idx = self.head;
            self.unlink(idx);
            let slot = &self.slots[idx as usize];
            if slot.stats.a_cnt == 0 {
                self.index.remove(&slot.key);
                self.free.push(idx);
                self.evictions += 1;
            } else {
                self.unlinked += 1;
            }
        }
    }

    /// Register that a transaction is about to access `keys`
    /// (increments `t_cnt` and `a_cnt`).
    pub fn on_access_start(&mut self, keys: &[GlobalKey]) {
        for key in keys {
            self.touch_with(*key, |entry| {
                entry.t_cnt += 1;
                entry.a_cnt += 1;
            });
        }
    }

    /// Feedback after one subtransaction completes: distribute its measured
    /// local execution latency across the records it accessed using the
    /// weighted-average update of Eq. 4.
    pub fn on_subtxn_feedback(&mut self, keys: &[GlobalKey], local_execution_latency: Duration) {
        if keys.is_empty() {
            return;
        }
        let lel = local_execution_latency.as_secs_f64();
        // Weight w_r = w_lat(r) / Σ w_lat(r_k); fall back to an even split when
        // no history exists yet. Each key is resolved to its slot once, for
        // the sum, and the update below reuses that slot.
        let mut resolved = std::mem::take(&mut self.feedback_scratch);
        resolved.clear();
        resolved.extend(keys.iter().map(|key| match self.index.get(key) {
            Some(&idx) => (idx, self.slots[idx as usize].stats.w_lat),
            None => (NIL, 0.0),
        }));
        let sum: f64 = resolved.iter().map(|(_, w_lat)| w_lat).sum();
        let evictions_before = self.evictions;
        for (key, &(idx, w_lat)) in keys.iter().zip(&resolved) {
            let weight = if sum > 0.0 {
                w_lat / sum
            } else {
                1.0 / keys.len() as f64
            };
            let observed = lel * weight;
            let update = |entry: &mut HotRecordStats| {
                if entry.w_lat == 0.0 {
                    entry.w_lat = observed;
                } else {
                    entry.w_lat = FEEDBACK_ALPHA * entry.w_lat + (1.0 - FEEDBACK_ALPHA) * observed;
                }
            };
            // A resolved slot stays this key's until an insert for an
            // earlier (absent) key of this call evicts; then probe again.
            if idx != NIL && self.evictions == evictions_before {
                self.touch_slot(idx, update);
            } else {
                self.touch_with(*key, update);
            }
        }
        self.feedback_scratch = resolved;
    }

    /// A transaction finished (committed or aborted): decrement `a_cnt` and,
    /// on commit, increment `c_cnt` for every record it accessed.
    pub fn on_txn_finish(&mut self, keys: &[GlobalKey], committed: bool) {
        for key in keys {
            if let Some(&idx) = self.index.get(key) {
                let entry = &mut self.slots[idx as usize].stats;
                entry.a_cnt = entry.a_cnt.saturating_sub(1);
                if committed {
                    entry.c_cnt += 1;
                }
            }
        }
    }

    /// Eq. 5: forecast the local execution latency of a subtransaction that
    /// will access `keys` by summing the per-record weighted latencies.
    pub fn forecast_local_latency(&self, keys: &[GlobalKey]) -> Duration {
        let total: f64 = keys
            .iter()
            .map(|k| self.get(k).map(|s| s.w_lat).unwrap_or(0.0))
            .sum();
        Duration::from_secs_f64(total.max(0.0))
    }

    /// Eq. 9: predicted probability that a transaction accessing `keys` will
    /// successfully acquire all its locks (1 − the paper's abort rate).
    pub fn success_probability(&self, keys: &[GlobalKey]) -> f64 {
        let mut p = 1.0;
        for key in keys {
            if let Some(stats) = self.get(key) {
                let queue = stats.a_cnt.saturating_sub(1);
                if queue > 0 {
                    p *= stats.success_ratio().powi(queue as i32);
                }
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use geotp_storage::TableId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn gk(row: u64) -> GlobalKey {
        GlobalKey::new(TableId(0), row)
    }

    #[test]
    fn access_lifecycle_updates_counters() {
        let mut fp = HotspotFootprint::new(DEFAULT_CAPACITY);
        fp.on_access_start(&[gk(1), gk(2)]);
        fp.on_access_start(&[gk(1)]);
        let s1 = fp.stats(gk(1)).unwrap();
        assert_eq!((s1.t_cnt, s1.a_cnt, s1.c_cnt), (2, 2, 0));
        fp.on_txn_finish(&[gk(1)], true);
        fp.on_txn_finish(&[gk(1), gk(2)], false);
        let s1 = fp.stats(gk(1)).unwrap();
        assert_eq!((s1.t_cnt, s1.a_cnt, s1.c_cnt), (2, 0, 1));
        let s2 = fp.stats(gk(2)).unwrap();
        assert_eq!((s2.t_cnt, s2.a_cnt, s2.c_cnt), (1, 0, 0));
    }

    #[test]
    fn feedback_builds_latency_forecast() {
        let mut fp = HotspotFootprint::new(DEFAULT_CAPACITY);
        let keys = [gk(1), gk(2)];
        // First observation splits evenly: 5ms each.
        fp.on_subtxn_feedback(&keys, Duration::from_millis(10));
        let forecast = fp.forecast_local_latency(&keys);
        assert_eq!(forecast, Duration::from_millis(10));
        // Repeated identical observations keep the forecast stable.
        for _ in 0..10 {
            fp.on_subtxn_feedback(&keys, Duration::from_millis(10));
        }
        let forecast = fp.forecast_local_latency(&keys);
        assert!((forecast.as_secs_f64() - 0.010).abs() < 1e-6);
        // A key with no history contributes nothing.
        assert_eq!(fp.forecast_local_latency(&[gk(99)]), Duration::ZERO);
    }

    #[test]
    fn success_probability_follows_eq9() {
        let mut fp = HotspotFootprint::new(DEFAULT_CAPACITY);
        // Build history: 10 accesses, 5 commits on record 1.
        for _ in 0..10 {
            fp.on_access_start(&[gk(1)]);
        }
        for i in 0..10 {
            fp.on_txn_finish(&[gk(1)], i < 5);
        }
        // No one is currently accessing the record: abort probability is 0.
        assert!((fp.success_probability(&[gk(1)]) - 1.0).abs() < 1e-9);

        // Three concurrent accessors: queue length for a newcomer is a_cnt-1=2.
        fp.on_access_start(&[gk(1)]);
        fp.on_access_start(&[gk(1)]);
        fp.on_access_start(&[gk(1)]);
        let stats = fp.stats(gk(1)).unwrap();
        assert_eq!(stats.a_cnt, 3);
        // success ratio is now 5/13 (t_cnt grew to 13).
        let expected_success = (5.0f64 / 13.0).powi(2);
        assert!((fp.success_probability(&[gk(1)]) - expected_success).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_bounds_memory() {
        let mut fp = HotspotFootprint::new(100);
        for i in 0..1000 {
            fp.on_access_start(&[gk(i)]);
            fp.on_txn_finish(&[gk(i)], true);
        }
        assert!(fp.len() <= 100, "len {} exceeds capacity", fp.len());
        assert!(fp.evictions() >= 900);
        // The most recently touched record is still present.
        assert!(fp.stats(gk(999)).is_some());
    }

    #[test]
    fn records_in_use_are_not_evicted() {
        let mut fp = HotspotFootprint::new(10);
        fp.on_access_start(&[gk(0)]); // stays in use
        for i in 1..500 {
            fp.on_access_start(&[gk(i)]);
            fp.on_txn_finish(&[gk(i)], true);
        }
        assert!(
            fp.stats(gk(0)).is_some(),
            "in-use record must survive eviction"
        );
    }

    #[test]
    fn memory_stays_bounded_when_the_working_set_fits() {
        // The parent's lazy LRU queue grew by one entry per touch for as long
        // as the working set fit under capacity. Nothing here may.
        let mut fp = HotspotFootprint::new(DEFAULT_CAPACITY);
        let keys: Vec<GlobalKey> = (0..64).map(gk).collect();
        for round in 0..1_000_000 / 128 {
            let txn = &keys[round % 61..][..4];
            for _ in 0..16 {
                fp.on_access_start(txn);
                fp.on_subtxn_feedback(txn, Duration::from_micros(300));
                fp.on_txn_finish(txn, round % 3 != 0);
            }
        }
        assert_eq!(fp.len(), 64);
        assert!(fp.slots.len() <= 64, "slab grew to {}", fp.slots.len());
        assert!(fp.index.capacity() <= 128 && fp.free.capacity() == 0);
        assert!(fp.feedback_scratch.capacity() <= 4);
        assert_eq!((fp.evictions(), fp.unlinked_in_use()), (0, 0));
    }

    /// The parent commit's algorithm, kept as the reference the slab is
    /// checked against: an ordered map, a touch clock, and a lazy queue that
    /// gets one `(key, touch)` entry per touch and skips the stale ones when
    /// an insert has to evict.
    struct ReferenceModel {
        capacity: usize,
        records: BTreeMap<GlobalKey, (HotRecordStats, u64)>,
        lru: VecDeque<(GlobalKey, u64)>,
        touches: u64,
        evictions: u64,
    }

    impl ReferenceModel {
        fn touch_with(&mut self, key: GlobalKey, f: impl FnOnce(&mut HotRecordStats)) {
            self.touches += 1;
            let before = self.records.len();
            let (stats, last_touch) = self.records.entry(key).or_default();
            *last_touch = self.touches;
            f(stats);
            self.lru.push_back((key, self.touches));
            if self.records.len() == before {
                return;
            }
            while self.records.len() > self.capacity {
                let Some((candidate, touch)) = self.lru.pop_front() else {
                    return;
                };
                let latest_and_idle =
                    |(stats, last): &(HotRecordStats, u64)| *last == touch && stats.a_cnt == 0;
                if self.records.get(&candidate).is_some_and(latest_and_idle) {
                    self.records.remove(&candidate);
                    self.evictions += 1;
                }
            }
        }

        fn w_lat(&self, key: &GlobalKey) -> f64 {
            self.records.get(key).map_or(0.0, |(stats, _)| stats.w_lat)
        }

        fn on_access_start(&mut self, keys: &[GlobalKey]) {
            for key in keys {
                self.touch_with(*key, |entry| {
                    entry.t_cnt += 1;
                    entry.a_cnt += 1;
                });
            }
        }

        fn on_subtxn_feedback(&mut self, keys: &[GlobalKey], latency: Duration) {
            let lats: Vec<f64> = keys.iter().map(|k| self.w_lat(k)).collect();
            let sum: f64 = lats.iter().sum();
            for (key, w_lat) in keys.iter().zip(&lats) {
                let weight = if sum > 0.0 {
                    w_lat / sum
                } else {
                    1.0 / keys.len() as f64
                };
                let observed = latency.as_secs_f64() * weight;
                self.touch_with(*key, |entry| {
                    if entry.w_lat == 0.0 {
                        entry.w_lat = observed;
                    } else {
                        entry.w_lat =
                            FEEDBACK_ALPHA * entry.w_lat + (1.0 - FEEDBACK_ALPHA) * observed;
                    }
                });
            }
        }

        fn on_txn_finish(&mut self, keys: &[GlobalKey], committed: bool) {
            for key in keys {
                if let Some((entry, _)) = self.records.get_mut(key) {
                    entry.a_cnt = entry.a_cnt.saturating_sub(1);
                    entry.c_cnt += u64::from(committed);
                }
            }
        }

        fn forecast_local_latency(&self, keys: &[GlobalKey]) -> Duration {
            let total: f64 = keys.iter().map(|k| self.w_lat(k)).sum();
            Duration::from_secs_f64(total.max(0.0))
        }

        fn success_probability(&self, keys: &[GlobalKey]) -> f64 {
            let mut p = 1.0;
            for (stats, _) in keys.iter().filter_map(|k| self.records.get(k)) {
                let queue = stats.a_cnt.saturating_sub(1);
                if queue > 0 {
                    p *= stats.success_ratio().powi(queue as i32);
                }
            }
            p
        }
    }

    /// Drive the slab and the reference model with one seeded schedule and
    /// compare them after every step. Returns how many records the slab ever
    /// held popped-while-in-use at once.
    fn run_differential(seed: u64, capacity: usize, universe: u64, steps: usize) -> usize {
        let mut fp = HotspotFootprint::new(capacity);
        let mut model = ReferenceModel {
            capacity,
            records: BTreeMap::new(),
            lru: VecDeque::new(),
            touches: 0,
            evictions: 0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        // Up to 5/8 of capacity is in use at once and transactions finish in
        // random order, so some stay open long enough for their records to
        // reach the head of the list and be popped in use, while `len`
        // still crosses capacity in both directions.
        let max_open = (capacity / 8).max(2);
        let mut open: Vec<Vec<GlobalKey>> = Vec::new();
        let mut max_unlinked = 0;
        // Comparing every tracked record is O(len): done after every step at
        // the smallest capacity and after every 64th beyond it, where a step
        // still compares the counters and the records it used. A wrongly
        // evicted record stays wrong, so the next sweep convicts it.
        let full_check_every = if capacity <= 8 { 1 } else { 64 };
        for step in 0..steps {
            let mut keys: Vec<GlobalKey> = (0..rng.gen_range(1..=5))
                .map(|_| gk(rng.gen_range(0..universe)))
                .collect();
            match rng.gen_range(0..10) {
                0..=3 if open.len() < max_open => {
                    fp.on_access_start(&keys);
                    model.on_access_start(&keys);
                    open.push(keys.clone());
                }
                4..=6 => {
                    // Feedback for a branch of an open transaction, or (one
                    // time in four) for keys nobody announced.
                    if !open.is_empty() && rng.gen_range(0..4) != 0 {
                        let txn = &open[rng.gen_range(0..open.len())];
                        keys = txn[..rng.gen_range(1..=txn.len())].to_vec();
                    }
                    let latency = Duration::from_micros(rng.gen_range(0..5_000));
                    fp.on_subtxn_feedback(&keys, latency);
                    model.on_subtxn_feedback(&keys, latency);
                }
                _ => {
                    // Finish a random open transaction; rarely, "finish" keys
                    // that were never started.
                    if !open.is_empty() && rng.gen_range(0..16) != 0 {
                        keys = open.swap_remove(rng.gen_range(0..open.len()));
                    }
                    let committed = rng.gen_bool(0.7);
                    fp.on_txn_finish(&keys, committed);
                    model.on_txn_finish(&keys, committed);
                }
            }
            max_unlinked = max_unlinked.max(fp.unlinked_in_use());

            let context =
                format!("seed {seed} capacity {capacity} universe {universe} step {step}");
            assert_eq!(fp.len(), model.records.len(), "{context}");
            assert_eq!(fp.evictions(), model.evictions, "{context}");
            // Equal `len` plus every record of the model found with equal
            // stats means every key of the universe agrees, absent ones too.
            let same = |key: &GlobalKey, want: Option<&(HotRecordStats, u64)>| {
                let bits = |s: &HotRecordStats| (s.w_lat.to_bits(), s.t_cnt, s.c_cnt, s.a_cnt);
                let got = fp.stats(*key).as_ref().map(bits);
                assert_eq!(got, want.map(|(s, _)| bits(s)), "{context} key {key:?}");
            };
            if step % full_check_every == 0 || step + 1 == steps {
                model
                    .records
                    .iter()
                    .for_each(|(k, want)| same(k, Some(want)));
            } else {
                keys.iter().for_each(|k| same(k, model.records.get(k)));
            }
            let probe: Vec<GlobalKey> = (0..rng.gen_range(1..=8))
                .map(|_| gk(rng.gen_range(0..universe)))
                .collect();
            assert_eq!(
                fp.forecast_local_latency(&probe),
                model.forecast_local_latency(&probe),
                "{context}"
            );
            assert_eq!(
                fp.success_probability(&probe).to_bits(),
                model.success_probability(&probe).to_bits(),
                "{context}"
            );
        }
        max_unlinked
    }

    #[test]
    fn slab_matches_the_reference_model() {
        for seed in [1, 2, 3] {
            for capacity in [8usize, 100, 10_000] {
                let small = run_differential(seed, capacity, capacity as u64 / 2, 20_000);
                assert_eq!(small, 0, "nothing is popped while the universe fits");
                let large = run_differential(seed, capacity, capacity as u64 * 50, 20_000);
                assert!(large > 0, "capacity {capacity}: no in-use head was popped");
            }
        }
    }
}
