//! Multi-version storage: per-key version chains stamped with virtual-time
//! commit timestamps.
//!
//! The version store sits beside the record store. Writers still go through
//! strict 2PL and mutate the paged record store; at commit, [`StorageEngine`]
//! installs one [`ChainVersion`] per written key, all stamped with the same
//! commit instant. Snapshot readers never consult the record store (it holds
//! uncommitted writer data) — they resolve against the chain, visible-as-of
//! their snapshot timestamp, and acquire **no locks**.
//!
//! Garbage collection prunes chain prefixes no open snapshot can reach: for
//! each key, every version strictly older than the newest version visible at
//! the oldest open snapshot is dead. It is driven by what committed, not by
//! a table walk: every install that supersedes an older version queues
//! `(commit_ts, key)`, commit timestamps are `now()` on one engine so the
//! queue is sorted, and a pass pops the entries at or below the horizon —
//! one dead version each. A pass costs O(versions reclaimed), whatever the
//! table size and however many versions a long reader pins behind the
//! horizon. A chain left holding only a tombstone at or below the horizon is
//! removed (no reader can tell it from a missing key). GC is triggered
//! deterministically (an install-count stride plus every snapshot close), so
//! replays stay bit-identical.
//!
//! [`StorageEngine`]: crate::engine::StorageEngine

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use geotp_simrt::hash::FxHashMap;

use crate::row::Row;
use crate::types::Key;

/// One committed version of one key.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainVersion {
    /// Monotonic per-key version number (v0 = bulk load), shared with the
    /// history recorder's numbering so the serializability checker sees one
    /// consistent version space.
    pub version: u64,
    /// Commit timestamp in virtual microseconds (0 for bulk-loaded rows).
    pub commit_ts: u64,
    /// The committed value (`None` = tombstone: the key was deleted).
    pub row: Option<Row>,
    /// FNV-1a fingerprint of the value (tombstone fingerprint for deletes).
    pub fingerprint: u64,
}

/// Version-store counters (GC effectiveness, chain growth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Versions installed by committed branches (excludes bulk load).
    pub versions_installed: u64,
    /// Versions reclaimed by garbage collection.
    pub versions_gced: u64,
    /// Number of GC passes run.
    pub gc_passes: u64,
    /// Chain lookups made by GC passes (one per reclamation-queue entry
    /// popped, so at most `versions_gced`; a table walk would dwarf it).
    pub gc_chains_examined: u64,
}

/// Run a GC pass after this many installs. A pass only costs what it
/// reclaims, so the stride buys nothing any more; it is kept because moving a
/// trigger point would move `gc_passes` / `versions_gced` and with them every
/// replay fingerprint.
const GC_INSTALL_STRIDE: u64 = 64;

/// Per-key version chains plus the open-snapshot registry that bounds GC.
#[derive(Debug, Default)]
pub struct VersionStore {
    chains: RefCell<FxHashMap<Key, Vec<ChainVersion>>>,
    /// Reclamation queue: `(commit_ts, key)` of every version that sits
    /// behind an older one in its chain, in install order — which is
    /// commit-timestamp order. Popping an entry reclaims one version.
    reclaim: RefCell<VecDeque<(u64, Key)>>,
    /// Open snapshot timestamps → refcount (several branches may pin the
    /// same virtual instant).
    open_snapshots: RefCell<BTreeMap<u64, u64>>,
    installs_since_gc: Cell<u64>,
    stats: Cell<MvccStats>,
}

impl VersionStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the bulk-loaded version 0 of a key (no GC accounting: load
    /// happens before any snapshot opens). Reloading a key replaces its
    /// chain, so its queued reclamations are dropped with it.
    pub fn load(&self, key: Key, row: Row, fingerprint: u64) {
        let base = vec![ChainVersion {
            version: 0,
            commit_ts: 0,
            row: Some(row),
            fingerprint,
        }];
        if self.chains.borrow_mut().insert(key, base).is_some() {
            self.reclaim.borrow_mut().retain(|(_, k)| *k != key);
        }
    }

    /// Append a committed version to a key's chain. The caller stamps every
    /// key of one commit with the same `commit_ts`, making the commit atomic
    /// in snapshot space.
    pub fn install(
        &self,
        key: Key,
        version: u64,
        commit_ts: u64,
        row: Option<Row>,
        fingerprint: u64,
    ) {
        let tombstone = row.is_none();
        let mut chains = self.chains.borrow_mut();
        let chain = chains.entry(key).or_default();
        chain.push(ChainVersion {
            version,
            commit_ts,
            row,
            fingerprint,
        });
        let chain_len = chain.len();
        let mut reclaim = self.reclaim.borrow_mut();
        if chain_len > 1 {
            debug_assert!(
                reclaim.back().is_none_or(|(ts, _)| *ts <= commit_ts),
                "commit timestamps must not go backwards on one engine"
            );
            reclaim.push_back((commit_ts, key));
        } else if tombstone {
            // A tombstone with nothing behind it hides nothing.
            chains.remove(&key);
        }
        if geotp_telemetry::enabled() {
            geotp_telemetry::observe(
                "storage.version_chain_len",
                "",
                0,
                Duration::from_micros(chain_len as u64),
            );
            geotp_telemetry::gauge_set("storage.gc_backlog", "", 0, reclaim.len() as i64);
            let horizon_lag = self
                .oldest_open_snapshot()
                .map_or(0, |oldest| commit_ts.saturating_sub(oldest));
            geotp_telemetry::gauge_set("storage.gc_horizon_lag_us", "", 0, horizon_lag as i64);
        }
        drop(reclaim);
        drop(chains);
        let mut stats = self.stats.get();
        stats.versions_installed += 1;
        self.stats.set(stats);
        let n = self.installs_since_gc.get() + 1;
        if n >= GC_INSTALL_STRIDE {
            self.installs_since_gc.set(0);
            self.gc();
        } else {
            self.installs_since_gc.set(n);
        }
    }

    /// The newest version with `commit_ts <= ts`, i.e. what a snapshot taken
    /// at `ts` observes. `None` when the key had no committed version yet.
    pub fn read_at(&self, key: Key, ts: u64) -> Option<ChainVersion> {
        self.chains
            .borrow()
            .get(&key)?
            .iter()
            .rev()
            .find(|v| v.commit_ts <= ts)
            .cloned()
    }

    /// The newest committed version of a key (read-committed visibility).
    pub fn read_latest(&self, key: Key) -> Option<ChainVersion> {
        self.chains.borrow().get(&key)?.last().cloned()
    }

    /// Register an open snapshot at `ts`, pinning versions it can reach
    /// against GC.
    pub fn open_snapshot(&self, ts: u64) {
        *self.open_snapshots.borrow_mut().entry(ts).or_insert(0) += 1;
    }

    /// Release one reference on the snapshot at `ts`; runs a GC pass when the
    /// snapshot fully closes (it may have been the GC horizon).
    pub fn close_snapshot(&self, ts: u64) {
        let fully_closed = {
            let mut open = self.open_snapshots.borrow_mut();
            match open.get_mut(&ts) {
                Some(count) if *count > 1 => {
                    *count -= 1;
                    false
                }
                Some(_) => {
                    open.remove(&ts);
                    true
                }
                None => false,
            }
        };
        if fully_closed {
            self.gc();
        }
    }

    /// The oldest open snapshot timestamp, if any (the GC horizon).
    pub fn oldest_open_snapshot(&self) -> Option<u64> {
        self.open_snapshots.borrow().keys().next().copied()
    }

    /// Length of a key's version chain (tests and telemetry audits).
    pub fn chain_len(&self, key: Key) -> usize {
        self.chains.borrow().get(&key).map_or(0, Vec::len)
    }

    /// Version-store counters.
    pub fn stats(&self) -> MvccStats {
        self.stats.get()
    }

    /// Versions queued for reclamation: superseded, but still reachable by
    /// an open snapshot (or installed since the last pass).
    pub fn pending_reclaim(&self) -> usize {
        self.reclaim.borrow().len()
    }

    /// Prune versions no open snapshot can reach: per key, everything
    /// strictly older than the newest version visible at the oldest open
    /// snapshot (or everything but the tip when no snapshot is open).
    pub fn gc(&self) {
        let horizon = self.oldest_open_snapshot().unwrap_or(u64::MAX);
        let mut chains = self.chains.borrow_mut();
        let mut reclaim = self.reclaim.borrow_mut();
        let mut stats = self.stats.get();
        while let Some(&(ts, key)) = reclaim.front() {
            if ts > horizon {
                break;
            }
            reclaim.pop_front();
            stats.gc_chains_examined += 1;
            // A queued version at or below the horizon makes everything
            // before it unreachable by any current or future snapshot. The
            // key's first entry of a pass drains its whole dead prefix; its
            // later entries find nothing left (or the chain gone).
            let Entry::Occupied(mut slot) = chains.entry(key) else {
                continue;
            };
            let chain = slot.get_mut();
            let dead = chain[1..]
                .iter()
                .take_while(|v| v.commit_ts <= horizon)
                .count();
            if dead > 0 {
                chain.drain(..dead);
                stats.versions_gced += dead as u64;
                if chain.len() == 1 && chain[0].row.is_none() {
                    slot.remove();
                }
            }
        }
        stats.gc_passes += 1;
        self.stats.set(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TableId;

    fn key(row: u64) -> Key {
        Key::new(TableId(0), row)
    }

    fn store_with_versions(ts_list: &[u64]) -> VersionStore {
        let store = VersionStore::new();
        store.load(key(1), Row::int(0), 1);
        for (i, ts) in ts_list.iter().enumerate() {
            store.install(key(1), (i + 1) as u64, *ts, Some(Row::int(i as i64)), 2);
        }
        store
    }

    #[test]
    fn read_at_resolves_snapshot_visibility() {
        let store = store_with_versions(&[100, 200, 300]);
        assert_eq!(store.read_at(key(1), 0).unwrap().version, 0);
        assert_eq!(store.read_at(key(1), 150).unwrap().version, 1);
        assert_eq!(store.read_at(key(1), 200).unwrap().version, 2);
        assert_eq!(store.read_at(key(1), 999).unwrap().version, 3);
        assert_eq!(store.read_latest(key(1)).unwrap().version, 3);
        assert!(store.read_at(key(9), 999).is_none());
    }

    #[test]
    fn gc_prunes_below_oldest_open_snapshot() {
        let store = store_with_versions(&[100, 200, 300]);
        store.open_snapshot(250); // sees version 2 (ts=200)
        store.gc();
        // Versions 0 (ts 0) and 1 (ts 100) are unreachable; 2 and 3 survive.
        assert_eq!(store.chain_len(key(1)), 2);
        assert_eq!(store.read_at(key(1), 250).unwrap().version, 2);
        // Closing the snapshot collapses the chain to the tip.
        store.close_snapshot(250);
        assert_eq!(store.chain_len(key(1)), 1);
        assert_eq!(store.read_latest(key(1)).unwrap().version, 3);
        assert!(store.stats().versions_gced >= 3);
    }

    #[test]
    fn snapshot_refcounts_pin_the_horizon() {
        let store = store_with_versions(&[100, 200]);
        store.open_snapshot(150);
        store.open_snapshot(150);
        store.close_snapshot(150);
        // One reference remains: version 1 (ts=100) must stay reachable.
        store.gc();
        assert_eq!(store.read_at(key(1), 150).unwrap().version, 1);
        store.close_snapshot(150);
        assert_eq!(store.chain_len(key(1)), 1);
    }

    #[test]
    fn tombstones_are_versions_too() {
        let store = store_with_versions(&[100]);
        store.install(key(1), 2, 200, None, crate::history::TOMBSTONE_FINGERPRINT);
        assert!(store.read_at(key(1), 150).unwrap().row.is_some());
        assert!(store.read_at(key(1), 250).unwrap().row.is_none());
    }

    #[test]
    fn tombstone_only_chains_are_removed() {
        let store = store_with_versions(&[100]);
        store.open_snapshot(150);
        store.install(key(1), 2, 200, None, crate::history::TOMBSTONE_FINGERPRINT);
        store.gc();
        // The open snapshot still reads the live version behind the tombstone.
        assert_eq!(store.chain_len(key(1)), 2);
        assert!(store.read_at(key(1), 150).unwrap().row.is_some());
        store.close_snapshot(150);
        assert_eq!(store.chain_len(key(1)), 0);
        assert_eq!(store.pending_reclaim(), 0);
        assert!(store.read_latest(key(1)).is_none());
        // Inserted and deleted by one commit: the chain is never created.
        store.install(key(2), 1, 300, None, crate::history::TOMBSTONE_FINGERPRINT);
        assert_eq!(store.chain_len(key(2)), 0);
        // A re-insert starts a fresh chain (the engine continues numbering).
        store.install(key(1), 3, 400, Some(Row::int(7)), 2);
        assert_eq!(store.read_latest(key(1)).unwrap().version, 3);
        assert!(store.read_at(key(1), 350).is_none());
    }

    #[test]
    fn reload_drops_the_keys_pending_reclamations() {
        let store = store_with_versions(&[100, 200]);
        store.install(key(2), 1, 300, Some(Row::int(5)), 2);
        store.install(key(2), 2, 400, Some(Row::int(6)), 2);
        store.open_snapshot(50);
        assert_eq!(store.pending_reclaim(), 3);
        store.load(key(1), Row::int(9), 3);
        assert_eq!(store.pending_reclaim(), 1);
        store.install(key(1), 1, 500, Some(Row::int(10)), 4);
        store.close_snapshot(50);
        // Only the reloaded base was reclaimed; the tip survives.
        assert_eq!(store.chain_len(key(1)), 1);
        assert_eq!(store.read_latest(key(1)).unwrap().version, 1);
        assert_eq!(store.chain_len(key(2)), 1);
        assert_eq!(store.pending_reclaim(), 0);
    }

    #[test]
    fn install_publishes_the_gc_gauges() {
        let telemetry = geotp_telemetry::install();
        let store = store_with_versions(&[100]);
        store.open_snapshot(150);
        store.install(key(1), 2, 400, Some(Row::int(1)), 2);
        let gauge = |name| telemetry.metrics.gauge(name, "", 0);
        assert_eq!(gauge("storage.gc_backlog"), 2);
        assert_eq!(gauge("storage.gc_horizon_lag_us"), 250);
        store.close_snapshot(150);
        store.install(key(1), 3, 500, Some(Row::int(2)), 2);
        assert_eq!(gauge("storage.gc_backlog"), 1);
        assert_eq!(gauge("storage.gc_horizon_lag_us"), 0);
        geotp_telemetry::uninstall();
    }

    /// The pre-queue implementation, kept as the reference model: the same
    /// trigger points and reclaim rule, but every pass walks every chain.
    #[derive(Default)]
    struct ScanModel {
        chains: FxHashMap<Key, Vec<ChainVersion>>,
        open_snapshots: BTreeMap<u64, u64>,
        installs_since_gc: u64,
        stats: MvccStats,
    }

    impl ScanModel {
        fn load(&mut self, key: Key, row: Row, fingerprint: u64) {
            let base = ChainVersion {
                version: 0,
                commit_ts: 0,
                row: Some(row),
                fingerprint,
            };
            self.chains.insert(key, vec![base]);
        }

        fn install(&mut self, key: Key, version: ChainVersion) {
            let chain = self.chains.entry(key).or_default();
            if chain.is_empty() && version.row.is_none() {
                self.chains.remove(&key);
            } else {
                chain.push(version);
            }
            self.stats.versions_installed += 1;
            self.installs_since_gc += 1;
            if self.installs_since_gc >= GC_INSTALL_STRIDE {
                self.installs_since_gc = 0;
                self.gc();
            }
        }

        fn open_snapshot(&mut self, ts: u64) {
            *self.open_snapshots.entry(ts).or_insert(0) += 1;
        }

        fn close_snapshot(&mut self, ts: u64) {
            let Some(count) = self.open_snapshots.get_mut(&ts) else {
                return;
            };
            *count -= 1;
            if *count == 0 {
                self.open_snapshots.remove(&ts);
                self.gc();
            }
        }

        fn gc(&mut self) {
            let horizon = self
                .open_snapshots
                .keys()
                .next()
                .copied()
                .unwrap_or(u64::MAX);
            for chain in self.chains.values_mut() {
                let keep_from = chain
                    .iter()
                    .rposition(|v| v.commit_ts <= horizon)
                    .unwrap_or(0);
                self.stats.versions_gced += keep_from as u64;
                chain.drain(..keep_from);
            }
            // The tombstone rule, stated over the whole table.
            self.chains
                .retain(|_, c| !(c.len() == 1 && c[0].row.is_none() && c[0].commit_ts <= horizon));
            self.stats.gc_passes += 1;
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn assert_matches_model(store: &VersionStore, model: &ScanModel, step: usize) {
        assert_eq!(
            *store.chains.borrow(),
            model.chains,
            "chains at step {step}"
        );
        let stats = store.stats();
        let reference = MvccStats {
            gc_chains_examined: stats.gc_chains_examined,
            ..model.stats
        };
        assert_eq!(stats, reference, "stats at step {step}");
        // One queued entry per version that sits behind an older one.
        let queued: usize = model.chains.values().map(|c| c.len() - 1).sum();
        assert_eq!(store.pending_reclaim(), queued, "backlog at step {step}");
        assert!(stats.gc_chains_examined <= stats.versions_gced);
    }

    #[test]
    fn gc_matches_the_full_scan_model_on_a_random_schedule() {
        const KEYS: u64 = 300;
        const STEPS: usize = 12_000;
        // One snapshot stays pinned from `pin_at` to the end: for the whole
        // run, for most of it (after a stretch of free reclamation), never.
        for (seed, pin_at) in [(1u64, 0), (2, STEPS / 4), (3, STEPS)] {
            let mut rng = seed;
            let store = VersionStore::new();
            let mut model = ScanModel::default();
            for k in 0..KEYS {
                store.load(key(k), Row::int(k as i64), k);
                model.load(key(k), Row::int(k as i64), k);
            }
            let mut pinned = None;
            let mut now = 1u64;
            let mut next_version = vec![1u64; KEYS as usize];
            let mut open: Vec<u64> = Vec::new();
            for step in 0..STEPS {
                if step == pin_at {
                    pinned = Some(now);
                    store.open_snapshot(now);
                    model.open_snapshot(now);
                }
                // Equal commit timestamps happen: time advances on a third
                // of the steps only, and hot keys repeat.
                now += u64::from(splitmix64(&mut rng).is_multiple_of(3));
                match splitmix64(&mut rng) % 10 {
                    0..=4 => {
                        let hot = splitmix64(&mut rng).is_multiple_of(4);
                        let k = splitmix64(&mut rng) % if hot { 8 } else { KEYS };
                        let tombstone = splitmix64(&mut rng).is_multiple_of(5);
                        let version = ChainVersion {
                            version: next_version[k as usize],
                            commit_ts: now,
                            row: (!tombstone).then(|| Row::int(step as i64)),
                            fingerprint: step as u64,
                        };
                        next_version[k as usize] += 1;
                        store.install(
                            key(k),
                            version.version,
                            version.commit_ts,
                            version.row.clone(),
                            version.fingerprint,
                        );
                        model.install(key(k), version);
                    }
                    5..=6 => {
                        // Refcounted: reopening a still-open instant is common.
                        let ts = match open.last() {
                            Some(ts) if splitmix64(&mut rng).is_multiple_of(3) => *ts,
                            _ => now,
                        };
                        open.push(ts);
                        store.open_snapshot(ts);
                        model.open_snapshot(ts);
                    }
                    7..=8 if !open.is_empty() => {
                        let ts = open.swap_remove(splitmix64(&mut rng) as usize % open.len());
                        store.close_snapshot(ts);
                        model.close_snapshot(ts);
                    }
                    _ => {
                        store.gc();
                        model.gc();
                    }
                }
                assert_matches_model(&store, &model, step);
            }
            for ts in open.into_iter().chain(pinned) {
                store.close_snapshot(ts);
                model.close_snapshot(ts);
            }
            assert_matches_model(&store, &model, STEPS);
            assert_eq!(store.pending_reclaim(), 0);
            assert!(store.stats().versions_gced > 1_000);
        }
    }

    /// A fixed mix of installs, snapshots and passes over keys `0..16`;
    /// returns how many chains GC examined.
    fn chains_examined_over(loaded_keys: u64) -> u64 {
        let store = VersionStore::new();
        for k in 0..loaded_keys {
            store.load(key(k), Row::int(0), 1);
        }
        for step in 1..=400u64 {
            store.install(key(step % 16), step, step * 10, Some(Row::int(1)), 2);
            if step.is_multiple_of(7) {
                store.open_snapshot(step * 10);
            }
            if step % 7 == 3 {
                store.close_snapshot((step - 3) * 10);
            }
        }
        store.gc();
        store.stats().gc_chains_examined
    }

    #[test]
    fn gc_cost_is_independent_of_table_size() {
        let small = chains_examined_over(1_000);
        assert!(small > 0);
        assert_eq!(small, chains_examined_over(1_000_000));
    }

    #[test]
    fn closes_behind_a_pinned_snapshot_examine_nothing() {
        let store = VersionStore::new();
        for k in 0..100 {
            store.load(key(k), Row::int(0), 1);
        }
        store.open_snapshot(5); // the long reader
        for step in 1..=1_000u64 {
            store.install(key(step % 100), step, 10 + step, Some(Row::int(1)), 2);
        }
        assert_eq!(store.pending_reclaim(), 1_000);
        let before = store.stats();
        for ts in 2_000..2_050 {
            store.open_snapshot(ts);
            store.close_snapshot(ts);
        }
        let after = store.stats();
        assert_eq!(after.gc_passes, before.gc_passes + 50);
        assert_eq!(after.gc_chains_examined, before.gc_chains_examined);
        assert_eq!(after.versions_gced, before.versions_gced);
        // Releasing the long reader reclaims the whole backlog in one pass.
        store.close_snapshot(5);
        assert_eq!(store.pending_reclaim(), 0);
        assert_eq!(store.stats().versions_gced, before.versions_gced + 1_000);
    }
}
