//! Versioned storage: what the record pages cannot say about a key.
//!
//! Uncommitted writes stay in the writing branch's write set until commit,
//! so the record pages hold exactly the committed head of every key. The
//! [`VersionStore`] keeps the rest, for keys written since load only: the
//! head's commit stamp (with a version number and the loaded value's
//! fingerprint when versions are *numbered* for the history recorder), and
//! in the multi-version isolation levels the superseded versions an open
//! snapshot can still reach. A key with no entry has one version, its
//! pages' row, committed at time 0 — so a bulk load touches only the pages.
//!
//! Every key of one commit is stamped with the same virtual-time instant, so
//! the commit is atomic in snapshot space. GC prunes, per key, every version
//! strictly older than the newest one visible at the oldest open snapshot.
//! It is driven by what committed, not by a table walk: every install that
//! supersedes a version queues `(commit_ts, key)`, commit timestamps are
//! `now()` on one engine so the queue is sorted, and a pass pops the entries
//! at or below the horizon — one dead version each — so it costs what it
//! reclaims. A lone tombstone counts as no versions (no reader can tell it
//! from a missing key). GC runs at an install-count stride and at every
//! snapshot close, so replays stay bit-identical.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use geotp_simrt::hash::FxHashMap;

use crate::history::row_fingerprint;
use crate::row::Row;
use crate::types::Key;

/// One superseded committed version of one key.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainVersion {
    /// Monotonic per-key version number (v0 = bulk load), the history
    /// recorder's numbering, so the serializability checker sees one
    /// consistent version space. Meaningful only when versions are numbered.
    pub version: u64,
    /// Commit timestamp in virtual microseconds (0 for bulk-loaded rows).
    pub commit_ts: u64,
    /// The committed value (`None` = tombstone: the key was deleted).
    pub row: Option<Row>,
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

/// The committed version a snapshot read resolves to.
#[derive(Debug, Clone, PartialEq)]
pub enum Visible {
    /// The committed head: its row is the record pages' row for the key.
    Head,
    /// A superseded version an open snapshot still reaches.
    Superseded(ChainVersion),
}

/// What the store keeps of one key written since load.
#[derive(Debug)]
struct Chain {
    /// Fingerprint of the loaded value (version 0); `None` if the key was
    /// not loaded, or versions are not numbered.
    base: Option<u64>,
    /// Superseded versions a snapshot may still reach, oldest first.
    older: Vec<ChainVersion>,
    /// The committed head's version and commit timestamp; its row (or its
    /// absence, if `!live`) is the pages'.
    version: u64,
    head_ts: u64,
    live: bool,
}

impl Chain {
    /// Versions a snapshot can tell apart: the superseded ones plus the
    /// head, or none when all that is left is a tombstone.
    fn len(&self) -> usize {
        self.older.len() + usize::from(self.live || !self.older.is_empty())
    }
}

/// Stamps of the keys written since load, their superseded versions, and
/// the open-snapshot registry that bounds GC.
#[derive(Debug, Default)]
pub struct VersionStore {
    /// Keep superseded versions (and count installs and GC passes).
    multi_version: bool,
    /// Number versions and keep every written key's entry for good; else an
    /// entry goes once GC leaves it nothing superseded.
    numbered: bool,
    chains: RefCell<FxHashMap<Key, Chain>>,
    /// Buffers of dropped entries, for new ones to reuse.
    spare: RefCell<Vec<Vec<ChainVersion>>>,
    /// Reclamation queue: `(commit_ts, key)` of every version that sits
    /// behind an older one, in install order — which is commit-timestamp
    /// order. Popping an entry reclaims one version.
    reclaim: RefCell<VecDeque<(u64, Key)>>,
    /// Open snapshot timestamps → refcount (several branches may pin the
    /// same virtual instant).
    open_snapshots: RefCell<BTreeMap<u64, u64>>,
    installs_since_gc: Cell<u64>,
    stats: Cell<MvccStats>,
}

impl VersionStore {
    /// An empty store: `multi_version` keeps superseded versions for
    /// snapshot readers, `numbered` numbers versions for the history
    /// recorder.
    pub fn new(multi_version: bool, numbered: bool) -> Self {
        Self {
            multi_version,
            numbered,
            ..Self::default()
        }
    }

    /// Forget everything about the `count` keys of `first`'s table from
    /// `first` on: a reloaded key is version 0 again, and its queued
    /// reclamations go with its chain. A store without chains (every load
    /// into a fresh engine) has nothing to walk.
    pub fn forget(&self, first: Key, count: u64) {
        let mut chains = self.chains.borrow_mut();
        if chains.is_empty() {
            return;
        }
        for i in 0..count {
            let key = Key::new(first.table, first.row.wrapping_add(i));
            if chains.remove(&key).is_some() {
                self.reclaim.borrow_mut().retain(|(_, k)| *k != key);
            }
        }
    }

    /// Stamp the next committed version of `key` at `commit_ts`: a row if
    /// `live`, else a tombstone. `before` is the committed row it supersedes
    /// (the pages' row until this commit applies), which a multi-version
    /// store keeps for the snapshots that can still reach it. Every key of
    /// one commit gets the same `commit_ts`. Returns the version number
    /// installed.
    pub fn install(&self, key: Key, commit_ts: u64, before: Option<Row>, live: bool) -> u64 {
        let mut chains = self.chains.borrow_mut();
        let chain = chains.entry(key).or_insert_with(|| Chain {
            base: before
                .as_ref()
                .filter(|_| self.numbered)
                .map(row_fingerprint),
            older: self.spare.borrow_mut().pop().unwrap_or_default(),
            version: 0,
            head_ts: 0,
            live: before.is_some(),
        });
        let superseded = chain.len();
        if self.multi_version && superseded > 0 {
            chain.older.push(ChainVersion {
                version: chain.version,
                commit_ts: chain.head_ts,
                row: before,
            });
        }
        chain.version += 1;
        chain.head_ts = commit_ts;
        chain.live = live;
        let installed = chain.version;
        if !self.multi_version {
            return installed;
        }
        let queued = !chain.older.is_empty();
        drop(chains);
        let mut reclaim = self.reclaim.borrow_mut();
        if queued {
            debug_assert!(
                reclaim.back().is_none_or(|(ts, _)| *ts <= commit_ts),
                "commit timestamps must not go backwards on one engine"
            );
            reclaim.push_back((commit_ts, key));
        }
        if geotp_telemetry::enabled() {
            geotp_telemetry::observe(
                "storage.version_chain_len",
                "",
                0,
                Duration::from_micros(superseded as u64 + 1),
            );
            geotp_telemetry::gauge_set("storage.gc_backlog", "", 0, reclaim.len() as i64);
            let horizon_lag = self
                .oldest_open_snapshot()
                .map_or(0, |oldest| commit_ts.saturating_sub(oldest));
            geotp_telemetry::gauge_set("storage.gc_horizon_lag_us", "", 0, horizon_lag as i64);
        }
        drop(reclaim);
        let mut stats = self.stats.get();
        stats.versions_installed += 1;
        self.stats.set(stats);
        let n = (self.installs_since_gc.get() + 1) % GC_INSTALL_STRIDE;
        self.installs_since_gc.set(n);
        if n == 0 {
            self.gc();
        }
        installed
    }

    /// What a snapshot taken at `ts` observes of `key`: the newest version
    /// committed at or before `ts`. `None` when the key's first version
    /// committed later.
    pub fn read_at(&self, key: Key, ts: u64) -> Option<Visible> {
        match self.chains.borrow().get(&key) {
            Some(chain) if chain.head_ts > ts => {
                let visible = chain.older.iter().rev().find(|v| v.commit_ts <= ts);
                visible.cloned().map(Visible::Superseded)
            }
            _ => Some(Visible::Head),
        }
    }

    /// The committed head's version number if `key` has an entry (a key
    /// without one is at version 0). Numbered stores only.
    pub fn head_version(&self, key: Key) -> Option<u64> {
        self.chains.borrow().get(&key).map(|chain| chain.version)
    }

    /// The loaded-value fingerprint of every key with an entry (`None` for
    /// a key that was not loaded), in no particular order. Numbered stores
    /// only.
    pub fn bases(&self) -> Vec<(Key, Option<u64>)> {
        let chains = self.chains.borrow();
        chains
            .iter()
            .map(|(key, chain)| (*key, chain.base))
            .collect()
    }

    /// Register an open snapshot at `ts`, pinning versions it can reach
    /// against GC.
    pub fn open_snapshot(&self, ts: u64) {
        *self.open_snapshots.borrow_mut().entry(ts).or_insert(0) += 1;
    }

    /// Release one reference on the snapshot at `ts`; runs a GC pass when the
    /// snapshot fully closes (it may have been the GC horizon).
    pub fn close_snapshot(&self, ts: u64) {
        let mut open = self.open_snapshots.borrow_mut();
        let Some(count) = open.get_mut(&ts) else {
            return;
        };
        *count -= 1;
        if *count == 0 {
            open.remove(&ts);
            drop(open);
            self.gc();
        }
    }

    /// The oldest open snapshot timestamp, if any (the GC horizon).
    fn oldest_open_snapshot(&self) -> Option<u64> {
        self.open_snapshots.borrow().keys().next().copied()
    }

    /// Committed versions held for `key`: the superseded ones plus the head.
    /// 0 for a key with no entry (its one version is the pages' row) and for
    /// one whose only version left is a tombstone.
    pub fn chain_len(&self, key: Key) -> usize {
        self.chains.borrow().get(&key).map_or(0, Chain::len)
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
    /// snapshot (or everything but the head when no snapshot is open).
    pub(crate) fn gc(&self) {
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
            // later entries find nothing left.
            let Entry::Occupied(mut slot) = chains.entry(key) else {
                continue;
            };
            let chain = slot.get_mut();
            let newer = chain.older.iter().skip(1).map(|v| v.commit_ts);
            let dead = match chain.older.is_empty() {
                true => 0,
                false => newer
                    .chain([chain.head_ts])
                    .take_while(|ts| *ts <= horizon)
                    .count(),
            };
            chain.older.drain(..dead);
            stats.versions_gced += dead as u64;
            // Nothing superseded left: the head is at or below the horizon,
            // so every snapshot sees it, as for a key with no entry.
            if !self.numbered && chain.older.is_empty() {
                self.spare.borrow_mut().push(slot.remove().older);
            }
        }
        stats.gc_passes += 1;
        self.stats.set(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TOMBSTONE_FINGERPRINT;
    use crate::types::TableId;
    use std::collections::hash_map::Entry;

    fn key(row: u64) -> Key {
        Key::new(TableId(0), row)
    }

    /// A store beside a map standing in for the record pages, which hold
    /// every key's committed head.
    struct Pages {
        store: VersionStore,
        rows: FxHashMap<Key, Row>,
    }

    impl Pages {
        /// A multi-version store; `numbered` as for the history recorder.
        fn new(numbered: bool) -> Self {
            Self {
                store: VersionStore::new(true, numbered),
                rows: FxHashMap::default(),
            }
        }

        fn load(&mut self, key: Key, row: Row) {
            self.store.forget(key, 1);
            self.rows.insert(key, row);
        }

        /// Commit `row` (`None` = delete) over the pages' head; returns the
        /// version installed.
        fn commit(&mut self, key: Key, ts: u64, row: Option<Row>) -> u64 {
            let live = row.is_some();
            let before = match row {
                Some(row) => self.rows.insert(key, row),
                None => self.rows.remove(&key),
            };
            self.store.install(key, ts, before, live)
        }

        /// The version and row a snapshot at `ts` reads, if it finds one.
        fn read_at(&self, key: Key, ts: u64) -> Option<(u64, Row)> {
            match self.store.read_at(key, ts)? {
                Visible::Head => {
                    let version = self.store.head_version(key).unwrap_or(0);
                    Some((version, self.rows.get(&key)?.clone()))
                }
                Visible::Superseded(v) => Some((v.version, v.row?)),
            }
        }
    }

    fn pages_with_versions(ts_list: &[u64]) -> Pages {
        let mut pages = Pages::new(true);
        pages.load(key(1), Row::int(0));
        for (i, ts) in ts_list.iter().enumerate() {
            pages.commit(key(1), *ts, Some(Row::int(i as i64 + 1)));
        }
        pages
    }

    #[test]
    fn read_at_resolves_snapshot_visibility() {
        let pages = pages_with_versions(&[100, 200, 300]);
        let version_at = |ts| pages.read_at(key(1), ts).unwrap().0;
        assert_eq!(version_at(0), 0);
        assert_eq!(version_at(150), 1);
        assert_eq!(version_at(200), 2);
        assert_eq!(version_at(999), 3);
        assert_eq!(pages.read_at(key(1), 999).unwrap().1, Row::int(3));
        // A key nobody wrote reads as its loaded row at any instant.
        assert_eq!(pages.store.read_at(key(9), 0), Some(Visible::Head));
        assert!(pages.read_at(key(9), 999).is_none());
    }

    #[test]
    fn loads_and_stamps_number_one_version_space() {
        let mut pages = Pages::new(true);
        pages.load(key(1), Row::int(5));
        assert!(
            pages.store.head_version(key(1)).is_none(),
            "a load touches only the pages"
        );
        assert_eq!(pages.commit(key(1), 10, Some(Row::int(6))), 1);
        assert_eq!(pages.commit(key(2), 10, Some(Row::int(7))), 1);
        assert_eq!(pages.commit(key(1), 20, None), 2);
        let mut bases = pages.store.bases();
        bases.sort();
        assert_eq!(
            bases,
            vec![
                (key(1), Some(row_fingerprint(&Row::int(5)))),
                (key(2), None)
            ]
        );
        // A reload makes the key version 0 again.
        pages.load(key(1), Row::int(8));
        assert!(pages.store.head_version(key(1)).is_none());
        assert_eq!(pages.commit(key(1), 30, Some(Row::int(9))), 1);
    }

    #[test]
    fn a_single_version_store_keeps_stamps_only() {
        let store = VersionStore::new(false, true);
        store.install(key(1), 10, Some(Row::int(0)), true);
        assert_eq!(store.install(key(1), 20, Some(Row::int(1)), true), 2);
        assert_eq!(store.chain_len(key(1)), 1);
        assert_eq!(
            store.read_at(key(1), 15),
            None,
            "no superseded row was kept"
        );
        assert_eq!(store.stats(), MvccStats::default());
        assert_eq!(store.pending_reclaim(), 0);
    }

    #[test]
    fn gc_prunes_below_oldest_open_snapshot() {
        let pages = pages_with_versions(&[100, 200, 300]);
        let store = &pages.store;
        store.open_snapshot(250); // sees version 2 (ts=200)
        store.gc();
        // Versions 0 (ts 0) and 1 (ts 100) are unreachable; 2 and 3 survive.
        assert_eq!(store.chain_len(key(1)), 2);
        assert_eq!(pages.read_at(key(1), 250).unwrap().0, 2);
        // Closing the snapshot collapses the chain to the head.
        store.close_snapshot(250);
        assert_eq!(store.chain_len(key(1)), 1);
        assert_eq!(pages.read_at(key(1), 999).unwrap().0, 3);
        assert_eq!(store.stats().versions_gced, 3);
    }

    #[test]
    fn snapshot_refcounts_pin_the_horizon() {
        let pages = pages_with_versions(&[100, 200]);
        let store = &pages.store;
        store.open_snapshot(150);
        store.open_snapshot(150);
        store.close_snapshot(150);
        // One reference remains: version 1 (ts=100) must stay reachable.
        store.gc();
        assert_eq!(pages.read_at(key(1), 150).unwrap().0, 1);
        store.close_snapshot(150);
        assert_eq!(store.chain_len(key(1)), 1);
    }

    #[test]
    fn tombstones_are_versions_too() {
        let mut pages = pages_with_versions(&[100]);
        pages.commit(key(1), 200, None);
        assert!(pages.read_at(key(1), 150).is_some());
        assert!(pages.read_at(key(1), 250).is_none());
        assert_eq!(
            pages.store.read_at(key(1), 150),
            Some(Visible::Superseded(ChainVersion {
                version: 1,
                commit_ts: 100,
                row: Some(Row::int(1)),
            }))
        );
    }

    #[test]
    fn tombstone_only_chains_hold_no_versions() {
        let mut pages = pages_with_versions(&[100]);
        pages.store.open_snapshot(150);
        pages.commit(key(1), 200, None);
        pages.store.gc();
        // The open snapshot still reads the live version behind the tombstone.
        assert_eq!(pages.store.chain_len(key(1)), 2);
        assert!(pages.read_at(key(1), 150).is_some());
        pages.store.close_snapshot(150);
        assert_eq!(pages.store.chain_len(key(1)), 0);
        assert_eq!(pages.store.pending_reclaim(), 0);
        assert!(pages.read_at(key(1), 999).is_none());
        // Inserted and deleted by one commit: nothing to reclaim, ever.
        pages.commit(key(2), 300, None);
        assert_eq!(pages.store.chain_len(key(2)), 0);
        assert_eq!(pages.store.pending_reclaim(), 0);
        // A re-insert continues the numbering and supersedes nothing.
        assert_eq!(pages.commit(key(1), 400, Some(Row::int(7))), 3);
        assert_eq!(pages.store.pending_reclaim(), 0);
        assert!(pages.read_at(key(1), 350).is_none());
    }

    #[test]
    fn forget_drops_the_keys_pending_reclamations() {
        let mut pages = pages_with_versions(&[100, 200]);
        pages.commit(key(2), 300, Some(Row::int(5)));
        pages.commit(key(2), 400, Some(Row::int(6)));
        pages.store.open_snapshot(50);
        assert_eq!(pages.store.pending_reclaim(), 3);
        pages.load(key(1), Row::int(9));
        assert_eq!(pages.store.pending_reclaim(), 1);
        pages.commit(key(1), 500, Some(Row::int(10)));
        pages.store.close_snapshot(50);
        // Only the reloaded base was reclaimed; the head survives.
        assert_eq!(pages.store.chain_len(key(1)), 1);
        assert_eq!(pages.read_at(key(1), 999), Some((1, Row::int(10))));
        assert_eq!(pages.store.chain_len(key(2)), 1);
        assert_eq!(pages.store.pending_reclaim(), 0);
    }

    #[test]
    fn install_publishes_the_gc_gauges() {
        let telemetry = geotp_telemetry::install();
        let mut pages = pages_with_versions(&[100]);
        pages.store.open_snapshot(150);
        pages.commit(key(1), 400, Some(Row::int(1)));
        let gauge = |name| telemetry.metrics.gauge(name, "", 0);
        assert_eq!(gauge("storage.gc_backlog"), 2);
        assert_eq!(gauge("storage.gc_horizon_lag_us"), 250);
        pages.store.close_snapshot(150);
        pages.commit(key(1), 500, Some(Row::int(2)));
        assert_eq!(gauge("storage.gc_backlog"), 1);
        assert_eq!(gauge("storage.gc_horizon_lag_us"), 0);
        geotp_telemetry::uninstall();
    }

    #[test]
    fn closes_behind_a_pinned_snapshot_examine_nothing() {
        let mut pages = Pages::new(true);
        for k in 0..100 {
            pages.load(key(k), Row::int(0));
        }
        pages.store.open_snapshot(5); // the long reader
        for step in 1..=1_000u64 {
            pages.commit(key(step % 100), 10 + step, Some(Row::int(1)));
        }
        let store = &pages.store;
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

    #[test]
    fn unnumbered_entries_go_once_nothing_is_superseded() {
        let mut pages = Pages::new(false);
        pages.load(key(1), Row::int(0));
        pages.store.open_snapshot(50);
        pages.commit(key(1), 100, Some(Row::int(1)));
        pages.commit(key(1), 200, Some(Row::int(2)));
        assert_eq!(pages.store.chain_len(key(1)), 3);
        // The snapshot pins the loaded row; closing it reclaims both
        // superseded versions and the entry with them.
        assert_eq!(pages.read_at(key(1), 50).unwrap().1, Row::int(0));
        pages.store.close_snapshot(50);
        assert!(pages.store.chains.borrow().is_empty());
        assert_eq!(pages.store.spare.borrow().len(), 1);
        assert_eq!(pages.read_at(key(1), 60).unwrap().1, Row::int(2));
        // The next key to be superseded reuses the buffer.
        pages.commit(key(2), 300, Some(Row::int(3)));
        assert!(pages.store.spare.borrow().is_empty());
        // An insert keeps its entry: a snapshot older than it must not see
        // the row, and no reclamation will come to drop it.
        pages.store.open_snapshot(350);
        pages.commit(key(3), 400, Some(Row::int(4)));
        pages.store.gc();
        assert!(pages.read_at(key(3), 350).is_none());
        assert_eq!(pages.read_at(key(3), 400).unwrap().1, Row::int(4));
    }

    /// One version in the reference model: the whole stamp, fingerprint
    /// included, beside the row.
    #[derive(Debug, Clone, PartialEq)]
    struct ModelVersion {
        version: u64,
        commit_ts: u64,
        row: Option<Row>,
        fingerprint: u64,
    }

    /// The version store as it was while the record pages still held
    /// uncommitted data: every key's whole chain, loaded version 0 included,
    /// rows and all. Kept as the reference model.
    #[derive(Debug, Default)]
    struct ChainStore {
        chains: RefCell<FxHashMap<Key, Vec<ModelVersion>>>,
        reclaim: RefCell<VecDeque<(u64, Key)>>,
        open_snapshots: RefCell<BTreeMap<u64, u64>>,
        installs_since_gc: Cell<u64>,
        stats: Cell<MvccStats>,
    }

    impl ChainStore {
        fn load(&self, key: Key, row: Row, fingerprint: u64) {
            let base = vec![ModelVersion {
                version: 0,
                commit_ts: 0,
                row: Some(row),
                fingerprint,
            }];
            if self.chains.borrow_mut().insert(key, base).is_some() {
                self.reclaim.borrow_mut().retain(|(_, k)| *k != key);
            }
        }

        fn install(
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
            chain.push(ModelVersion {
                version,
                commit_ts,
                row,
                fingerprint,
            });
            if chain.len() > 1 {
                self.reclaim.borrow_mut().push_back((commit_ts, key));
            } else if tombstone {
                chains.remove(&key);
            }
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

        fn read_at(&self, key: Key, ts: u64) -> Option<ModelVersion> {
            self.chains
                .borrow()
                .get(&key)?
                .iter()
                .rev()
                .find(|v| v.commit_ts <= ts)
                .cloned()
        }

        fn open_snapshot(&self, ts: u64) {
            *self.open_snapshots.borrow_mut().entry(ts).or_insert(0) += 1;
        }

        fn close_snapshot(&self, ts: u64) {
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

        fn gc(&self) {
            let horizon = self
                .open_snapshots
                .borrow()
                .keys()
                .next()
                .copied()
                .unwrap_or(u64::MAX);
            let mut chains = self.chains.borrow_mut();
            let mut reclaim = self.reclaim.borrow_mut();
            let mut stats = self.stats.get();
            while let Some(&(ts, key)) = reclaim.front() {
                if ts > horizon {
                    break;
                }
                reclaim.pop_front();
                stats.gc_chains_examined += 1;
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

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn assert_matches_model(pages: &Pages, model: &ChainStore, keys: u64, step: usize) {
        let stats = pages.store.stats();
        assert_eq!(stats, model.stats.get(), "stats at step {step}");
        assert_eq!(
            pages.store.pending_reclaim(),
            model.reclaim.borrow().len(),
            "backlog at step {step}"
        );
        for k in 0..keys {
            // A key with no entry holds one version: the pages' row.
            let held = match pages.store.chains.borrow().get(&key(k)) {
                None => usize::from(pages.rows.contains_key(&key(k))),
                Some(chain) => chain.len(),
            };
            let chain = model.chains.borrow().get(&key(k)).map_or(0, Vec::len);
            assert_eq!(held, chain, "versions of {k} at step {step}");
        }
        assert!(stats.gc_chains_examined <= stats.versions_gced);
    }

    #[test]
    fn store_matches_the_chain_store_on_a_random_schedule() {
        const KEYS: u64 = 300;
        const STEPS: usize = 12_000;
        // One snapshot stays pinned from `pin_at` to the end: for the whole
        // run, for most of it (after a stretch of free reclamation), never.
        // Without numbering, versions are not compared: only rows are.
        let runs = [(1u64, 0), (2, STEPS / 4), (3, STEPS)];
        for (numbered, (seed, pin_at)) in
            [true, false].into_iter().flat_map(|n| runs.map(|r| (n, r)))
        {
            let mut rng = seed;
            let mut pages = Pages::new(numbered);
            let model = ChainStore::default();
            // Keys past `KEYS / 2` start absent: their first write inserts.
            for k in 0..KEYS / 2 {
                pages.load(key(k), Row::int(k as i64));
                model.load(
                    key(k),
                    Row::int(k as i64),
                    row_fingerprint(&Row::int(k as i64)),
                );
            }
            let mut pinned = None;
            let mut now = 1u64;
            // The model's numbering is the engine's former per-key counter.
            let mut next_version = vec![1u64; KEYS as usize];
            let mut open: Vec<u64> = Vec::new();
            let mut reads = 0;
            for step in 0..STEPS {
                if step == pin_at {
                    pinned = Some(now);
                    pages.store.open_snapshot(now);
                    model.open_snapshot(now);
                }
                // Equal commit timestamps happen: time advances on a third
                // of the steps only, and hot keys repeat.
                now += u64::from(splitmix64(&mut rng).is_multiple_of(3));
                let hot = splitmix64(&mut rng).is_multiple_of(4);
                let k = splitmix64(&mut rng) % if hot { 8 } else { KEYS };
                match splitmix64(&mut rng) % 12 {
                    // Install: an update, insert, re-insert or tombstone.
                    0..=4 => {
                        let tombstone = splitmix64(&mut rng).is_multiple_of(5);
                        let row = (!tombstone).then(|| Row::int(step as i64));
                        let fingerprint =
                            row.as_ref().map_or(TOMBSTONE_FINGERPRINT, row_fingerprint);
                        let version = pages.commit(key(k), now, row.clone());
                        if numbered {
                            assert_eq!(version, next_version[k as usize], "version of {k}");
                        }
                        model.install(key(k), next_version[k as usize], now, row, fingerprint);
                        next_version[k as usize] += 1;
                    }
                    5..=6 => {
                        // Refcounted: reopening a still-open instant is common.
                        let ts = match open.last() {
                            Some(ts) if splitmix64(&mut rng).is_multiple_of(3) => *ts,
                            _ => now,
                        };
                        open.push(ts);
                        pages.store.open_snapshot(ts);
                        model.open_snapshot(ts);
                    }
                    7..=8 if !open.is_empty() => {
                        let ts = open.swap_remove(splitmix64(&mut rng) as usize % open.len());
                        pages.store.close_snapshot(ts);
                        model.close_snapshot(ts);
                    }
                    9..=10 => {
                        // A read at an open snapshot (or now, read-committed).
                        let ts = match open.get(splitmix64(&mut rng) as usize % (open.len() + 1)) {
                            Some(ts) => *ts,
                            None => now,
                        };
                        let expected = model
                            .read_at(key(k), ts)
                            .and_then(|v| Some((v.version, v.row?)));
                        let got = pages.read_at(key(k), ts);
                        if numbered {
                            assert_eq!(got, expected, "read {k}@{ts} at step {step}");
                        } else {
                            let row = |read: Option<(u64, Row)>| read.map(|(_, row)| row);
                            assert_eq!(row(got), row(expected), "read {k}@{ts} at step {step}");
                        }
                        reads += 1;
                    }
                    _ => {
                        pages.store.gc();
                        model.gc();
                    }
                }
                assert_matches_model(&pages, &model, KEYS, step);
            }
            for ts in open.into_iter().chain(pinned) {
                pages.store.close_snapshot(ts);
                model.close_snapshot(ts);
            }
            assert_matches_model(&pages, &model, KEYS, STEPS);
            assert_eq!(pages.store.pending_reclaim(), 0);
            assert!(pages.store.stats().versions_gced > 1_000);
            assert!(reads > 1_000);
        }
    }
}
