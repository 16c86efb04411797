//! The engine's record store: rows in 64-slot pages.
//!
//! YCSB and TPC-C keys are dense integers, so a per-row hash map spends most
//! of its memory on buckets and hashes. [`RecordTable`] hashes a *page* —
//! `(table, row >> 6)` — instead; a page keeps a presence bitmap and its rows
//! in slot order, so a slot's row sits at the popcount of the bits below it.
//! A dense page costs one bucket per 64 rows plus the rows themselves (24
//! bytes each, see [`Row`]). A page holding one row keeps it inline, so the
//! one-row-per-page insert shapes of TPC-C (ORDERS, NEW_ORDER, HISTORY) cost
//! one 56-byte bucket and no allocation.
//!
//! A page's second row spills its rows into a `Vec` that doubles from four.
//! The buffer a page outgrows is kept for the next page to grow into (see
//! [`Spares`]), so a sequential load allocates one buffer per page and frees
//! none: growth leaves no freed chunks scattered through the heap it loads.
//!
//! Iteration order is the hash map's and carries no meaning: callers that
//! need an order sort (as [`StorageEngine::snapshot_table`] does).
//!
//! [`StorageEngine::snapshot_table`]: crate::engine::StorageEngine::snapshot_table

use std::collections::hash_map::Entry;

use geotp_simrt::hash::FxHashMap;

use crate::row::Row;
use crate::types::{Key, TableId};

/// Rows per page: one bit each in [`Page::present`].
const PAGE_BITS: u32 = 6;

/// Up to 64 consecutive rows of one table. Never empty: a page is dropped
/// with its last row.
struct Page {
    /// Bit `s` set iff slot `s` holds a row.
    present: u64,
    /// The present rows, in slot order.
    rows: Rows,
}

/// A page's rows: the first inline, a second spills them all into a `Vec`
/// (which stays a `Vec` until the page is dropped).
enum Rows {
    One(Row),
    Many(Vec<Row>),
}

impl Rows {
    fn as_slice(&self) -> &[Row] {
        match self {
            Rows::One(row) => std::slice::from_ref(row),
            Rows::Many(rows) => rows,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Row] {
        match self {
            Rows::One(row) => std::slice::from_mut(row),
            Rows::Many(rows) => rows,
        }
    }
}

/// Empty row buffers of capacity 4, 8, 16, 32 and 64, at most one of each.
#[derive(Default)]
struct Spares([Vec<Row>; 5]);

impl Spares {
    /// Capacity of a page's first buffer.
    const MIN: usize = 4;

    fn class(capacity: usize) -> Option<usize> {
        (capacity.is_power_of_two() && (Self::MIN..=1 << PAGE_BITS).contains(&capacity))
            .then(|| (capacity / Self::MIN).trailing_zeros() as usize)
    }

    /// An empty buffer for `capacity` rows: the spare one, or a new one.
    fn take(&mut self, capacity: usize) -> Vec<Row> {
        match Self::class(capacity) {
            Some(c) if self.0[c].capacity() == capacity => std::mem::take(&mut self.0[c]),
            _ => Vec::with_capacity(capacity),
        }
    }

    /// Keep an emptied buffer if its class has no spare yet.
    fn give(&mut self, rows: Vec<Row>) {
        debug_assert!(rows.is_empty());
        if let Some(c) = Self::class(rows.capacity()) {
            if self.0[c].capacity() == 0 {
                self.0[c] = rows;
            }
        }
    }
}

impl Page {
    /// Position in `rows` of the slot whose bit is `bit` (present or not).
    fn index(&self, bit: u64) -> usize {
        (self.present & (bit - 1)).count_ones() as usize
    }

    /// Put `row` in the empty slot whose bit is `bit`.
    fn fill(&mut self, bit: u64, row: Row, spares: &mut Spares) {
        let i = self.index(bit);
        let mut rows = match std::mem::replace(&mut self.rows, Rows::Many(Vec::new())) {
            Rows::One(first) => {
                let mut rows = spares.take(Spares::MIN);
                rows.push(first);
                rows
            }
            Rows::Many(mut full) if full.len() == full.capacity() => {
                let mut rows = spares.take(2 * full.capacity());
                rows.append(&mut full);
                spares.give(full);
                rows
            }
            Rows::Many(rows) => rows,
        };
        rows.insert(i, row);
        self.rows = Rows::Many(rows);
        self.present |= bit;
    }
}

/// The page a key lives in, and its slot's bit within that page.
fn locate(key: &Key) -> ((TableId, u64), u64) {
    let slot = key.row & ((1 << PAGE_BITS) - 1);
    ((key.table, key.row >> PAGE_BITS), 1 << slot)
}

/// Every stored row of one engine, keyed by [`Key`].
#[derive(Default)]
pub(crate) struct RecordTable {
    pages: FxHashMap<(TableId, u64), Page>,
    /// Rows stored, across all pages.
    len: usize,
    spares: Spares,
}

impl RecordTable {
    /// Number of rows stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The row stored under `key`.
    pub(crate) fn get(&self, key: &Key) -> Option<&Row> {
        let (page, bit) = locate(key);
        let page = self.pages.get(&page)?;
        (page.present & bit != 0).then(|| &page.rows.as_slice()[page.index(bit)])
    }

    /// Store `row` under `key`, returning the row it replaced.
    pub(crate) fn insert(&mut self, key: Key, row: Row) -> Option<Row> {
        let (page_key, bit) = locate(&key);
        let page = match self.pages.entry(page_key) {
            Entry::Vacant(vacant) => {
                self.len += 1;
                vacant.insert(Page {
                    present: bit,
                    rows: Rows::One(row),
                });
                return None;
            }
            Entry::Occupied(occupied) => occupied.into_mut(),
        };
        if page.present & bit != 0 {
            let i = page.index(bit);
            return Some(std::mem::replace(&mut page.rows.as_mut_slice()[i], row));
        }
        self.len += 1;
        page.fill(bit, row, &mut self.spares);
        None
    }

    /// Remove and return the row stored under `key`.
    pub(crate) fn remove(&mut self, key: &Key) -> Option<Row> {
        let (page_key, bit) = locate(key);
        let page = self.pages.get_mut(&page_key)?;
        if page.present & bit == 0 {
            return None;
        }
        self.len -= 1;
        let i = page.index(bit);
        page.present &= !bit;
        if page.present != 0 {
            let Rows::Many(rows) = &mut page.rows else {
                unreachable!("a page holding two rows keeps them in a Vec");
            };
            return Some(rows.remove(i));
        }
        match self.pages.remove(&page_key)?.rows {
            Rows::One(row) => Some(row),
            Rows::Many(mut rows) => {
                let row = rows.pop();
                self.spares.give(rows);
                row
            }
        }
    }

    /// Every stored row with its key, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Key, &Row)> {
        self.pages.iter().flat_map(|(&(table, page), p)| {
            let mut bits = p.present;
            p.rows.as_slice().iter().map(move |row| {
                let slot = u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                (Key::new(table, (page << PAGE_BITS) | slot), row)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Value;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The table beside the per-row hash map it replaced, compared after
    /// every operation.
    #[derive(Default)]
    struct Differential {
        table: RecordTable,
        model: FxHashMap<Key, Row>,
        ops: usize,
    }

    impl Differential {
        fn insert(&mut self, key: Key, row: Row) {
            let got = self.table.insert(key, row.clone());
            assert_eq!(got, self.model.insert(key, row), "insert {key}");
            self.check();
        }

        fn remove(&mut self, key: Key) {
            let got = self.table.remove(&key);
            assert_eq!(got, self.model.remove(&key), "remove {key}");
            self.check();
        }

        fn get(&mut self, key: Key) {
            assert_eq!(self.table.get(&key), self.model.get(&key), "get {key}");
            self.check();
        }

        fn check(&mut self) {
            self.ops += 1;
            let ops = self.ops;
            assert_eq!(self.table.len(), self.model.len(), "len after op {ops}");
            let mut rows: Vec<(Key, &Row)> = self.table.iter().collect();
            rows.sort_by_key(|(k, _)| *k);
            let mut expected: Vec<(Key, &Row)> = self.model.iter().map(|(k, r)| (*k, r)).collect();
            expected.sort_by_key(|(k, _)| *k);
            assert_eq!(rows, expected, "iter after op {ops}");
            // No empty page outlives its last row, and every page's rows
            // match its bitmap.
            let mut pages: Vec<_> = self.model.keys().map(|k| locate(k).0).collect();
            pages.sort();
            pages.dedup();
            assert_eq!(self.table.pages.len(), pages.len(), "pages after op {ops}");
            for (c, spare) in self.table.spares.0.iter().enumerate() {
                assert!(spare.is_empty());
                assert!([0, Spares::MIN << c].contains(&spare.capacity()));
            }
            for page in self.table.pages.values() {
                assert_eq!(
                    page.rows.as_slice().len(),
                    page.present.count_ones() as usize
                );
            }
        }
    }

    fn row_for(n: u64) -> Row {
        if n.is_multiple_of(3) {
            Row::from_values(vec![Value::Int(n as i64), Value::Str(format!("r{n}"))])
        } else {
            Row::int(n as i64)
        }
    }

    #[test]
    fn table_matches_a_per_row_hash_map() {
        let t = |id| TableId(id);
        let mut keys: Vec<Key> = Vec::new();
        // A dense run spanning pages, and stride-640 rows one to a page.
        keys.extend((0..200).map(|r| Key::new(t(1), r)));
        keys.extend((0..32).map(|i| Key::new(t(1), 100_000 + i * 640)));
        // Page edges: slots 0 and 63 of one page, slot 0 of the next.
        keys.extend([0, 63, 64, 127, 128].map(|r| Key::new(t(2), r)));
        // Two tables sharing a page number.
        keys.extend([449, 450, 451].map(|r| Key::new(t(3), r)));
        keys.extend([449, 450, 451].map(|r| Key::new(t(4), r)));
        // Rows at the top of the key space.
        keys.extend(
            [u64::MAX, u64::MAX - 1, u64::MAX - 63, u64::MAX - 64].map(|r| Key::new(t(1), r)),
        );
        keys.push(Key::new(t(u16::MAX), u64::MAX));

        let mut d = Differential::default();
        // Scripted: fill both edge pages, empty the first, refill it.
        for r in [0, 63, 64] {
            d.insert(Key::new(t(2), r), row_for(r));
        }
        d.remove(Key::new(t(2), 0));
        d.remove(Key::new(t(2), 63));
        d.get(Key::new(t(2), 63));
        d.insert(Key::new(t(2), 63), row_for(7));
        d.insert(Key::new(t(2), 63), row_for(8));
        d.insert(Key::new(t(2), 0), row_for(9));
        d.remove(Key::new(t(2), 64));
        d.insert(Key::new(t(3), 450), row_for(1));
        d.get(Key::new(t(4), 450));
        d.remove(Key::new(t(4), 450));
        d.insert(Key::new(t(u16::MAX), u64::MAX), row_for(2));
        d.get(Key::new(t(u16::MAX), u64::MAX));

        for seed in 1..=3u64 {
            let mut rng = seed;
            for step in 0..4_000u64 {
                let key = keys[(splitmix64(&mut rng) % keys.len() as u64) as usize];
                match splitmix64(&mut rng) % 10 {
                    0..=4 => d.insert(key, row_for(step)),
                    5..=6 => d.remove(key),
                    _ => d.get(key),
                }
            }
        }
        assert!(d.model.len() > 50, "the run kept a populated table");
    }

    #[test]
    fn outgrown_buffers_are_grown_into_by_the_next_page() {
        let mut table = RecordTable::default();
        let spares = |table: &RecordTable| table.spares.0.each_ref().map(Vec::capacity);
        for row in 0..64 {
            table.insert(Key::new(TableId(0), row), Row::int(0));
        }
        assert_eq!(spares(&table), [4, 8, 16, 32, 0]);
        // The next page spills into the spare 4, grows into the spare 8 and
        // leaves its 4 behind.
        for row in 64..69 {
            table.insert(Key::new(TableId(0), row), Row::int(0));
        }
        assert_eq!(spares(&table), [4, 0, 16, 32, 0]);
        // A page dropped with its last row keeps its buffer too.
        for row in 0..64 {
            table.remove(&Key::new(TableId(0), row));
        }
        assert_eq!(spares(&table), [4, 0, 16, 32, 64]);
    }
}
