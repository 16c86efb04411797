//! The engine's record store: rows in 64-slot pages.
//!
//! YCSB and TPC-C keys are dense integers, so a per-row hash map spends most
//! of its memory on buckets and hashes. [`RecordTable`] hashes a *page* —
//! `(table, row >> 6)` — instead; a page keeps a presence bitmap and its rows
//! in slot order, so a slot's row sits at the popcount of the bits below it.
//! A dense page costs one bucket per 64 rows plus the rows themselves. A page
//! holding one row keeps it inline, so the one-row-per-page insert shapes of
//! TPC-C (ORDERS, NEW_ORDER, HISTORY) cost one 56-byte bucket and no
//! allocation.
//!
//! A page's second row spills its rows into a buffer typed by their shape,
//! the column-store layout: bare `i64`s (8 bytes a row) while every row is
//! exactly one `Int` (the YCSB usertable), bare pairs (16 bytes) while every
//! row is two `Int`s (the hot TPC-C tables), and 24-byte [`Row`]s otherwise.
//! A row of another shape widens a typed buffer to `Row`s once; the buffer
//! then stays as it is until the page is dropped. Rows are handed back by
//! value, since a typed buffer has no `Row` to lend, and equal to the rows
//! stored.
//!
//! A buffer doubles from four. The buffer a page outgrows is kept for the
//! next page to grow into (see [`Spares`]), so a sequential load allocates
//! one buffer per page and frees none: growth leaves no freed chunks
//! scattered through the heap it loads.
//!
//! A bulk load of one row under a run of consecutive keys
//! ([`RecordTable::insert_run`]) builds each absent page the run covers
//! wholly in one step when the row is one or two `Int`s: a full bitmap and
//! the 64-row typed buffer the page's 64 inserts would have grown into. It
//! still allocates one buffer per page, but skips the 64 page-map probes
//! and the four growth copies. Every other row of the run — a partial page,
//! a page that already exists, a wider row — goes through
//! [`RecordTable::insert`], so the page map holds the same pages, added in
//! the same order, with the same shapes and capacities as `count` single
//! inserts leave.
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
const PAGE_ROWS: usize = 1 << PAGE_BITS;

/// Up to 64 consecutive rows of one table. Never empty: a page is dropped
/// with its last row.
struct Page {
    /// Bit `s` set iff slot `s` holds a row.
    present: u64,
    /// The present rows, in slot order.
    rows: Rows,
}

/// A page's rows: the first inline, a second spills them all into a buffer
/// (which stays a buffer until the page is dropped).
enum Rows {
    One(Row),
    /// Every row is exactly one `Int`.
    Ints(Vec<i64>),
    /// Every row is two `Int`s.
    Pairs(Vec<[i64; 2]>),
    Many(Vec<Row>),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::One(_) => 1,
            Rows::Ints(ints) => ints.len(),
            Rows::Pairs(pairs) => pairs.len(),
            Rows::Many(rows) => rows.len(),
        }
    }

    /// Row `i`, by value.
    fn get(&self, i: usize) -> Row {
        match self {
            Rows::One(row) => row.clone(),
            Rows::Ints(ints) => Row::int(ints[i]),
            Rows::Pairs(pairs) => {
                let [a, b] = pairs[i];
                Row::pair(a, b)
            }
            Rows::Many(rows) => rows[i].clone(),
        }
    }

    /// Overwrite row `i` with `row`, returning the row it replaced.
    fn replace(&mut self, i: usize, row: Row, spares: &mut Spares) -> Row {
        match self {
            Rows::One(old) => return std::mem::replace(old, row),
            Rows::Ints(ints) => {
                if let Some(v) = row.lone_int() {
                    return Row::int(std::mem::replace(&mut ints[i], v));
                }
            }
            Rows::Pairs(pairs) => {
                if let Some(pair) = row.int_pair() {
                    let [a, b] = std::mem::replace(&mut pairs[i], pair);
                    return Row::pair(a, b);
                }
            }
            Rows::Many(rows) => return std::mem::replace(&mut rows[i], row),
        }
        std::mem::replace(&mut self.widen(spares)[i], row)
    }

    /// Put `row` at position `i`, spilling a one-row page into a buffer.
    fn insert(&mut self, i: usize, row: Row, spares: &mut Spares) {
        if let Rows::One(first) = self {
            *self = Rows::spill(std::mem::take(first), &row, spares);
        }
        match self {
            Rows::Ints(ints) => {
                if let Some(v) = row.lone_int() {
                    return insert_growing(ints, i, v, &mut spares.ints);
                }
            }
            Rows::Pairs(pairs) => {
                if let Some(pair) = row.int_pair() {
                    return insert_growing(pairs, i, pair, &mut spares.pairs);
                }
            }
            Rows::One(_) | Rows::Many(_) => {}
        }
        insert_growing(self.widen(spares), i, row, &mut spares.rows);
    }

    /// The buffer a one-row page's `first` row moves into when `next`
    /// joins it: typed if the two rows share a typed shape.
    fn spill(first: Row, next: &Row, spares: &mut Spares) -> Rows {
        if let (Some(v), Some(_)) = (first.lone_int(), next.lone_int()) {
            Rows::Ints(spares.ints.first(v))
        } else if let (Some(pair), Some(_)) = (first.int_pair(), next.int_pair()) {
            Rows::Pairs(spares.pairs.first(pair))
        } else {
            Rows::Many(spares.rows.first(first))
        }
    }

    /// The rows as `Row`s, re-storing a typed buffer's in a `Row` buffer of
    /// the same capacity and keeping the typed one as a spare.
    fn widen(&mut self, spares: &mut Spares) -> &mut Vec<Row> {
        match self {
            Rows::Ints(ints) => {
                let mut rows = spares.rows.take(ints.capacity());
                rows.extend(ints.drain(..).map(Row::int));
                spares.ints.give(std::mem::take(ints));
                *self = Rows::Many(rows);
            }
            Rows::Pairs(pairs) => {
                let mut rows = spares.rows.take(pairs.capacity());
                rows.extend(pairs.drain(..).map(|[a, b]| Row::pair(a, b)));
                spares.pairs.give(std::mem::take(pairs));
                *self = Rows::Many(rows);
            }
            Rows::One(_) | Rows::Many(_) => {}
        }
        match self {
            Rows::Many(rows) => rows,
            _ => unreachable!("a one-row page is never widened"),
        }
    }

    /// Remove and return row `i`. The last row of a page leaves an empty
    /// buffer behind (or an empty `One`), for [`Rows::recycle`].
    fn remove(&mut self, i: usize) -> Row {
        match self {
            Rows::One(row) => std::mem::take(row),
            Rows::Ints(ints) => Row::int(ints.remove(i)),
            Rows::Pairs(pairs) => {
                let [a, b] = pairs.remove(i);
                Row::pair(a, b)
            }
            Rows::Many(rows) => rows.remove(i),
        }
    }

    /// Keep a dropped page's emptied buffer as a spare.
    fn recycle(self, spares: &mut Spares) {
        match self {
            Rows::One(_) => {}
            Rows::Ints(ints) => spares.ints.give(ints),
            Rows::Pairs(pairs) => spares.pairs.give(pairs),
            Rows::Many(rows) => spares.rows.give(rows),
        }
    }
}

/// Insert `item` at `i`; a full buffer first moves into one twice its size
/// and is kept as a spare.
fn insert_growing<T>(items: &mut Vec<T>, i: usize, item: T, spares: &mut SpareBuffers<T>) {
    if items.len() == items.capacity() {
        let mut grown = spares.take(2 * items.capacity());
        grown.append(items);
        spares.give(std::mem::replace(items, grown));
    }
    items.insert(i, item);
}

/// The spare buffers of each element type a page stores.
#[derive(Default)]
struct Spares {
    ints: SpareBuffers<i64>,
    pairs: SpareBuffers<[i64; 2]>,
    rows: SpareBuffers<Row>,
}

/// Empty buffers of capacity 4, 8, 16, 32 and 64, at most one of each.
#[derive(Default)]
struct SpareBuffers<T>([Vec<T>; 5]);

impl<T> SpareBuffers<T> {
    /// Capacity of a page's first buffer.
    const MIN: usize = 4;

    fn class(capacity: usize) -> Option<usize> {
        (capacity.is_power_of_two() && (Self::MIN..=PAGE_ROWS).contains(&capacity))
            .then(|| (capacity / Self::MIN).trailing_zeros() as usize)
    }

    /// An empty buffer for `capacity` items: the spare one, or a new one.
    fn take(&mut self, capacity: usize) -> Vec<T> {
        match Self::class(capacity) {
            Some(c) if self.0[c].capacity() == capacity => std::mem::take(&mut self.0[c]),
            _ => Vec::with_capacity(capacity),
        }
    }

    /// A page's first buffer, holding `first`.
    fn first(&mut self, first: T) -> Vec<T> {
        let mut items = self.take(Self::MIN);
        items.push(first);
        items
    }

    /// A full page's buffer: `item` in every slot.
    fn full(&mut self, item: T) -> Vec<T>
    where
        T: Clone,
    {
        let mut items = self.take(PAGE_ROWS);
        items.resize(PAGE_ROWS, item);
        items
    }

    /// Keep an emptied buffer if its class has no spare yet.
    fn give(&mut self, items: Vec<T>) {
        debug_assert!(items.is_empty());
        if let Some(c) = Self::class(items.capacity()) {
            if self.0[c].capacity() == 0 {
                self.0[c] = items;
            }
        }
    }
}

impl Page {
    /// Position in `rows` of the slot whose bit is `bit` (present or not).
    fn index(&self, bit: u64) -> usize {
        (self.present & (bit - 1)).count_ones() as usize
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

    /// The row stored under `key`, by value.
    pub(crate) fn get(&self, key: &Key) -> Option<Row> {
        let (page, bit) = locate(key);
        let page = self.pages.get(&page)?;
        (page.present & bit != 0).then(|| page.rows.get(page.index(bit)))
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
        let i = page.index(bit);
        if page.present & bit != 0 {
            return Some(page.rows.replace(i, row, &mut self.spares));
        }
        self.len += 1;
        page.rows.insert(i, row, &mut self.spares);
        page.present |= bit;
        None
    }

    /// Store `row` under the `count` keys of `first`'s table from `first`
    /// on, as `count` [`RecordTable::insert`]s in key order would: the page
    /// map gets the same pages in the same order, each of the same shape and
    /// capacity. A one- or two-`Int` row fills an absent page the run covers
    /// wholly in one step; every other row goes through `insert`. The run
    /// must not pass `u64::MAX`.
    pub(crate) fn insert_run(&mut self, first: Key, count: u64, row: &Row) {
        debug_assert!(count == 0 || first.row.checked_add(count - 1).is_some());
        let page_rows = PAGE_ROWS as u64;
        let typed = row.lone_int().is_some() || row.int_pair().is_some();
        let (mut at, mut left) = (first.row, count);
        while left > 0 {
            let whole = typed && at % page_rows == 0 && left >= page_rows;
            if whole && self.fill_absent_page((first.table, at >> PAGE_BITS), row) {
                (at, left) = (at.wrapping_add(page_rows), left - page_rows);
            } else {
                self.insert(Key::new(first.table, at), row.clone());
                (at, left) = (at.wrapping_add(1), left - 1);
            }
        }
    }

    /// Build page `page` with a one- or two-`Int` `row` in every slot, if the
    /// page is absent: the 64-row buffer that 64 inserts grow it into, taken
    /// from the spares the same way.
    fn fill_absent_page(&mut self, page: (TableId, u64), row: &Row) -> bool {
        let Entry::Vacant(vacant) = self.pages.entry(page) else {
            return false;
        };
        let rows = match (row.lone_int(), row.int_pair()) {
            (Some(v), _) => Rows::Ints(self.spares.ints.full(v)),
            (_, Some(pair)) => Rows::Pairs(self.spares.pairs.full(pair)),
            _ => unreachable!("only a one- or two-`Int` row fills a page"),
        };
        vacant.insert(Page {
            present: u64::MAX,
            rows,
        });
        self.len += PAGE_ROWS;
        true
    }

    /// Remove and return the row stored under `key`.
    pub(crate) fn remove(&mut self, key: &Key) -> Option<Row> {
        let (page_key, bit) = locate(key);
        let page = self.pages.get_mut(&page_key)?;
        if page.present & bit == 0 {
            return None;
        }
        self.len -= 1;
        let row = page.rows.remove(page.index(bit));
        page.present &= !bit;
        if page.present == 0 {
            if let Some(page) = self.pages.remove(&page_key) {
                page.rows.recycle(&mut self.spares);
            }
        }
        Some(row)
    }

    /// Every stored row with its key, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Key, Row)> + '_ {
        self.pages.iter().flat_map(|(&(table, page), p)| {
            let mut bits = p.present;
            (0..p.rows.len()).map(move |i| {
                let slot = u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                (Key::new(table, (page << PAGE_BITS) | slot), p.rows.get(i))
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
            let expected = self.model.get(&key).cloned();
            assert_eq!(self.table.get(&key), expected, "get {key}");
            self.check();
        }

        /// The variant of `key`'s page's rows, if the page exists.
        fn shape(&self, key: Key) -> Option<&'static str> {
            let page = self.table.pages.get(&locate(&key).0)?;
            Some(shape_and_capacity(&page.rows).0)
        }

        fn check(&mut self) {
            self.ops += 1;
            let ops = self.ops;
            assert_eq!(self.table.len(), self.model.len(), "len after op {ops}");
            let mut rows: Vec<(Key, Row)> = self.table.iter().collect();
            rows.sort_by_key(|(k, _)| *k);
            let mut expected: Vec<(Key, Row)> =
                self.model.iter().map(|(k, r)| (*k, r.clone())).collect();
            expected.sort_by_key(|(k, _)| *k);
            assert_eq!(rows, expected, "iter after op {ops}");
            // No empty page outlives its last row, and every page's rows
            // match its bitmap.
            let mut pages: Vec<_> = self.model.keys().map(|k| locate(k).0).collect();
            pages.sort();
            pages.dedup();
            assert_eq!(self.table.pages.len(), pages.len(), "pages after op {ops}");
            let spares = &self.table.spares;
            assert_spares_are_empty_and_classed(&spares.ints);
            assert_spares_are_empty_and_classed(&spares.pairs);
            assert_spares_are_empty_and_classed(&spares.rows);
            for page in self.table.pages.values() {
                assert_eq!(page.rows.len(), page.present.count_ones() as usize);
            }
        }
    }

    /// The variant of a page's rows and its buffer's capacity.
    fn shape_and_capacity(rows: &Rows) -> (&'static str, usize) {
        match rows {
            Rows::One(_) => ("One", 1),
            Rows::Ints(ints) => ("Ints", ints.capacity()),
            Rows::Pairs(pairs) => ("Pairs", pairs.capacity()),
            Rows::Many(rows) => ("Many", rows.capacity()),
        }
    }

    fn assert_spares_are_empty_and_classed<T>(spares: &SpareBuffers<T>) {
        for (c, spare) in spares.0.iter().enumerate() {
            assert!(spare.is_empty());
            assert!([0, SpareBuffers::<T>::MIN << c].contains(&spare.capacity()));
        }
    }

    /// A row of shape `shape % 4` — one `Int`, a two-`Int` pair, an `Int`
    /// and a `Str`, or one `Float` — built from `n`.
    fn row_for(shape: u64, n: u64) -> Row {
        let v = n as i64;
        match shape % 4 {
            0 => Row::int(v),
            1 => Row::pair(v, -v),
            2 => Row::from_values(vec![Value::Int(v), Value::Str(format!("r{n}"))]),
            _ => Row::from_values(vec![Value::Float(n as f64)]),
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
        // A dense run of pairs.
        keys.extend((1_000..1_130).map(|r| Key::new(t(2), r)));
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
            d.insert(Key::new(t(2), r), row_for(r, r));
        }
        d.remove(Key::new(t(2), 0));
        d.remove(Key::new(t(2), 63));
        d.get(Key::new(t(2), 63));
        d.insert(Key::new(t(2), 63), row_for(2, 7));
        d.insert(Key::new(t(2), 63), row_for(0, 8));
        d.insert(Key::new(t(2), 0), row_for(0, 9));
        d.remove(Key::new(t(2), 64));
        d.insert(Key::new(t(3), 450), row_for(0, 1));
        d.get(Key::new(t(4), 450));
        d.remove(Key::new(t(4), 450));
        d.insert(Key::new(t(u16::MAX), u64::MAX), row_for(2, 2));
        d.get(Key::new(t(u16::MAX), u64::MAX));

        // Scripted: one slot of a two-row page goes int -> pair -> wide ->
        // int. The pair widens the page, which then stays wide; a lone row
        // changes shape inline.
        let (a, b, lone) = (Key::new(t(5), 0), Key::new(t(5), 1), Key::new(t(5), 64));
        d.insert(a, row_for(0, 1));
        d.insert(b, row_for(0, 2));
        d.insert(lone, row_for(0, 3));
        assert_eq!(d.shape(a), Some("Ints"));
        for shape in [1, 2, 0] {
            d.insert(b, row_for(shape, 4));
            d.insert(lone, row_for(shape, 5));
            assert_eq!((d.shape(a), d.shape(lone)), (Some("Many"), Some("One")));
        }
        // A lone row spills into a typed buffer only if the next row shares
        // its typed shape: a `Float` is not an `Int`.
        for (first, next, spilled) in [
            (0, 0, "Ints"),
            (1, 1, "Pairs"),
            (0, 1, "Many"),
            (1, 0, "Many"),
            (3, 0, "Many"),
            (0, 3, "Many"),
            (2, 2, "Many"),
        ] {
            let (x, y) = (Key::new(t(6), 0), Key::new(t(6), 9));
            d.insert(x, row_for(first, 10));
            d.insert(y, row_for(next, 11));
            assert_eq!(d.shape(x), Some(spilled), "{first} then {next}");
            d.remove(y);
            d.remove(x);
        }
        // An `Ints` page grows through three buffers, takes one wide row, is
        // emptied and is refilled: typed again. A `Pairs` page likewise.
        for (shape, typed) in [(0, "Ints"), (1, "Pairs")] {
            let page: Vec<Key> = (128..148).map(|r| Key::new(t(5), r)).collect();
            for (n, &k) in page.iter().enumerate() {
                d.insert(k, row_for(shape, n as u64));
            }
            assert_eq!(d.shape(page[0]), Some(typed));
            d.insert(page[5], row_for(2, 5));
            assert_eq!(d.shape(page[0]), Some("Many"));
            d.get(page[5]);
            d.get(page[6]);
            for &k in page.iter().rev() {
                d.remove(k);
            }
            assert_eq!(d.shape(page[0]), None);
            for (n, &k) in page.iter().enumerate() {
                d.insert(k, row_for(shape, n as u64));
            }
            assert_eq!(d.shape(page[0]), Some(typed));
            for &k in &page {
                d.remove(k);
            }
        }

        for seed in 1..=3u64 {
            let mut rng = seed;
            for step in 0..4_000u64 {
                let key = keys[(splitmix64(&mut rng) % keys.len() as u64) as usize];
                // Each table has a home shape (table 1 integers, table 2
                // pairs), so typed pages form; one row in eight widens.
                let shape = match splitmix64(&mut rng) {
                    r if r.is_multiple_of(8) => r >> 3,
                    _ => u64::from(key.table.0) + 3,
                };
                match splitmix64(&mut rng) % 10 {
                    0..=4 => d.insert(key, row_for(shape, step)),
                    5..=6 => d.remove(key),
                    _ => d.get(key),
                }
            }
        }
        assert!(d.model.len() > 50, "the run kept a populated table");
    }

    /// Two tables holding `before`: one takes `row` under `count` keys from
    /// `first` as one run, the other as `count` inserts in key order. Both
    /// hold the same rows, and the same pages in the same iteration order,
    /// each with the same shape, bitmap and capacity.
    fn assert_run_equals_inserts(before: &[(Key, Row)], first: Key, count: u64, row: &Row) {
        let run_keys = (0..count).map(|i| Key::new(first.table, first.row + i));
        let build = |run: bool| {
            let mut table = RecordTable::default();
            for (key, row) in before {
                table.insert(*key, row.clone());
            }
            if run {
                table.insert_run(first, count, row);
            } else {
                for key in run_keys.clone() {
                    table.insert(key, row.clone());
                }
            }
            table
        };
        let (run, inserts) = (build(true), build(false));
        let case = format!("{count} rows from {first} over {} rows", before.len());
        assert_eq!(run.len(), inserts.len(), "len, {case}");
        let edges = [first.row.wrapping_sub(1), first.row.wrapping_add(count)];
        let probes = before
            .iter()
            .map(|(key, _)| *key)
            .chain(run_keys)
            .chain(edges.map(|r| Key::new(first.table, r)));
        for key in probes {
            assert_eq!(run.get(&key), inserts.get(&key), "get {key}, {case}");
        }
        let rows = |t: &RecordTable| t.iter().collect::<Vec<_>>();
        assert_eq!(rows(&run), rows(&inserts), "iter, {case}");
        let layout = |t: &RecordTable| {
            t.pages
                .iter()
                .map(|(&page, p)| (page, p.present, shape_and_capacity(&p.rows)))
                .collect::<Vec<_>>()
        };
        assert_eq!(layout(&run), layout(&inserts), "pages, {case}");
    }

    #[test]
    fn a_run_load_equals_its_single_inserts() {
        let at = |row| Key::new(TableId(1), row);
        // (first, count): aligned, unaligned at either end or both, inside
        // one page, one row, none, and the top of the key space.
        let runs = [
            (0, 640),
            (0, 130),
            (5, 200),
            (30, 20),
            (64, 63),
            (7, 1),
            (128, 0),
            (u64::MAX - 191, 192),
        ];
        for shape in 0..4 {
            let row = row_for(shape, 77);
            // Nothing stored; rows of every shape in pages a run covers
            // wholly, partly or not at all, one of them in the run's own
            // slot; and the same page numbers of another table.
            let stored: Vec<(Key, Row)> = [0, 65, 128, 129, 200, 640, u64::MAX - 64]
                .iter()
                .enumerate()
                .map(|(n, &r)| (at(r), row_for(n as u64, n as u64)))
                .chain([(Key::new(TableId(2), 64), row_for(shape, 1))])
                .collect();
            for before in [&[][..], &stored] {
                for (first, count) in runs {
                    assert_run_equals_inserts(before, at(first), count, &row);
                }
            }
        }
    }

    fn capacities<T>(spares: &SpareBuffers<T>) -> [usize; 5] {
        spares.0.each_ref().map(Vec::capacity)
    }

    /// Fill a page with copies of `row`, spill the next one, then drop the
    /// first: the buffers each outgrows go to the spares `own` picks, and no
    /// other element type's spares are touched.
    fn outgrown_buffers_go_to<T>(row: Row, own: fn(&Spares) -> &SpareBuffers<T>) {
        let mut table = RecordTable::default();
        let spares = |table: &RecordTable| {
            let s = &table.spares;
            let kept = [
                capacities(&s.ints),
                capacities(&s.pairs),
                capacities(&s.rows),
            ];
            let own = capacities(own(s));
            let total = |c: &[usize]| c.iter().sum::<usize>();
            assert_eq!(total(kept.as_flattened()), total(&own), "{kept:?}");
            own
        };
        for n in 0..64 {
            table.insert(Key::new(TableId(0), n), row.clone());
        }
        assert_eq!(spares(&table), [4, 8, 16, 32, 0]);
        // The next page spills into the spare 4, grows into the spare 8 and
        // leaves its 4 behind.
        for n in 64..69 {
            table.insert(Key::new(TableId(0), n), row.clone());
        }
        assert_eq!(spares(&table), [4, 0, 16, 32, 0]);
        // A page dropped with its last row keeps its buffer too.
        for n in 0..64 {
            table.remove(&Key::new(TableId(0), n));
        }
        assert_eq!(spares(&table), [4, 0, 16, 32, 64]);
    }

    #[test]
    fn outgrown_buffers_are_grown_into_by_the_next_page() {
        outgrown_buffers_go_to(Row::int(0), |s| &s.ints);
    }

    #[test]
    fn outgrown_pair_buffers_are_grown_into_by_the_next_page() {
        outgrown_buffers_go_to(Row::pair(0, 0), |s| &s.pairs);
    }
}
