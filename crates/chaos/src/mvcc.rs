//! Workloads of the MVCC drills.
//!
//! The `long_readers_*` and `write_skew_*` rows of the preset table
//! ([`crate::PRESETS`]) exercise the storage tier's versioned read path
//! under the same five checkers as the classic drills; these are the
//! workloads they drive.
//!
//! * [`LongReaderOltpWorkload`] — long multi-round read-only scans
//!   (unannotated, so the coordinator commits them via the snapshot-read
//!   fast path when it is on) against an OLTP write stream on disjoint keys.
//!   Under `SnapshotRead` readers acquire **zero** locks: the run's
//!   `storage.lock_wait` histogram stays empty, which the sweep asserts;
//!   under strict 2PL the same scans *do* contend.
//! * [`WriteSkewWorkload`] — a write-skew-prone hot pair for the
//!   deliberately weak isolation modes; the serializability checker must
//!   convict it (the adversarial leg of the checker suite).

use std::cell::Cell;
use std::rc::Rc;

use geotp_datasource::DataSource;
use geotp_middleware::{ClientOp, GlobalKey, Partitioner, TransactionSpec};
use geotp_storage::Row;
use rand::rngs::StdRng;
use rand::Rng;

use crate::workload::{ChaosWorkload, CHAOS_TABLE};

/// Long read-only scans interleaved with an OLTP write stream that never
/// contends with itself.
///
/// Every `reader_every`-th transaction is a *reader*: an unannotated,
/// multi-round, read-only scan of the first `scan_window` rows (all on
/// ds0), holding its snapshot — or, under 2PL, its shared locks — across a
/// client round trip plus think time. Every other transaction is a
/// *writer*: `+1` then `−1` on one key from a monotonically advancing
/// cursor, so concurrent writers always touch distinct keys and the only
/// possible lock contention is reader-vs-writer. Every row therefore stays
/// at its initial balance, which the consistency condition checks.
#[derive(Debug)]
pub struct LongReaderOltpWorkload {
    /// Data sources in the deployment.
    pub nodes: u32,
    /// Rows per data source.
    pub records_per_node: u64,
    /// Initial integer balance of every row.
    pub initial_balance: i64,
    /// Rows 0..scan_window (on ds0) that each reader scans.
    pub scan_window: u64,
    /// Every n-th transaction is a reader.
    pub reader_every: u64,
    txn_counter: Cell<u64>,
    writer_cursor: Cell<u64>,
}

impl LongReaderOltpWorkload {
    /// The drill-scale mix: 3 sources × 64 rows, a 32-row scan window,
    /// every 3rd transaction a reader.
    pub fn drill_scale(nodes: u32) -> Self {
        Self {
            nodes,
            records_per_node: 64,
            initial_balance: 100,
            scan_window: 32,
            reader_every: 3,
            txn_counter: Cell::new(0),
            writer_cursor: Cell::new(0),
        }
    }
}

impl ChaosWorkload for LongReaderOltpWorkload {
    fn name(&self) -> &'static str {
        "long_reader_oltp"
    }

    fn partitioner(&self) -> Partitioner {
        Partitioner::Range {
            rows_per_node: self.records_per_node,
            nodes: self.nodes,
        }
    }

    fn load(&self, sources: &[Rc<DataSource>]) {
        let partitioner = self.partitioner();
        for row in 0..self.records_per_node * self.nodes as u64 {
            let key = GlobalKey::new(CHAOS_TABLE, row);
            let ds = partitioner.route(key) as usize;
            sources[ds].load(key.storage_key(), Row::int(self.initial_balance));
        }
    }

    fn next_spec(&self, _rng: &mut StdRng) -> TransactionSpec {
        let n = self.txn_counter.get();
        self.txn_counter.set(n + 1);
        if n.is_multiple_of(self.reader_every) {
            // A long reader: two statement rounds covering the scan window,
            // unannotated so the coordinator's snapshot-read fast path (when
            // enabled) commits it without prepare or WAL flush.
            let half = self.scan_window / 2;
            let read = |row| ClientOp::Read(GlobalKey::new(CHAOS_TABLE, row));
            TransactionSpec::multi_round(vec![
                (0..half).map(read).collect(),
                (half..self.scan_window).map(read).collect(),
            ])
            .without_annotation()
        } else {
            // A writer on the next cursor key: concurrent writers always
            // hold distinct keys, so writer-writer lock waits are impossible
            // and any lock contention is reader-vs-writer by construction.
            let total = self.records_per_node * self.nodes as u64;
            let key = GlobalKey::new(CHAOS_TABLE, self.writer_cursor.get() % total);
            self.writer_cursor.set(self.writer_cursor.get() + 1);
            TransactionSpec::single_round(vec![ClientOp::add(key, 1), ClientOp::add(key, -1)])
        }
    }

    fn consistency_violations(&self, sources: &[Rc<DataSource>]) -> Vec<String> {
        let mut violations = Vec::new();
        let partitioner = self.partitioner();
        for row in 0..self.records_per_node * self.nodes as u64 {
            let key = GlobalKey::new(CHAOS_TABLE, row);
            let ds = partitioner.route(key) as usize;
            let balance = sources[ds]
                .engine()
                .peek(key.storage_key())
                .and_then(|r| r.int_value());
            if balance != Some(self.initial_balance) {
                violations.push(format!(
                    "long_reader_oltp: row {row} is {balance:?}, expected {} \
                     (every writer nets zero)",
                    self.initial_balance
                ));
            }
        }
        violations
    }
}

/// A write-skew-prone workload: every transaction plain-reads a hot pair of
/// rows and then increments exactly one of them. Two overlapping
/// transactions that write *different* halves of the pair form an
/// rw-antidependency cycle under snapshot or read-committed reads — the
/// textbook anomaly strict 2PL forbids — so the serializability checker
/// must convict runs under the weak isolation modes.
#[derive(Debug)]
pub struct WriteSkewWorkload {
    /// Data sources in the deployment (the hot pair lives on ds0).
    pub nodes: u32,
    /// Rows per data source.
    pub records_per_node: u64,
}

impl WriteSkewWorkload {
    /// Hot pair = rows 0 and 1 on ds0.
    pub fn drill_scale(nodes: u32) -> Self {
        Self {
            nodes,
            records_per_node: 64,
        }
    }
}

impl ChaosWorkload for WriteSkewWorkload {
    fn name(&self) -> &'static str {
        "write_skew"
    }

    fn partitioner(&self) -> Partitioner {
        Partitioner::Range {
            rows_per_node: self.records_per_node,
            nodes: self.nodes,
        }
    }

    fn load(&self, sources: &[Rc<DataSource>]) {
        let partitioner = self.partitioner();
        for row in 0..self.records_per_node * self.nodes as u64 {
            let key = GlobalKey::new(CHAOS_TABLE, row);
            let ds = partitioner.route(key) as usize;
            sources[ds].load(key.storage_key(), Row::int(0));
        }
    }

    fn next_spec(&self, rng: &mut StdRng) -> TransactionSpec {
        let a = GlobalKey::new(CHAOS_TABLE, 0);
        let b = GlobalKey::new(CHAOS_TABLE, 1);
        let target = if rng.gen::<bool>() { a } else { b };
        TransactionSpec::single_round(vec![
            ClientOp::Read(a),
            ClientOp::Read(b),
            ClientOp::add(target, 1),
        ])
    }

    fn consistency_violations(&self, _sources: &[Rc<DataSource>]) -> Vec<String> {
        // Write skew leaves no single-row state violation — that is the
        // point: only the serializability checker's dependency graph sees
        // the anomaly.
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn long_reader_mix_interleaves_unannotated_scans_with_conserving_writes() {
        let workload = LongReaderOltpWorkload::drill_scale(3);
        let mut rng = StdRng::seed_from_u64(1);
        let reader = workload.next_spec(&mut rng);
        assert_eq!(reader.rounds.len(), 2, "readers span two rounds");
        assert!(
            !reader.annotate_last,
            "readers must dodge the fast-path gate"
        );
        assert!(reader.all_ops().all(|op| !op.is_write()));
        assert_eq!(reader.op_count() as u64, workload.scan_window);

        let writer_a = workload.next_spec(&mut rng);
        let writer_b = workload.next_spec(&mut rng);
        for writer in [&writer_a, &writer_b] {
            assert_eq!(writer.keys().len(), 1, "one key per writer");
            let net: i64 = writer
                .all_ops()
                .map(|op| match op {
                    ClientOp::AddInt { delta, .. } => *delta,
                    other => panic!("unexpected op {other:?}"),
                })
                .sum();
            assert_eq!(net, 0, "writers net zero");
        }
        assert_ne!(
            writer_a.keys(),
            writer_b.keys(),
            "consecutive writers advance the cursor"
        );
    }

    #[test]
    fn write_skew_spec_reads_the_pair_and_writes_one_half() {
        let workload = WriteSkewWorkload::drill_scale(3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut targets = std::collections::BTreeSet::new();
        for _ in 0..20 {
            let spec = workload.next_spec(&mut rng);
            assert_eq!(spec.op_count(), 3);
            let reads = spec.all_ops().filter(|op| !op.is_write()).count();
            assert_eq!(reads, 2, "both halves of the pair are read");
            let write = spec.all_ops().find(|op| op.is_write()).unwrap();
            targets.insert(write.key().row);
        }
        assert_eq!(
            targets.into_iter().collect::<Vec<_>>(),
            vec![0, 1],
            "both halves get written across specs"
        );
    }
}
