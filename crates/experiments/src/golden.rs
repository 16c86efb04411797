//! Stored reference tables ("golden files") for deterministic experiments.
//!
//! Every experiment in this workspace runs on the deterministic simulated
//! runtime — same build, same config ⇒ byte-identical result tables. That
//! makes *result drift* (not just perf drift) mechanically checkable: the
//! rendered tables are committed under `tests/golden/` and
//! `verify` diffs a fresh run against them. CI fails on any mismatch
//! instead of waiting for a human to eyeball the nightly artifacts (the
//! ROADMAP's "stored reference tables" item).
//!
//! Workflow when a change *intentionally* shifts results (new scheduler
//! decision, protocol fix, workload change):
//!
//! ```text
//! GEOTP_BLESS=1 cargo test --release -p geotp-experiments golden   # quick scale
//! GEOTP_BLESS=1 GEOTP_FULL=1 cargo test --release -p geotp-experiments golden
//! git add tests/golden/ && git commit                              # review the diff!
//! ```
//!
//! The diff in review *is* the drift report: a reviewer sees exactly which
//! scenario/seed cells moved.

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;
    use std::path::PathBuf;

    use crate::failure_drills::failure_drills;
    use crate::report::Table;
    use crate::scale::Scale;

    /// Where the golden files live: `<repo root>/tests/golden/`.
    fn golden_dir() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
    }

    /// Render a table set exactly as committed to the golden file.
    fn render(tables: &[Table]) -> String {
        let mut out = String::new();
        for table in tables {
            let _ = write!(out, "{table}");
        }
        out
    }

    /// Compare `tables` against the committed golden file `<name>.txt`.
    ///
    /// With `GEOTP_BLESS=1` the file is (re)written instead and the check
    /// passes — that is the only sanctioned way to move a golden table, so the
    /// change lands as a reviewable diff. Errors carry the first differing line
    /// and the bless instructions.
    fn verify(name: &str, tables: &[Table]) -> Result<(), String> {
        verify_raw(&format!("{name}.txt"), &render(tables))
    }

    /// Compare raw artifact bytes (a CSV, a rendered table set) against the
    /// committed golden file `<filename>` (extension included). Same bless
    /// protocol as [`verify`].
    fn verify_raw(filename: &str, actual: &str) -> Result<(), String> {
        let path = golden_dir().join(filename);
        if std::env::var("GEOTP_BLESS")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            std::fs::create_dir_all(golden_dir())
                .map_err(|e| format!("golden: create {}: {e}", golden_dir().display()))?;
            std::fs::write(&path, actual)
                .map_err(|e| format!("golden: write {}: {e}", path.display()))?;
            return Ok(());
        }
        let expected = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "golden: missing reference {path:?} ({e}); record it with \
                 GEOTP_BLESS=1 and commit the file",
            )
        })?;
        diff(filename, &expected, actual)
    }

    /// Line-level comparison with a drift report naming the first divergence.
    fn diff(name: &str, expected: &str, actual: &str) -> Result<(), String> {
        if expected == actual {
            return Ok(());
        }
        let mut report = format!("golden: `{name}` drifted from tests/golden/{name}\n");
        let expected_lines: Vec<&str> = expected.lines().collect();
        let actual_lines: Vec<&str> = actual.lines().collect();
        let mut shown = 0;
        for i in 0..expected_lines.len().max(actual_lines.len()) {
            let e = expected_lines.get(i).copied().unwrap_or("<missing>");
            let a = actual_lines.get(i).copied().unwrap_or("<missing>");
            if e != a {
                let _ = write!(
                    report,
                    "  line {}:\n    golden: {e}\n    actual: {a}\n",
                    i + 1
                );
                shown += 1;
                if shown >= 5 {
                    let _ = writeln!(report, "  ... (further differences elided)");
                    break;
                }
            }
        }
        let _ = write!(
            report,
            "If this drift is intentional, re-record with GEOTP_BLESS=1 and commit the diff."
        );
        Err(report)
    }

    /// The CI drift gate: the failure-drill tables must match the committed
    /// golden file for the active scale. `GEOTP_FULL=1` checks the 32-seed
    /// sweep against its own reference (the nightly job does exactly that);
    /// the default checks the quick tables on every push.
    #[test]
    fn golden_failure_drills() {
        let scale = Scale::from_env();
        let name = match scale {
            Scale::Quick => "failure_drills_quick",
            Scale::Full => "failure_drills_full",
        };
        let tables = failure_drills(scale);
        // One sweep, two verdicts: structural coverage + all checkers green
        // (the drill module's assertions), then the byte-level drift gate.
        crate::failure_drills::assert_tables_cover_every_preset_and_stay_green(&tables);
        if let Err(drift) = verify(name, &tables) {
            panic!("{drift}");
        }
    }

    /// The tier analogue: the cluster failure-drill table is deterministic
    /// and golden-gated the same way (quick per push, full in the nightly).
    #[test]
    fn golden_cluster_drills() {
        let scale = Scale::from_env();
        let name = match scale {
            Scale::Quick => "cluster_drills_quick",
            Scale::Full => "cluster_drills_full",
        };
        let tables = crate::cluster_drills::cluster_drills(scale);
        crate::cluster_drills::assert_tables_cover_every_preset_and_stay_green(&tables);
        if let Err(drift) = verify(name, &tables) {
            panic!("{drift}");
        }
    }

    /// The scale-out table (open-loop throughput vs coordinator count) is
    /// deterministic too. One sweep, two verdicts: the monotonic acceptance
    /// shape, then the byte-level drift gate on the same tables.
    #[test]
    fn golden_scaleout() {
        let scale = Scale::from_env();
        let name = match scale {
            Scale::Quick => "scaleout_quick",
            Scale::Full => "scaleout_full",
        };
        let tables = crate::scaleout::scaleout(scale);
        crate::scaleout::assert_throughput_increases_monotonically(&tables);
        if let Err(drift) = verify(name, &tables) {
            panic!("{drift}");
        }
    }

    /// The overload table (graceful degradation vs collapse on a saturated
    /// coordinator) under the same two-verdict gate: the robustness shape
    /// (shedding bounds the served p99, no shedding collapses), then the
    /// byte-level drift gate.
    #[test]
    fn golden_overload() {
        let scale = Scale::from_env();
        let (name, suffix) = match scale {
            Scale::Quick => ("overload_quick", "quick"),
            Scale::Full => ("overload_full", "full"),
        };
        let (tables, timelines) = crate::overload::overload_with_timelines(scale);
        crate::overload::assert_shedding_bounds_the_tail(&tables);
        if let Err(drift) = verify(name, &tables) {
            panic!("{drift}");
        }
        // The metrics timeline of each policy's run is an artifact of its
        // own: the CSV pins how the registry evolved (arrival counters,
        // queue gauges, latency histograms) sample by sample, so a change
        // that keeps the end-of-run aggregates but warps the trajectory
        // still trips the gate.
        for (policy, csv) in &timelines {
            assert!(
                csv.lines().count() > 2,
                "overload {policy}: timeline CSV is degenerate ({csv:?})"
            );
            let file = format!("overload_timeline_{policy}_{suffix}.csv");
            if let Err(drift) = verify_raw(&file, csv) {
                panic!("{drift}");
            }
        }
    }

    /// The sweep-wide profiler: per-preset phase-dominance tables plus the
    /// critical-path CSV, both under the drift gate (quick per push, full in
    /// the nightly; CI uploads the CSV as a build artifact).
    #[test]
    fn golden_profile_drills() {
        let scale = Scale::from_env();
        let (name, suffix) = match scale {
            Scale::Quick => ("profile_drills_quick", "quick"),
            Scale::Full => ("profile_drills_full", "full"),
        };
        let (tables, csv) = crate::profile_drills::profile_drills_with_csv(scale);
        crate::profile_drills::assert_profiles_are_nondegenerate(&tables);
        if let Err(drift) = verify(name, &tables) {
            panic!("{drift}");
        }
        if let Err(drift) = verify_raw(&format!("profile_drills_{suffix}.csv"), &csv) {
            panic!("{drift}");
        }
    }

    /// The presets no drill table covers — the five MVCC / group-commit
    /// drills and TPC-C on the coordinator tier — pinned per seed (1–3), so
    /// a harness refactor cannot move them silently. One row per run; the
    /// `write_skew_*` rows are *expected* to show serializability
    /// convictions. Scale-independent (there is no full variant).
    #[test]
    fn golden_chaos_unpinned_presets() {
        use geotp::chaos::{preset, traced, ChaosReport, Door, DrillWorkload, PRESETS};

        let mut table = Table::new(
            "Chaos presets outside the drill tables — per-seed pins",
            &[
                "scenario",
                "workload",
                "seed",
                "committed",
                "aborted",
                "indeterminate",
                "atomicity",
                "durability",
                "liveness",
                "serializability",
                "trace",
                "trace fingerprint",
            ],
        );
        let mut push = |name: &str, seed: u64, report: ChaosReport| {
            let workload = report.trace[0]
                .split("workload=")
                .nth(1)
                .and_then(|tail| tail.split(' ').next())
                .expect("the first trace line names the workload")
                .to_string();
            let verdict = |ok: bool| if ok { "ok" } else { "VIOLATED" }.to_string();
            let inv = &report.invariants;
            table.push_row(vec![
                name.to_string(),
                workload,
                seed.to_string(),
                report.committed.to_string(),
                report.aborted.to_string(),
                report.indeterminate.to_string(),
                verdict(inv.atomicity_ok),
                verdict(inv.durability_ok),
                verdict(inv.liveness_ok),
                verdict(inv.serializability_ok),
                verdict(inv.trace_ok),
                format!("{:016x}", report.fingerprint),
            ]);
        };
        let workload_specific = PRESETS
            .iter()
            .filter(|p| p.door() == Door::Single && !p.workloads.contains(&DrillWorkload::Tpcc));
        for scenario in workload_specific {
            for seed in 1..=3 {
                push(scenario.name, seed, traced(|| scenario.run(seed)).0);
            }
        }
        let takeover = preset("coordinator_crash_takeover");
        for seed in 1..=3 {
            let report = traced(|| takeover.run_with(seed, DrillWorkload::Tpcc)).0;
            push(takeover.name, seed, report);
        }
        if let Err(drift) = verify("chaos_unpinned_presets_quick", &[table]) {
            panic!("{drift}");
        }
    }

    /// FNV-1a over a word's little-endian bytes: the per-transaction pins'
    /// fingerprint step.
    fn fnv_fold(fnv: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *fnv = (*fnv ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The one-shot door (`Middleware::run_transaction`) pinned per
    /// transaction, not per 1-decimal figure cell: the 7 protocol presets ×
    /// rounds {1, 3} × annotation {on, off}, one seeded contended YCSB run
    /// each. The fingerprint folds `(gtrid, committed, latency µs)` in
    /// completion order, so any change to what a whole-spec submission tells
    /// the coordinator (the per-branch `is_last` oracle, the up-front peer
    /// list, the hotspot touch order) moves a row. Scale-independent.
    ///
    /// The same 28 runs also fill `oneshot_commit_path_quick`: per row, the
    /// sums over every outcome of the `execution`, `prepare_wait`,
    /// `log_flush` and `commit` slices of the latency breakdown (µs), plus
    /// the commits deferred to recovery. A commit-path change that keeps each
    /// outcome's latency but moves time between those slices moves this
    /// table.
    #[test]
    fn golden_oneshot_protocol_matrix() {
        use geotp::{ClusterBuilder, Protocol};
        use geotp_middleware::{TxnOutcome, ABORT_REASONS};
        use geotp_storage::EngineConfig;
        use geotp_workloads::{Contention, YcsbConfig, YcsbGenerator};
        use rand::{rngs::StdRng, SeedableRng};
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::time::Duration;

        const SEED: u64 = 16;
        const TERMINALS: u64 = 32;
        const WINDOW: Duration = Duration::from_secs(20);

        let mut table = Table::new(
            "One-shot door — protocol × rounds × annotation, per-transaction pins",
            &[
                "protocol",
                "rounds",
                "annotated",
                "committed",
                "aborts",
                "postpone us",
                "dec. prepares",
                "wait timeouts",
                "ds statements",
                "ds prepares",
                "final us",
                "fingerprint",
            ],
        );
        let mut commit_path = Table::new(
            "One-shot door — commit-path slices summed over every outcome",
            &[
                "protocol",
                "rounds",
                "annotated",
                "execution us",
                "prepare_wait us",
                "log_flush us",
                "commit us",
                "deferred to recovery",
            ],
        );
        let protocols = [
            Protocol::SspXa,
            Protocol::SspLocal,
            Protocol::Quro,
            Protocol::Chiller,
            Protocol::geotp_o1(),
            Protocol::geotp_o1_o2(),
            Protocol::geotp(),
        ];
        for protocol in protocols {
            for rounds in [1usize, 3] {
                for annotated in [true, false] {
                    let mut ycsb = YcsbConfig::new(4, 500)
                        .with_contention(Contention::Medium)
                        .with_distributed_ratio(0.5);
                    ycsb.rounds = rounds;
                    ycsb.nodes_per_distributed_txn = 3;
                    let mut rt = geotp_simrt::Runtime::new();
                    let (row, slices) = rt.block_on(async move {
                        let cluster = ClusterBuilder::new()
                            .seed(SEED)
                            .paper_default_sources()
                            .records_per_node(ycsb.records_per_node)
                            .protocol(protocol)
                            .engine_config(EngineConfig {
                                lock_wait_timeout: Duration::from_millis(400),
                                ..EngineConfig::default()
                            })
                            .build();
                        let generator = Rc::new(YcsbGenerator::new(ycsb));
                        generator.load(cluster.data_sources());
                        let completed: Rc<RefCell<Vec<TxnOutcome>>> = Rc::default();
                        let end = geotp_simrt::now() + WINDOW;
                        let terminals: Vec<_> = (0..TERMINALS)
                            .map(|terminal| {
                                let mw = Rc::clone(cluster.middleware());
                                let generator = Rc::clone(&generator);
                                let completed = Rc::clone(&completed);
                                let mut rng = StdRng::seed_from_u64(SEED * 1_000 + terminal);
                                geotp_simrt::spawn(async move {
                                    while geotp_simrt::now() < end {
                                        let mut spec = generator.generate(&mut rng).0;
                                        spec.annotate_last = annotated;
                                        let outcome = mw.run_transaction(&spec).await;
                                        completed.borrow_mut().push(outcome);
                                    }
                                })
                            })
                            .collect();
                        for terminal in terminals {
                            terminal.await;
                        }
                        let final_us = geotp_simrt::now().as_micros();
                        let completed = completed.borrow();
                        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
                        let mut aborts = [0u64; ABORT_REASONS.len()];
                        for outcome in completed.iter() {
                            for word in [
                                outcome.gtrid,
                                outcome.committed as u64,
                                outcome.latency.as_micros() as u64,
                            ] {
                                fnv_fold(&mut fnv, word);
                            }
                            if let Some(reason) = outcome.abort_reason {
                                aborts[reason.ordinal()] += 1;
                            }
                        }
                        let aborts: Vec<String> = ABORT_REASONS
                            .iter()
                            .zip(aborts)
                            .filter(|(_, n)| *n > 0)
                            .map(|(reason, n)| format!("{}={n}", reason.label()))
                            .collect();
                        let stats = cluster.middleware().stats();
                        let ds_stats: Vec<_> =
                            cluster.data_sources().iter().map(|ds| ds.stats()).collect();
                        let label = vec![
                            protocol.name().to_string(),
                            rounds.to_string(),
                            if annotated { "on" } else { "off" }.to_string(),
                        ];
                        let sum_us = |slice: fn(&TxnOutcome) -> Duration| {
                            let us: u128 = completed.iter().map(|o| slice(o).as_micros()).sum();
                            us.to_string()
                        };
                        let mut slices = label.clone();
                        slices.extend([
                            sum_us(|o| o.breakdown.execution),
                            sum_us(|o| o.breakdown.prepare_wait),
                            sum_us(|o| o.breakdown.log_flush),
                            sum_us(|o| o.breakdown.commit),
                            stats.commits_deferred_to_recovery.to_string(),
                        ]);
                        let mut row = label;
                        row.extend([
                            completed.iter().filter(|o| o.committed).count().to_string(),
                            if aborts.is_empty() {
                                "-".to_string()
                            } else {
                                aborts.join(" ")
                            },
                            stats.total_postpone_micros.to_string(),
                            stats.decentralized_prepares.to_string(),
                            stats.decision_wait_timeouts.to_string(),
                            ds_stats
                                .iter()
                                .map(|s| s.statements)
                                .sum::<u64>()
                                .to_string(),
                            ds_stats
                                .iter()
                                .map(|s| s.decentralized_prepares)
                                .sum::<u64>()
                                .to_string(),
                            final_us.to_string(),
                            format!("{fnv:016x}"),
                        ]);
                        (row, slices)
                    });
                    table.push_row(row);
                    commit_path.push_row(slices);
                }
            }
        }
        if let Err(drift) = verify("oneshot_protocol_matrix_quick", &[table]) {
            panic!("{drift}");
        }
        if let Err(drift) = verify("oneshot_commit_path_quick", &[commit_path]) {
            panic!("{drift}");
        }
    }

    /// The comparison systems (ScalarDB, ScalarDB+, the YugabyteDB-like
    /// database) pinned per transaction through the one-shot door, the way
    /// the matrix above pins the middleware: fig05 / fig13 hold them with 18
    /// one-decimal cells, this holds every outcome. One seeded run per row —
    /// 4 paper-default sources, 50 % distributed over 3 of them, 32 terminals,
    /// a 400 ms lock-wait timeout at the stores *and* at ScalarDB's
    /// coordinator-side lock table — then a drain so asynchronous applies
    /// land before the stored state is folded. TPC-C covers `Put` / `Delete`
    /// intents and multi-round specs. The database runs at rounds 1 only:
    /// its one-shot door ships the whole statement buffer, so rounds 3 prints
    /// the same row byte for byte. ScalarDB+ at high contention gets a 5 s
    /// window: it spins ≈ 53 k admission rejections per virtual second and
    /// this gate runs in the debug profile. Scale-independent.
    #[test]
    fn golden_baseline_matrix() {
        use crate::runner::{deploy, Deployed, SystemUnderTest as System};
        use geotp::ClusterBuilder;
        use geotp_middleware::{GlobalKey, TransactionSpec, TxnOutcome, ABORT_REASONS};
        use geotp_storage::{row_fingerprint, EngineConfig};
        use geotp_workloads::ycsb::USERTABLE;
        use geotp_workloads::{Contention, TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator};
        use rand::{rngs::StdRng, SeedableRng};
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::time::Duration;

        const SEED: u64 = 19;
        const TERMINALS: u64 = 32;
        const RECORDS_PER_NODE: u64 = 500;
        const DRAIN: Duration = Duration::from_secs(5);
        const LOCK_WAIT: Duration = Duration::from_millis(400);

        #[derive(Clone, Copy, PartialEq)]
        enum Workload {
            Ycsb(usize, Contention),
            Tpcc,
        }

        /// What the terminals fold, in completion order.
        struct Seen {
            committed: u64,
            aborts: [u64; ABORT_REASONS.len()],
            fnv: u64,
        }
        impl Seen {
            fn record(&mut self, outcome: &TxnOutcome) {
                self.committed += outcome.committed as u64;
                if let Some(reason) = outcome.abort_reason {
                    self.aborts[reason.ordinal()] += 1;
                }
                fnv_fold(&mut self.fnv, outcome.gtrid);
                fnv_fold(&mut self.fnv, outcome.committed as u64);
                fnv_fold(&mut self.fnv, outcome.latency.as_micros() as u64);
                fnv_fold(&mut self.fnv, outcome.distributed as u64);
                for row in &outcome.rows {
                    fnv_fold(&mut self.fnv, row_fingerprint(row));
                }
            }
        }

        let mut cells = Vec::new();
        for system in [System::ScalarDb, System::ScalarDbPlus] {
            for rounds in [1usize, 3] {
                for contention in [Contention::Medium, Contention::High] {
                    cells.push((system, Workload::Ycsb(rounds, contention)));
                }
            }
        }
        for system in [System::ScalarDb, System::ScalarDbPlus] {
            cells.push((system, Workload::Tpcc));
        }
        for contention in [Contention::Medium, Contention::High] {
            cells.push((System::DistDb, Workload::Ycsb(1, contention)));
        }

        let mut table = Table::new(
            "Baselines — system × workload through the one-shot door, per-transaction pins",
            &[
                "system",
                "workload",
                "window s",
                "committed",
                "aborts",
                "stats c/a/d",
                "messages",
                "final us",
                "stored state",
                "fingerprint",
            ],
        );
        for (system, workload) in cells {
            let spinning = system == System::ScalarDbPlus
                && matches!(workload, Workload::Ycsb(_, Contention::High));
            let window = Duration::from_secs(if spinning { 5 } else { 20 });
            let mut rt = geotp_simrt::Runtime::new();
            let row = rt.block_on(async move {
                let engine = EngineConfig {
                    lock_wait_timeout: LOCK_WAIT,
                    ..EngineConfig::default()
                };
                let cluster = ClusterBuilder::new()
                    .seed(SEED)
                    .paper_default_sources()
                    .records_per_node(RECORDS_PER_NODE)
                    .engine_config(engine)
                    .build();
                let sources = cluster.data_sources();
                type Generate = Rc<dyn Fn(&mut StdRng) -> TransactionSpec>;
                let (generate, partitioner, name): (Generate, _, _) = match workload {
                    Workload::Ycsb(rounds, contention) => {
                        let mut ycsb = YcsbConfig::new(4, RECORDS_PER_NODE)
                            .with_contention(contention)
                            .with_distributed_ratio(0.5);
                        ycsb.rounds = rounds;
                        ycsb.nodes_per_distributed_txn = 3;
                        let generator = YcsbGenerator::new(ycsb);
                        generator.load(sources);
                        (
                            Rc::new(move |rng: &mut StdRng| generator.generate(rng).0),
                            ycsb.partitioner(),
                            format!("ycsb {} r{rounds}", contention.name()),
                        )
                    }
                    Workload::Tpcc => {
                        let tpcc = TpccConfig::new(4, 2);
                        let partitioner = tpcc.partitioner();
                        let generator = TpccGenerator::new(tpcc);
                        generator.load(sources);
                        (
                            Rc::new(move |rng: &mut StdRng| generator.generate(rng).0),
                            partitioner,
                            "tpcc 4x2".to_string(),
                        )
                    }
                };

                let service = deploy(system, &cluster, partitioner);
                let label = service.label();

                let seen = Rc::new(RefCell::new(Seen {
                    committed: 0,
                    aborts: [0; ABORT_REASONS.len()],
                    fnv: 0xcbf2_9ce4_8422_2325,
                }));
                let end = geotp_simrt::now() + window;
                let terminals: Vec<_> = (0..TERMINALS)
                    .map(|terminal| {
                        let service = service.clone();
                        let generate = Rc::clone(&generate);
                        let seen = Rc::clone(&seen);
                        let mut rng = StdRng::seed_from_u64(SEED * 1_000 + terminal);
                        geotp_simrt::spawn(async move {
                            while geotp_simrt::now() < end {
                                let spec = generate(&mut rng);
                                let outcome = service.run(&spec).await;
                                seen.borrow_mut().record(&outcome);
                            }
                        })
                    })
                    .collect();
                for terminal in terminals {
                    terminal.await;
                }
                let final_us = geotp_simrt::now().as_micros();
                geotp_simrt::sleep(DRAIN).await;

                let state = match workload {
                    Workload::Ycsb(..) => {
                        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
                        for row in 0..4 * RECORDS_PER_NODE {
                            let key = GlobalKey::new(USERTABLE, row);
                            let stored = sources[partitioner.route(key) as usize]
                                .engine()
                                .peek(key.storage_key());
                            fnv_fold(&mut fnv, stored.as_ref().map_or(0, row_fingerprint));
                        }
                        format!("{fnv:016x}")
                    }
                    Workload::Tpcc => {
                        let records: usize =
                            sources.iter().map(|s| s.engine().record_count()).sum();
                        format!("{records} records")
                    }
                };
                let seen = seen.borrow();
                let aborts: Vec<String> = ABORT_REASONS
                    .iter()
                    .zip(seen.aborts)
                    .filter(|(_, n)| *n > 0)
                    .map(|(reason, n)| format!("{}={n}", reason.label()))
                    .collect();
                let stats = match &service {
                    Deployed::ScalarDb(scalardb) => scalardb.stats(),
                    Deployed::DistDb(db) => db.stats(),
                    Deployed::Middleware(mw) => mw.stats(),
                };
                vec![
                    label,
                    name,
                    window.as_secs().to_string(),
                    seen.committed.to_string(),
                    if aborts.is_empty() {
                        "-".to_string()
                    } else {
                        aborts.join(" ")
                    },
                    format!(
                        "{}/{}/{}",
                        stats.committed, stats.aborted, stats.distributed_committed
                    ),
                    cluster.network().total_messages().to_string(),
                    final_us.to_string(),
                    state,
                    format!("{:016x}", seen.fnv),
                ]
            });
            table.push_row(row);
        }
        if let Err(drift) = verify("baseline_matrix_quick", &[table]) {
            panic!("{drift}");
        }
    }

    /// Golden coverage beyond the drill tables (the ROADMAP open item):
    /// Fig. 6 is the cheapest deterministic figure experiment whose *quick*
    /// table is non-degenerate in every column (Fig. 1b's quick run commits
    /// no medium-contention centralized transactions, which would leave half
    /// the gate vacuous), so it is the first one under the drift gate.
    #[test]
    fn golden_fig06_breakdown() {
        let scale = Scale::from_env();
        let name = match scale {
            Scale::Quick => "fig06_breakdown_quick",
            Scale::Full => "fig06_breakdown_full",
        };
        let tables = crate::figs_motivation::fig06_breakdown(scale);
        if let Err(drift) = verify(name, &tables) {
            panic!("{drift}");
        }
    }

    /// Every remaining figure experiment under the drift gate (closing the
    /// ROADMAP CI item): quick on every push, full in the nightly. Only
    /// tables degenerate at quick scale are exempt from the quick gate —
    /// currently just Fig. 1, whose quick medium-contention centralized
    /// column commits nothing (it is gated at full scale below).
    macro_rules! golden_figure {
        ($test:ident, $name:literal, $runner:path) => {
            #[test]
            fn $test() {
                let scale = Scale::from_env();
                let name = match scale {
                    Scale::Quick => concat!($name, "_quick"),
                    Scale::Full => concat!($name, "_full"),
                };
                let tables = $runner(scale);
                if let Err(drift) = verify(name, &tables) {
                    panic!("{drift}");
                }
            }
        };
    }

    golden_figure!(
        golden_fig05_scalability,
        "fig05_scalability",
        crate::figs_overall::fig05_scalability
    );
    golden_figure!(
        golden_fig06_trace_breakdown,
        "fig06_trace_breakdown",
        crate::figs_motivation::fig06_trace_breakdown
    );
    golden_figure!(
        golden_fig07_dist_ratio_ycsb,
        "fig07_dist_ratio_ycsb",
        crate::figs_distributed::fig07_dist_ratio_ycsb
    );
    golden_figure!(
        golden_fig08_latency_cdf,
        "fig08_latency_cdf",
        crate::figs_distributed::fig08_latency_cdf
    );
    golden_figure!(
        golden_fig09_dist_ratio_tpcc,
        "fig09_dist_ratio_tpcc",
        crate::figs_distributed::fig09_dist_ratio_tpcc
    );
    golden_figure!(
        golden_fig10_latency_config,
        "fig10_latency_config",
        crate::figs_network::fig10_latency_config
    );
    golden_figure!(
        golden_fig11_random_dynamic,
        "fig11_random_dynamic",
        crate::figs_network::fig11_random_dynamic
    );
    golden_figure!(
        golden_fig12_ablation,
        "fig12_ablation",
        crate::figs_ablation::fig12_ablation
    );
    golden_figure!(
        golden_fig13_yugabyte,
        "fig13_yugabyte",
        crate::figs_overall::fig13_yugabyte
    );
    golden_figure!(
        golden_fig14_txn_length,
        "fig14_txn_length",
        crate::figs_ablation::fig14_txn_length
    );
    golden_figure!(
        golden_fig15_multi_dm,
        "fig15_multi_dm",
        crate::figs_overall::fig15_multi_dm
    );
    golden_figure!(
        golden_tab01_heterogeneous,
        "tab01_heterogeneous",
        crate::figs_overall::tab01_heterogeneous
    );

    /// Fig. 1 at full scale only: the quick table is degenerate (see above),
    /// so the per-push job skips it and the nightly holds the gate.
    #[test]
    fn golden_fig01_motivation_full_only() {
        if Scale::from_env() == Scale::Quick {
            return;
        }
        let tables = crate::figs_motivation::fig01_motivation(Scale::Full);
        if let Err(drift) = verify("fig01_motivation_full", &tables) {
            panic!("{drift}");
        }
    }

    /// A tiny committed fixture (`tests/golden/selftest.txt`) matching this
    /// table exactly — lets the perturbation test exercise the full verify
    /// path (file read + diff) without re-running the drill sweep.
    fn selftest_table() -> Table {
        let mut table = Table::new("Golden self-test", &["scenario", "committed"]);
        table.push_row(vec!["example".into(), "42".into()]);
        table
    }

    /// The gate is not vacuous: a deliberate single-cell perturbation — the
    /// kind of silent drift the nightly used to need a human to spot — must
    /// fail the diff and name the damaged line. Runs against a small
    /// committed fixture so it does not repeat the (already golden-checked)
    /// drill sweep.
    #[test]
    fn deliberate_perturbation_is_flagged() {
        let pristine = vec![selftest_table()];
        // Under GEOTP_BLESS=1 this call (re)records the fixture and the
        // perturbation half is meaningless (bless mode never diffs).
        verify("selftest", &pristine).expect("fixture matches its golden file");
        if std::env::var("GEOTP_BLESS")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            return;
        }

        let mut perturbed = vec![selftest_table()];
        perturbed[0].rows[0][1] = "43".into();
        let err = verify("selftest", &perturbed)
            .expect_err("perturbed tables must not match the golden file");
        assert!(err.contains("drifted"), "{err}");
        assert!(err.contains("line "), "{err}");
        assert!(err.contains("GEOTP_BLESS"), "{err}");
    }

    /// Render + diff mechanics, independent of the drill tables.
    #[test]
    fn diff_reports_first_divergence() {
        assert!(diff("x", "a\nb\n", "a\nb\n").is_ok());
        let err = diff("x", "a\nb\n", "a\nc\n").unwrap_err();
        assert!(err.contains("line 2"));
        assert!(err.contains("golden: b"));
        assert!(err.contains("actual: c"));
        // Length mismatches surface as <missing>.
        let err = diff("x", "a\n", "a\nb\n").unwrap_err();
        assert!(err.contains("<missing>"));
    }
}
