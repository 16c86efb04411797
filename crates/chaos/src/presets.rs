//! The preset table: every named failure drill, one row each.
//!
//! A row names the front door it deploys, how to build its configuration
//! and fault schedule for a seed, the workloads it is swept under (its own
//! first) and the verdict the checkers must reach. The chaos sweeps in this
//! crate's tests, the drill and profile tables in `geotp-experiments`, the
//! benches and the examples all iterate [`PRESETS`] and
//! run rows through the one [`run`] harness — a preset that regresses fails
//! everywhere at once, and a cross-product over presets is a loop over this
//! table.

use std::rc::Rc;
use std::time::Duration;

use geotp_cluster::{AdmissionPolicy, SessionReaperConfig};
use geotp_middleware::Protocol;
use geotp_net::NodeId;
use geotp_storage::IsolationLevel;

use crate::harness::{run, ChaosConfig, ChaosReport, TierConfig};
use crate::mvcc::{LongReaderOltpWorkload, WriteSkewWorkload};
use crate::schedule::{FaultEvent, FaultSchedule, RandomFaultConfig};
use crate::workload::{
    ChaosWorkload, InteractiveTransferWorkload, TpccChaosWorkload, TransferWorkload,
};
use DrillWorkload::{InteractiveTransfer, LongReaderOltp, Tpcc, Transfer, WriteSkew};

/// Which front door a preset deploys (see [`ChaosConfig::tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// One middleware with scripted §V-A successor failover.
    Single,
    /// A coordinator tier with lease membership, fencing and peer takeover.
    Tier,
}

/// The workloads a drill can drive. Scenario diversity multiplies (presets ×
/// workloads × checkers) instead of adding one-off scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillWorkload {
    /// Balance transfers (conservation makes atomicity observable).
    Transfer,
    /// Transfers shipped one operation per statement round through live
    /// sessions, so think time and client crashes have a window to land in.
    InteractiveTransfer,
    /// The TPC-C five-profile mix at drill scale (interactive multi-round
    /// transactions, inserts, read-only profiles, §3.3.2 consistency
    /// conditions).
    Tpcc,
    /// Long unannotated read-only scans against a never-self-contending
    /// write stream.
    LongReaderOltp,
    /// A write-skew-prone hot pair.
    WriteSkew,
}

impl DrillWorkload {
    /// Instantiate the workload for the deployment `config` describes.
    pub fn build(&self, config: &ChaosConfig) -> Rc<dyn ChaosWorkload> {
        match self {
            DrillWorkload::Transfer => Rc::new(TransferWorkload::from_config(config)),
            DrillWorkload::InteractiveTransfer => Rc::new(InteractiveTransferWorkload(
                TransferWorkload::from_config(config),
            )),
            DrillWorkload::Tpcc => Rc::new(TpccChaosWorkload::drill_scale(config.nodes())),
            DrillWorkload::LongReaderOltp => {
                Rc::new(LongReaderOltpWorkload::drill_scale(config.nodes()))
            }
            DrillWorkload::WriteSkew => Rc::new(WriteSkewWorkload::drill_scale(config.nodes())),
        }
    }
}

/// The verdict a preset's run must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every checker stays green.
    AllGreen,
    /// The adversarial leg: the preset deliberately weakens isolation, and
    /// the serializability checker must convict it.
    SerializabilityConviction,
}

/// One named failure drill.
pub struct Preset {
    /// Stable identifier used in tables, trace files and CI output.
    pub name: &'static str,
    /// The front door the preset deploys.
    pub door: Door,
    /// The workloads this preset is swept under; the first is its own.
    pub workloads: &'static [DrillWorkload],
    /// The verdict its runs must reach.
    pub expect: Expect,
    config: fn(u64) -> ChaosConfig,
    schedule: fn(u64) -> FaultSchedule,
}

impl Preset {
    /// A row that must stay green behind `door`; `config` and `schedule`
    /// build the run for a seed.
    const fn new(
        name: &'static str,
        door: Door,
        workloads: &'static [DrillWorkload],
        config: fn(u64) -> ChaosConfig,
        schedule: fn(u64) -> FaultSchedule,
    ) -> Self {
        Self {
            name,
            door,
            workloads,
            expect: Expect::AllGreen,
            config,
            schedule,
        }
    }

    /// The adversarial variant: the checkers must convict this row.
    const fn convicted(mut self) -> Self {
        self.expect = Expect::SerializabilityConviction;
        self
    }

    /// The preset's configuration and schedule for a given seed.
    pub fn build(&self, seed: u64) -> (ChaosConfig, FaultSchedule) {
        ((self.config)(seed), (self.schedule)(seed))
    }

    /// Build and run this preset under `seed` with its own workload.
    pub fn run(&self, seed: u64) -> ChaosReport {
        self.run_with(seed, self.workloads[0])
    }

    /// Build and run this preset's deployment and schedule under `seed`,
    /// driving `workload` — e.g. the TPC-C mix with a takeover
    /// mid-`NewOrder`.
    pub fn run_with(&self, seed: u64, workload: DrillWorkload) -> ChaosReport {
        let (config, schedule) = self.build(seed);
        let workload = workload.build(&config);
        run(config, schedule, workload)
    }
}

/// Look a preset up by name. Panics on an unknown name — the names are
/// compile-time literals at every call site.
pub fn preset(name: &str) -> &'static Preset {
    PRESETS
        .iter()
        .find(|preset| preset.name == name)
        .unwrap_or_else(|| panic!("unknown chaos preset {name}"))
}

const fn s(secs: u64) -> Duration {
    Duration::from_secs(secs)
}

const fn ms(millis: u64) -> Duration {
    Duration::from_millis(millis)
}

const DM: NodeId = NodeId::middleware(0);

fn ds(index: u32) -> NodeId {
    NodeId::data_source(index)
}

/// The default single-middleware drill: 3 data sources, 4 clients × 25
/// half-distributed transfers, GeoTP O1–O3, strict 2PL.
fn single(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        ..ChaosConfig::default()
    }
}

/// The default tier drill: 2 coordinators over the same 3 data sources.
fn tier(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        // Distributed transfers everywhere: cross-coordinator fencing and
        // adoption only bite on 2PC transactions.
        distributed_ratio: 1.0,
        // Enough sessions that the consistent-hash ring puts real traffic on
        // every coordinator (sessions = clients, and the ring is
        // seed-independent).
        clients: 8,
        txns_per_client: 15,
        tier: Some(TierConfig::default()),
        ..ChaosConfig::default()
    }
}

/// The engine-read-path drills. O3's late scheduling would refuse admission
/// to hot keys and serialize access before it ever reaches the engines;
/// these presets study the *engine's* behaviour, so they run O1–O2 and let
/// the conflicting transactions through.
fn engine_drill(seed: u64, isolation: IsolationLevel, txns_per_client: usize) -> ChaosConfig {
    ChaosConfig {
        isolation,
        protocol: Protocol::geotp_o1_o2(),
        clients: 6,
        txns_per_client,
        ..single(seed)
    }
}

/// Long readers vs. OLTP: readers span two statement rounds with think time
/// between them, so their snapshot (or, under 2PL, their shared locks)
/// outlives several writer commits.
fn long_readers(seed: u64, isolation: IsolationLevel) -> ChaosConfig {
    ChaosConfig {
        snapshot_reads: isolation == IsolationLevel::SnapshotRead,
        think_time: ms(20),
        ..engine_drill(seed, isolation, 20)
    }
}

fn no_faults(_seed: u64) -> FaultSchedule {
    FaultSchedule::new()
}

/// `schedule` plus a latency storm on every middleware↔data-source link.
fn brownout(
    schedule: FaultSchedule,
    (at, until): (Duration, Duration),
    extra: Duration,
    jitter: Duration,
) -> FaultSchedule {
    (0..3).fold(schedule, |schedule, i| {
        schedule.with(FaultEvent::LatencyStorm {
            at,
            until,
            a: DM,
            b: ds(i),
            extra,
            jitter,
        })
    })
}

/// The coordinator dies right after flushing a commit decision (§V-A) and a
/// successor is scripted in.
fn crash_after_flush_then_failover(_seed: u64) -> FaultSchedule {
    FaultSchedule::new()
        .with(FaultEvent::CrashMiddlewareAfterFlush { at: ms(2_500) })
        .with(FaultEvent::FailoverMiddleware { at: s(5) })
}

/// Workload-generic: the preset's faults are about the deployment, so it is
/// swept under transfers and the TPC-C mix alike.
const GENERIC: &[DrillWorkload] = &[Transfer, Tpcc];

/// Every preset, in a stable order: the workload-generic single-middleware
/// drills, then the MVCC / group-commit drills (which opt into non-default
/// engine knobs and bring their own workloads), then the tier drills.
pub static PRESETS: [Preset; 21] = [
    // A data source crashes while branches are mid-prepare, restarts later;
    // durable-prepared branches must survive via the WAL.
    Preset::new("prepare_phase_crash", Door::Single, GENERIC, single, |_| {
        FaultSchedule::new()
            .with(FaultEvent::CrashDataSource { at: s(3), ds: 1 })
            .with(FaultEvent::RestartDataSource { at: s(8), ds: 1 })
    }),
    // The middleware↔slowest-data-source link partitions across the commit
    // window and heals; stalled decisions must complete, not corrupt.
    Preset::new(
        "commit_phase_partition",
        Door::Single,
        GENERIC,
        single,
        |_| {
            FaultSchedule::new().with(FaultEvent::Partition {
                at: s(2),
                until: s(6),
                a: DM,
                b: ds(2),
            })
        },
    ),
    // A data source can hear the middleware but not answer (response
    // direction blocked), then heals.
    Preset::new(
        "asymmetric_partition",
        Door::Single,
        GENERIC,
        single,
        |_| {
            FaultSchedule::new().with(FaultEvent::PartitionOneWay {
                at: s(2),
                until: s(5),
                from: ds(1),
                to: DM,
            })
        },
    ),
    // Every data source crashes and restarts in sequence.
    Preset::new("rolling_restarts", Door::Single, GENERIC, single, |_| {
        FaultSchedule::new()
            .with(FaultEvent::CrashDataSource { at: s(2), ds: 0 })
            .with(FaultEvent::RestartDataSource { at: s(4), ds: 0 })
            .with(FaultEvent::CrashDataSource {
                at: ms(4_500),
                ds: 1,
            })
            .with(FaultEvent::RestartDataSource {
                at: ms(6_500),
                ds: 1,
            })
            .with(FaultEvent::CrashDataSource { at: s(7), ds: 2 })
            .with(FaultEvent::RestartDataSource { at: s(9), ds: 2 })
    }),
    // A WAN brownout: heavy extra latency plus per-message jitter on every
    // middleware link for a sustained window.
    Preset::new("wan_brownout", Door::Single, GENERIC, single, |_| {
        brownout(FaultSchedule::new(), (s(2), s(8)), ms(150), ms(50))
    }),
    // The coordinator crashes deterministically right after flushing a
    // commit decision (§V-A); a successor replays the shared commit log.
    Preset::new(
        "coordinator_failover",
        Door::Single,
        GENERIC,
        |seed| ChaosConfig {
            // Every transfer distributed: the flush that trips the fail
            // point belongs to a 2PC transaction, so the §V-A window
            // (prepared branches + durable decision, nothing dispatched) is
            // actually exercised.
            distributed_ratio: 1.0,
            ..single(seed)
        },
        crash_after_flush_then_failover,
    ),
    // Prepare votes and rollback confirmations are randomly dropped and
    // duplicated; the decision-wait timeout and the notify hub's idempotent
    // vote handling must cope.
    Preset::new("lossy_notifications", Door::Single, GENERIC, single, |_| {
        (0..3).fold(FaultSchedule::new(), |schedule, i| {
            schedule
                .with(FaultEvent::DropNotifications {
                    at: s(1),
                    until: s(8),
                    from: ds(i),
                    to: DM,
                    probability: 0.3,
                })
                .with(FaultEvent::DuplicateNotifications {
                    at: s(1),
                    until: s(8),
                    from: ds(i),
                    to: DM,
                    probability: 0.3,
                })
        })
    }),
    // One node's clock drifts hundreds of ppm (plus a partition blip); the
    // commit protocol never reads node clocks, so invariants stay green.
    Preset::new("clock_skew_drift", Door::Single, GENERIC, single, |_| {
        FaultSchedule::new()
            .with(FaultEvent::ClockSkewRamp {
                at: s(1),
                node: ds(2),
                drift_ppm: 500,
            })
            .with(FaultEvent::ClockSkewRamp {
                at: s(6),
                node: ds(0),
                drift_ppm: -250,
            })
            .with(FaultEvent::Partition {
                at: s(3),
                until: s(4),
                a: DM,
                b: ds(2),
            })
    }),
    // A data-source crash in the middle of a WAN brownout — compound
    // failure, the recovery paths under degraded links.
    Preset::new(
        "crash_during_brownout",
        Door::Single,
        GENERIC,
        single,
        |_| {
            let crash = FaultSchedule::new()
                .with(FaultEvent::CrashDataSource { at: s(3), ds: 0 })
                .with(FaultEvent::RestartDataSource { at: s(7), ds: 0 });
            brownout(crash, (s(1), s(9)), ms(100), ms(30))
        },
    ),
    // A seeded-random schedule — different for every seed, always healing
    // before the horizon.
    Preset::new("randomized_faults", Door::Single, GENERIC, single, |seed| {
        let shape = RandomFaultConfig {
            data_sources: 3,
            faults: 4,
            horizon: s(60),
        };
        FaultSchedule::random(seed, &shape)
    }),
    // Interactive clients under chaos: transfers ship one statement round at
    // a time through live sessions, clients *think* between rounds (locks
    // span real client round trips), every 4th transaction of each client is
    // abandoned mid-transaction (connection drop — the middleware's cleanup
    // must roll the orphans back), and the coordinator crashes in the §V-A
    // window with a scripted failover while all of that is in flight. The
    // scenario the one-shot spec API structurally could not express.
    Preset::new(
        "interactive_client_chaos",
        Door::Single,
        &[InteractiveTransfer, Tpcc],
        |seed| ChaosConfig {
            think_time: ms(20),
            client_crash_every: Some(4),
            distributed_ratio: 0.8,
            ..single(seed)
        },
        |seed| {
            crash_after_flush_then_failover(seed).with(FaultEvent::Partition {
                at: s(6),
                until: ms(7_500),
                a: DM,
                b: ds(1),
            })
        },
    ),
    // Long multi-round read-only scans (unannotated, so the coordinator
    // commits them via the snapshot-read fast path) against an OLTP write
    // stream on disjoint keys, under `SnapshotRead`: readers acquire zero
    // locks.
    Preset::new(
        "long_readers_snapshot",
        Door::Single,
        &[LongReaderOltp],
        |seed| long_readers(seed, IsolationLevel::SnapshotRead),
        no_faults,
    ),
    // The same workload under strict 2PL — the contrast run: the same scans
    // *do* contend there, so the lock-wait histogram is non-empty.
    Preset::new(
        "long_readers_2pl",
        Door::Single,
        &[LongReaderOltp],
        |seed| long_readers(seed, IsolationLevel::Serializable2pl),
        no_faults,
    ),
    // Write-skew hot pair under `SnapshotRead` (snapshot isolation's classic
    // anomaly): the hot pair must reach the engines concurrently for the
    // anomaly to form.
    Preset::new(
        "write_skew_snapshot",
        Door::Single,
        &[WriteSkew],
        |seed| engine_drill(seed, IsolationLevel::SnapshotRead, 15),
        no_faults,
    )
    .convicted(),
    // Write-skew hot pair under `ReadCommitted`.
    Preset::new(
        "write_skew_read_committed",
        Door::Single,
        &[WriteSkew],
        |seed| engine_drill(seed, IsolationLevel::ReadCommitted, 15),
        no_faults,
    )
    .convicted(),
    // Balance transfers with a 10 ms group-commit window and data sources
    // crashing mid-traffic, so crashes land *between a commit's WAL append
    // and the deferred group flush* (§V-A at the storage tier).
    // Unacknowledged commits must roll back on recovery. Strict-2PL
    // isolation: group commit is orthogonal to the read path, and the
    // transfer workload's checkers are the sharpest about torn commits.
    Preset::new(
        "group_commit_crash_window",
        Door::Single,
        &[Transfer],
        |seed| ChaosConfig {
            group_commit_window: ms(10),
            ..single(seed)
        },
        |_| {
            FaultSchedule::new()
                .with(FaultEvent::CrashDataSource { at: s(3), ds: 1 })
                .with(FaultEvent::RestartDataSource { at: s(6), ds: 1 })
                .with(FaultEvent::CrashDataSource { at: s(8), ds: 0 })
                .with(FaultEvent::RestartDataSource { at: s(10), ds: 0 })
        },
    ),
    // A coordinator crashes mid-traffic (half of it inside the §V-A window:
    // decision durable, never dispatched). The supervisor must detect the
    // death, fence the epoch and have a peer adopt every in-doubt branch
    // while the dead coordinator's sessions fail over.
    Preset::new(
        "coordinator_crash_takeover",
        Door::Tier,
        GENERIC,
        tier,
        |_| {
            FaultSchedule::new().with(FaultEvent::CrashCoordinatorAfterFlush {
                at: ms(2_500),
                dm: 1,
            })
        },
    ),
    // Split brain: a coordinator is partitioned from the membership service
    // (but not from the data sources!), its lease (1.5 s) lapses inside the
    // window, the cluster declares it dead and fences it — while the process
    // keeps serving its sessions. Every decision it issues from the stale
    // epoch must be rejected by the sealed commit log and by every data
    // source.
    Preset::new("coordinator_partition", Door::Tier, GENERIC, tier, |_| {
        FaultSchedule::new().with(FaultEvent::Partition {
            at: s(2),
            until: s(8),
            a: NodeId::middleware(1),
            b: NodeId::control(0),
        })
    }),
    // A coordinator loses a subset of the data sources across the commit
    // window (its lease stays healthy): transactions stall, decision-wait
    // timeouts fire, and everything must drain once the partition heals —
    // with the other coordinator's traffic unaffected throughout.
    Preset::new(
        "coordinator_source_partition",
        Door::Tier,
        &[Transfer],
        tier,
        |_| {
            FaultSchedule::new().with(FaultEvent::Partition {
                at: s(2),
                until: s(6),
                a: NodeId::middleware(1),
                b: ds(2),
            })
        },
    ),
    // *Both* coordinators die mid-traffic (one inside the §V-A window) and
    // the tier must recover **from cold**: while everyone is down nobody can
    // adopt anybody, clients see only refusals, and in-doubt branches wait.
    // Staggered restarts then bring successors up at fresh epochs over the
    // shared commit logs — the first one back recovers its own gtrid space
    // and (via the supervisor's retry of never-adopted dead slots) fences
    // and adopts its still-dead peer; the router re-homes sessions both
    // ways.
    Preset::new(
        "dual_coordinator_cold_restart",
        Door::Tier,
        GENERIC,
        tier,
        |_| {
            FaultSchedule::new()
                .with(FaultEvent::CrashCoordinatorAfterFlush {
                    at: ms(2_000),
                    dm: 0,
                })
                .with(FaultEvent::CrashCoordinator {
                    at: ms(2_400),
                    dm: 1,
                })
                .with(FaultEvent::RestartCoordinator { at: s(6), dm: 0 })
                .with(FaultEvent::RestartCoordinator { at: s(9), dm: 1 })
        },
    ),
    // Flash crowd: 200k mostly-idle registered sessions, then a sudden
    // open-loop arrival spike on a zipfian hot set of them — with bounded
    // admission (queue 64, 250 ms queue deadline) shedding the overflow,
    // session-level retry budgets backing the arrivals off, the idle-session
    // reaper keeping the registries lean, and a coordinator crash-after-flush
    // armed *mid-spike* (the spike runs 2.0 s – 3.5 s) so takeover happens
    // under overload. No per-client loops: the spike *is* the workload.
    Preset::new(
        "flash_crowd",
        Door::Tier,
        &[Transfer],
        |seed| ChaosConfig {
            clients: 0,
            txns_per_client: 0,
            tier: Some(TierConfig {
                max_inflight: 32,
                admission: AdmissionPolicy::bounded(64, ms(250)),
                session_reaper: Some(SessionReaperConfig {
                    interval: ms(500),
                    idle_for: s(5),
                }),
                flash_crowd: true,
            }),
            ..tier(seed)
        },
        |_| {
            FaultSchedule::new().with(FaultEvent::CrashCoordinatorAfterFlush {
                at: ms(2_600),
                dm: 1,
            })
        },
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{DECISION_WAIT_TIMEOUT, HORIZON};
    use crate::invariants::InvariantReport;
    use crate::telemetry::traced;

    impl Expect {
        /// Whether `report` is the verdict this preset is there to produce.
        fn met_by(&self, report: &InvariantReport) -> bool {
            match self {
                Expect::AllGreen => report.all_hold(),
                Expect::SerializabilityConviction => !report.serializability_ok,
            }
        }
    }

    /// Every chaos knob earns its place: some row of the table sets it to a
    /// non-default value. The destructuring lists every field with no `..`,
    /// so a new field fails to compile here until it is listed — and then
    /// fails the test until a preset varies it. A knob no row varies
    /// belongs in a constant.
    #[test]
    fn every_chaos_knob_is_varied_by_some_preset() {
        let ChaosConfig {
            seed,
            clients,
            txns_per_client,
            distributed_ratio,
            protocol,
            // Set only by shrink_repro and the tpcc_chaos example (the
            // isolation-bug fail point the shrinker minimizes).
            isolation_bug_read_stride: _,
            // Set only by trace_oracle (the write-ahead fail point only the
            // trace oracle convicts).
            commit_before_flush_bug: _,
            think_time,
            client_crash_every,
            isolation,
            group_commit_window,
            snapshot_reads,
            tier,
        } = ChaosConfig::default();
        let TierConfig {
            max_inflight,
            admission,
            session_reaper,
            flash_crowd,
        } = TierConfig::default();
        let configs: Vec<ChaosConfig> = PRESETS.iter().map(|p| p.build(1).0).collect();
        let tiers: Vec<&TierConfig> = configs.iter().filter_map(|c| c.tier.as_ref()).collect();
        macro_rules! varied {
            ($rows:expr, $($field:ident),+) => {$(
                assert!(
                    $rows.iter().any(|row| row.$field != $field),
                    concat!("no preset varies `", stringify!($field), "`: make it a constant")
                );
            )+};
        }
        varied!(
            configs,
            seed,
            clients,
            txns_per_client,
            distributed_ratio,
            protocol,
            think_time,
            client_crash_every,
            isolation,
            group_commit_window,
            snapshot_reads
        );
        assert!(
            tier.is_none() && !tiers.is_empty(),
            "no preset varies `tier`"
        );
        varied!(tiers, max_inflight, admission, session_reaper, flash_crowd);
    }

    #[test]
    fn engine_drills_opt_into_the_engine_knobs() {
        let (snap, _) = preset("long_readers_snapshot").build(1);
        assert_eq!(snap.isolation, IsolationLevel::SnapshotRead);
        assert!(snap.snapshot_reads);
        let (legacy, _) = preset("long_readers_2pl").build(1);
        assert_eq!(legacy.isolation, IsolationLevel::Serializable2pl);
        assert!(!legacy.snapshot_reads);
        let (gc, _) = preset("group_commit_crash_window").build(1);
        assert_eq!(gc.group_commit_window, Duration::from_millis(10));
    }

    /// The table's own contract, one row at a time: names are unique across
    /// *all* presets, the door column matches the configuration it builds,
    /// every schedule heals comfortably before its horizon, and the expected
    /// verdict holds at seed 1 under all five checkers.
    #[test]
    fn every_row_is_well_formed_and_meets_its_expected_verdict() {
        let mut names: Vec<&str> = PRESETS.iter().map(|preset| preset.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PRESETS.len(), "preset names must be unique");

        for preset in &PRESETS {
            for seed in [1, 7] {
                let (config, schedule) = preset.build(seed);
                assert_eq!(
                    config.tier.is_some(),
                    preset.door == Door::Tier,
                    "{}: door column disagrees with the built configuration",
                    preset.name
                );
                let detection = config.tier.as_ref().map_or(Duration::ZERO, |_| {
                    geotp_cluster::MembershipConfig::default().lease
                });
                assert!(
                    schedule.last_fault_instant() + detection + DECISION_WAIT_TIMEOUT * 2 < HORIZON,
                    "{}: faults must heal comfortably before the horizon",
                    preset.name
                );
            }
            let (report, _telemetry) = traced(|| preset.run(1));
            assert!(
                preset.expect.met_by(&report.invariants),
                "{} seed 1: expected {:?}, checkers said {:?}",
                preset.name,
                preset.expect,
                report.invariants.violations
            );
        }
    }
}
