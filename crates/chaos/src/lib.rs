//! # geotp-chaos — deterministic fault injection for the GeoTP reproduction
//!
//! GeoTP's claims only matter under hostile WANs: the decentralized prepare,
//! early abort and recovery paths (paper §V) are exercised by crashes
//! mid-prepare, partitions mid-commit and coordinators dying with a flushed
//! decision. This crate turns every such failure mode into a *scripted,
//! replayable, invariant-checked* scenario:
//!
//! * a [`FaultSchedule`] describes a timeline of faults — data-source
//!   crash/restart, coordinator crash/failover, (possibly asymmetric) network
//!   partitions, latency storms, notification drop/duplicate probabilities
//!   and clock-skew ramps — written explicitly, generated from a seed
//!   ([`FaultSchedule::random`]), or parsed from a replayable timeline file
//!   ([`FaultSchedule::parse_timeline`]);
//! * the schedule compiles into a [`ScheduleInjector`] plugged into
//!   `geotp-net`'s fault plane, while node-level events are driven by the
//!   harness's controller task against the hooks the component crates expose
//!   (`StorageEngine::crash`/`restart`, `Middleware::crash`,
//!   `crash_after_next_flush`, shared commit logs, `recover`);
//! * [`run`] drives any [`ChaosWorkload`] — balance transfers
//!   ([`TransferWorkload`]) or the real TPC-C mix ([`TpccChaosWorkload`]) —
//!   under the schedule on the simulated runtime, behind either front door
//!   (one middleware, or a coordinator tier when [`ChaosConfig::tier`] is
//!   set), and hands the final state to the [`invariants`] checkers: **atomicity** (no transaction with both
//!   a committed and an aborted branch, plus the workload's own consistency
//!   conditions), **durability** (every outcome the client saw as committed
//!   is backed by a durable commit decision and per-branch WAL commits after
//!   all crashes and recoveries), **liveness** (no transaction stuck once
//!   all faults heal, bounded by a virtual-clock horizon) and
//!   **serializability** (Elle-lite: the engines record versioned read/write
//!   histories, and the committed transactions must form an acyclic
//!   dependency graph in which every read observed a real committed
//!   version — see [`invariants::serializability`]);
//! * a failing seeded schedule is rarely a good bug report, so
//!   [`shrink_schedule`] delta-debugs it QuickCheck-style — drop event
//!   chunks, re-run, keep the smallest still-failing schedule — and emits
//!   the minimal repro as an explicit timeline
//!   ([`FaultSchedule::to_timeline`]) that replays without the original
//!   seed;
//! * every run produces an [`EventTrace`]: same seed + same schedule ⇒
//!   bit-identical trace, across runs *and across processes* — chaos
//!   findings are perfectly reproducible.
//!
//! The [`presets`] table ships the named drills (prepare-phase crash,
//! commit-phase partition, rolling restarts, WAN brownout, coordinator
//! failover, lossy notifications, clock-skew drift, MVCC long readers,
//! write skew, group-commit crash window, coordinator takeover, split
//! brain, flash crowd, …), one row each: front door, configuration,
//! schedule, the workloads it is swept under and the verdict it must reach.
//! The rows double as the failure-drill tables in `geotp-experiments` and as
//! regression sweeps in this crate's tests.
//!
//! ```
//! use geotp_chaos::{preset, DrillWorkload};
//!
//! let crash = preset("prepare_phase_crash");
//! let report = crash.run(7);
//! assert!(report.invariants.all_hold(), "{:?}", report.invariants.violations);
//! // Replayable: the same seed produces a bit-identical event trace.
//! assert_eq!(report.fingerprint, crash.run(7).fingerprint);
//! // The same preset drives the TPC-C mix, serializability-checked.
//! let tpcc = crash.run_with(7, DrillWorkload::Tpcc);
//! assert!(tpcc.invariants.serializability_ok);
//! ```

pub mod harness;
pub mod injector;
pub mod invariants;
pub mod mvcc;
pub mod presets;
pub mod schedule;
pub mod shrink;
pub mod telemetry;
pub mod trace;
pub mod workload;

pub use geotp_middleware::Protocol;
pub use harness::{
    client_rng, client_scripts, run, run_scripted, ChaosConfig, ChaosReport, FlashCrowdConfig,
    TierConfig,
};
pub use injector::ScheduleInjector;
pub use invariants::trace::{TraceContext, TraceRule, TraceRules};
pub use invariants::{InvariantReport, SerializabilityReport};
pub use mvcc::{LongReaderOltpWorkload, WriteSkewWorkload};
pub use presets::{preset, Door, DrillWorkload, Expect, Preset, PRESETS};
pub use schedule::{FaultEvent, FaultSchedule, RandomFaultConfig};
pub use shrink::{shrink_schedule, shrink_workload, ShrinkReport, WorkloadShrinkReport};
pub use telemetry::{attach_trace_on_failure, traced, traced_capped, write_failure_artifact};
pub use trace::EventTrace;
pub use workload::{
    ChaosWorkload, InteractiveTransferWorkload, TpccChaosWorkload, TransferWorkload, CHAOS_TABLE,
};
