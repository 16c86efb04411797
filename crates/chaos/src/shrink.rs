//! QuickCheck-style minimization of failing fault schedules.
//!
//! A seeded-random schedule that turns a checker red is a terrible bug
//! report: dozens of events, most irrelevant. [`shrink_schedule`] applies
//! delta debugging (Zeller's ddmin, the algorithm behind QuickCheck
//! shrinking) to the event list: repeatedly drop chunks of events — halves,
//! then quarters, down to single events — re-run the scenario, and keep every
//! reduction that still fails. A second pass then simplifies the survivors'
//! *timing*: fault windows are halved and activation instants pulled earlier,
//! as long as the failure reproduces.
//!
//! Every probe is a full deterministic chaos run, so the result is exact,
//! not probabilistic: the minimized schedule is guaranteed still-failing,
//! and 1-minimal with respect to single-event removal (dropping any one
//! remaining event makes the failure disappear — unless the probe budget ran
//! out first, which the report says). The minimized schedule is emitted as a
//! replayable explicit timeline ([`crate::FaultSchedule::to_timeline`]) that
//! reproduces without the original seed's random generator.

use std::time::Duration;

use geotp_middleware::TransactionSpec;

use crate::schedule::{Fault, FaultEvent, FaultSchedule};

/// Result of a shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The smallest still-failing schedule found.
    pub minimized: FaultSchedule,
    /// Events in the schedule the shrink started from.
    pub initial_events: usize,
    /// Events left after shrinking.
    pub minimized_events: usize,
    /// Scenario runs spent (including the initial confirmation run).
    pub runs: u32,
    /// `true` if the probe budget ran out before the schedule was 1-minimal;
    /// the minimized schedule still fails either way.
    pub budget_exhausted: bool,
}

impl ShrinkReport {
    /// The minimized schedule as a replayable explicit timeline.
    pub fn timeline(&self) -> String {
        self.minimized.to_timeline()
    }
}

/// Bookkeeping for the probe budget shared by both shrink passes.
struct Probe<F> {
    fails: F,
    runs: u32,
    max_runs: u32,
}

impl<F: FnMut(&FaultSchedule) -> bool> Probe<F> {
    /// Run the scenario against `events`; `None` when the budget is gone.
    fn fails(&mut self, events: &[FaultEvent]) -> Option<bool> {
        if self.runs >= self.max_runs {
            return None;
        }
        self.runs += 1;
        Some((self.fails)(&FaultSchedule {
            events: events.to_vec(),
        }))
    }
}

/// The generic ddmin removal pass over any item list: repeatedly drop chunks
/// (halves → quarters → … → single items), keep every reduction that still
/// fails. `probe` returns `None` when the run budget is exhausted. Returns
/// the minimized items and whether the budget ran out mid-pass.
fn ddmin_items<T: Clone>(
    initial: &[T],
    probe: &mut impl FnMut(&[T]) -> Option<bool>,
) -> (Vec<T>, bool) {
    let mut current = initial.to_vec();
    let mut granularity = 2usize;
    while !current.is_empty() {
        granularity = granularity.min(current.len());
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<T> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            match probe(&candidate) {
                None => return (current, true),
                Some(true) => {
                    current = candidate;
                    granularity = granularity.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
                Some(false) => start = end,
            }
        }
        if !reduced {
            if granularity >= current.len() {
                break; // 1-minimal: no single item can be dropped.
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    (current, false)
}

/// Shrink `initial` to a minimal schedule for which `fails` still returns
/// `true`. `fails` runs one full scenario per call (deterministic: same
/// schedule ⇒ same verdict); `max_runs` bounds the total number of probe
/// runs. Returns `None` if the initial schedule does not fail at all.
pub fn shrink_schedule<F>(initial: &FaultSchedule, max_runs: u32, fails: F) -> Option<ShrinkReport>
where
    F: FnMut(&FaultSchedule) -> bool,
{
    let mut probe = Probe {
        fails,
        runs: 0,
        max_runs: max_runs.max(1),
    };
    if !probe.fails(&initial.events)? {
        return None;
    }

    // ---------------- pass 1: ddmin event removal ----------------
    let (mut current, mut budget_exhausted) =
        ddmin_items(&initial.events, &mut |events| probe.fails(events));

    // ---------------- pass 2: timing simplification ----------------
    // For each surviving event, try a variant with a halved window and an
    // earlier activation; keep whatever still fails.
    if !budget_exhausted {
        for index in 0..current.len() {
            // Re-derive variants from the adopted event each round, so a
            // later variant cannot silently undo an earlier simplification.
            let mut improved = true;
            let mut rounds = 0;
            while improved && rounds < 8 && !budget_exhausted {
                improved = false;
                rounds += 1;
                for variant in simplify_event(&current[index]) {
                    let mut candidate = current.clone();
                    candidate[index] = variant;
                    match probe.fails(&candidate) {
                        None => {
                            budget_exhausted = true;
                            break;
                        }
                        Some(true) => {
                            current[index] = variant;
                            improved = true;
                            break;
                        }
                        Some(false) => {}
                    }
                }
            }
            if budget_exhausted {
                break;
            }
        }
    }

    Some(ShrinkReport {
        initial_events: initial.events.len(),
        minimized_events: current.len(),
        minimized: FaultSchedule { events: current },
        runs: probe.runs,
        budget_exhausted,
    })
}

/// Result of a workload shrink run.
#[derive(Debug, Clone)]
pub struct WorkloadShrinkReport {
    /// The smallest still-failing workload: one transaction list per
    /// surviving client (clients whose every transaction was dropped are
    /// gone entirely).
    pub minimized: Vec<Vec<TransactionSpec>>,
    /// Clients in the workload the shrink started from.
    pub initial_clients: usize,
    /// Clients left after shrinking.
    pub minimized_clients: usize,
    /// Total transactions in the starting workload.
    pub initial_txns: usize,
    /// Total transactions left after shrinking.
    pub minimized_txns: usize,
    /// Scenario runs spent (including the initial confirmation run).
    pub runs: u32,
    /// `true` if the probe budget ran out before the workload was 1-minimal.
    pub budget_exhausted: bool,
}

/// Value-aware workload shrinking: after [`shrink_schedule`] minimizes the
/// *fault* timeline, ddmin the *workload* too — drop whole clients and
/// individual transactions while the failure keeps reproducing. `initial` is
/// one transaction script per client (see
/// [`crate::harness::client_scripts`], which materializes exactly what the
/// seeded harness would have generated); `fails` replays a full scenario
/// against a candidate script set, typically through
/// [`crate::run_scripted`]. Returns `None` if the initial workload does not
/// fail at all.
pub fn shrink_workload<F>(
    initial: &[Vec<TransactionSpec>],
    max_runs: u32,
    mut fails: F,
) -> Option<WorkloadShrinkReport>
where
    F: FnMut(&[Vec<TransactionSpec>]) -> bool,
{
    // Flatten to (client, spec) pairs so ddmin can drop any subset while the
    // rebuild keeps each surviving transaction on its original client (the
    // concurrency structure is part of the repro).
    let flat: Vec<(usize, TransactionSpec)> = initial
        .iter()
        .enumerate()
        .flat_map(|(client, specs)| specs.iter().map(move |s| (client, s.clone())))
        .collect();
    let clients = initial.len();
    let rebuild = |items: &[(usize, TransactionSpec)]| -> Vec<Vec<TransactionSpec>> {
        let mut per_client: Vec<Vec<TransactionSpec>> = vec![Vec::new(); clients];
        for (client, spec) in items {
            per_client[*client].push(spec.clone());
        }
        per_client.retain(|specs| !specs.is_empty());
        per_client
    };

    let mut runs = 0u32;
    let max_runs = max_runs.max(1);
    let mut probe = |items: &[(usize, TransactionSpec)]| -> Option<bool> {
        if runs >= max_runs {
            return None;
        }
        runs += 1;
        Some(fails(&rebuild(items)))
    };
    if !probe(&flat)? {
        return None;
    }
    let (minimized_flat, budget_exhausted) = ddmin_items(&flat, &mut probe);
    let minimized = rebuild(&minimized_flat);
    Some(WorkloadShrinkReport {
        initial_clients: clients,
        minimized_clients: minimized.len(),
        initial_txns: flat.len(),
        minimized_txns: minimized_flat.len(),
        minimized,
        runs,
        budget_exhausted,
    })
}

/// Candidate simplifications of one event, simplest first: halve a link
/// fault's window, then pull the activation instant halfway toward zero.
/// Instant events only get the time pull.
fn simplify_event(event: &FaultEvent) -> Vec<FaultEvent> {
    // Quantized to whole microseconds: the virtual clock ticks in µs and the
    // replayable timeline stores µs, so finer durations would not round-trip.
    let half = |d: Duration| Duration::from_micros(d.as_micros() as u64 / 2);
    let FaultEvent { at, fault } = *event;
    let mut variants = Vec::new();
    if let Fault::Link {
        until,
        from,
        to,
        effect,
    } = fault
    {
        let until = at + half(until.saturating_sub(at));
        variants.push(FaultEvent {
            at,
            fault: Fault::link(until, from, to, effect),
        });
    }
    variants.push(FaultEvent {
        at: half(at),
        fault,
    });
    // A zero-time variant equals the original for `at == 0`; drop no-ops.
    variants.retain(|v| v != event);
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::LinkEffect;
    use geotp_net::NodeId;

    fn crash(at_secs: u64, ds: u32) -> FaultEvent {
        FaultEvent {
            at: Duration::from_secs(at_secs),
            fault: Fault::CrashDataSource { ds },
        }
    }

    fn link(
        at: Duration,
        until: Duration,
        from: NodeId,
        to: NodeId,
        effect: LinkEffect,
    ) -> FaultEvent {
        FaultEvent {
            at,
            fault: Fault::link(until, from, to, effect),
        }
    }

    fn partition(at_secs: u64, until_secs: u64) -> FaultEvent {
        link(
            Duration::from_secs(at_secs),
            Duration::from_secs(until_secs),
            NodeId::middleware(0),
            NodeId::data_source(0),
            LinkEffect::Partition,
        )
    }

    fn is_crash_of(event: &FaultEvent, ds: u32) -> bool {
        event.fault == Fault::CrashDataSource { ds }
    }

    fn is_partition(event: &FaultEvent) -> bool {
        matches!(
            event.fault,
            Fault::Link {
                effect: LinkEffect::Partition,
                ..
            }
        )
    }

    /// A synthetic failure oracle: the "bug" triggers iff ds1 crashes while
    /// some partition is scheduled. The shrinker must isolate exactly that
    /// pair out of a pile of noise events.
    fn synthetic_fails(schedule: &FaultSchedule) -> bool {
        let crash_ds1 = schedule.events.iter().any(|e| is_crash_of(e, 1));
        let any_partition = schedule.events.iter().any(is_partition);
        crash_ds1 && any_partition
    }

    #[test]
    fn ddmin_isolates_the_failing_pair() {
        let schedule = FaultSchedule {
            events: vec![
                crash(1, 0),
                partition(2, 4),
                crash(3, 2),
                crash(4, 1), // culprit 1
                partition(5, 6),
                crash(6, 0),
                FaultEvent {
                    at: Duration::from_secs(1),
                    fault: Fault::ClockSkewRamp {
                        node: NodeId::data_source(2),
                        drift_ppm: 400,
                    },
                },
                crash(8, 2),
            ],
        };
        let report = shrink_schedule(&schedule, 200, synthetic_fails).expect("initial fails");
        assert!(!report.budget_exhausted);
        assert_eq!(report.minimized_events, 2, "{:?}", report.minimized);
        assert!(synthetic_fails(&report.minimized));
        assert!(report.minimized.events.iter().any(|e| is_crash_of(e, 1)));
        assert!(report.minimized.events.iter().any(is_partition));
        // The timeline artifact replays to the same schedule.
        let replayed = FaultSchedule::parse_timeline(&report.timeline()).unwrap();
        assert_eq!(replayed, report.minimized);
    }

    #[test]
    fn non_failing_schedule_returns_none() {
        let schedule = FaultSchedule {
            events: vec![crash(1, 0)],
        };
        assert!(shrink_schedule(&schedule, 50, synthetic_fails).is_none());
    }

    #[test]
    fn unconditional_failure_shrinks_to_empty() {
        // A bug that fires regardless of faults (e.g. a broken checker or an
        // injected engine bug) shrinks all the way to the empty schedule.
        let schedule = FaultSchedule {
            events: vec![crash(1, 0), partition(2, 3), crash(4, 2)],
        };
        let report = shrink_schedule(&schedule, 100, |_| true).unwrap();
        assert_eq!(report.minimized_events, 0);
        assert!(!report.budget_exhausted);
    }

    #[test]
    fn budget_exhaustion_is_reported_and_result_still_fails() {
        let schedule = FaultSchedule {
            events: (0..12).map(|i| crash(i, (i % 3) as u32)).collect(),
        };
        let report =
            shrink_schedule(&schedule, 3, |s| s.events.iter().any(|e| is_crash_of(e, 1))).unwrap();
        assert!(report.budget_exhausted);
        assert!(report.runs <= 3);
        assert!(report.minimized.events.iter().any(|e| is_crash_of(e, 1)));
    }

    #[test]
    fn workload_shrink_isolates_the_failing_pair_across_clients() {
        use geotp_middleware::{ClientOp, GlobalKey};
        use geotp_storage::TableId;

        let spec = |row: u64| {
            TransactionSpec::single_round(vec![ClientOp::add(GlobalKey::new(TableId(0), row), 1)])
        };
        // 3 clients × 4 txns; the synthetic bug needs client 0 touching row 7
        // *and* client 2 touching row 9 (a cross-client race).
        let initial: Vec<Vec<TransactionSpec>> = vec![
            vec![spec(1), spec(7), spec(2), spec(3)],
            vec![spec(4), spec(5), spec(6), spec(4)],
            vec![spec(8), spec(8), spec(9), spec(8)],
        ];
        let touches = |scripts: &[Vec<TransactionSpec>], row: u64| {
            scripts
                .iter()
                .flatten()
                .any(|s| s.keys().contains(&GlobalKey::new(TableId(0), row)))
        };
        let report = shrink_workload(&initial, 200, |scripts| {
            touches(scripts, 7) && touches(scripts, 9)
        })
        .expect("initial workload fails");
        assert!(!report.budget_exhausted);
        assert_eq!(report.initial_clients, 3);
        assert_eq!(report.initial_txns, 12);
        assert_eq!(
            report.minimized_txns, 2,
            "exactly the two culprit transactions survive: {:?}",
            report.minimized
        );
        assert_eq!(
            report.minimized_clients, 2,
            "the middle (irrelevant) client is dropped entirely"
        );
        assert!(touches(&report.minimized, 7) && touches(&report.minimized, 9));
    }

    #[test]
    fn workload_shrink_returns_none_when_green() {
        let initial = vec![vec![TransactionSpec::default()]];
        assert!(shrink_workload(&initial, 50, |_| false).is_none());
    }

    /// The variants the timing pass tries for one event of each kind, as
    /// timeline text (simplest first).
    #[test]
    fn simplify_event_variants_per_kind() {
        let ms = Duration::from_millis;
        let dm = NodeId::middleware(0);
        let ds = NodeId::data_source;
        let events = [
            crash(3, 1),
            partition(4, 12),
            link(ms(2_000), ms(5_000), ds(1), dm, LinkEffect::PartitionOneWay),
            link(
                ms(1_000),
                ms(9_000),
                dm,
                ds(0),
                LinkEffect::LatencyStorm {
                    extra: ms(150),
                    jitter: ms(50),
                },
            ),
            link(
                ms(1_000),
                ms(8_001),
                ds(0),
                dm,
                LinkEffect::DropNotifications { probability: 0.3 },
            ),
            link(
                ms(1_500),
                ms(8_000),
                ds(2),
                dm,
                LinkEffect::DuplicateNotifications { probability: 0.5 },
            ),
        ];
        let variants = FaultSchedule {
            events: events.iter().flat_map(simplify_event).collect(),
        };
        assert_eq!(
            variants.to_timeline(),
            concat!(
                "# geotp-chaos fault timeline v1\n",
                "crash_ds at_us=1500000 ds=1\n",
                "partition at_us=4000000 until_us=8000000 a=dm0 b=ds0\n",
                "partition at_us=2000000 until_us=12000000 a=dm0 b=ds0\n",
                "partition_oneway at_us=2000000 until_us=3500000 from=ds1 to=dm0\n",
                "partition_oneway at_us=1000000 until_us=5000000 from=ds1 to=dm0\n",
                "latency_storm at_us=1000000 until_us=5000000 a=dm0 b=ds0 extra_us=150000 jitter_us=50000\n",
                "latency_storm at_us=500000 until_us=9000000 a=dm0 b=ds0 extra_us=150000 jitter_us=50000\n",
                "drop_notifications at_us=1000000 until_us=4500500 from=ds0 to=dm0 p=0.3\n",
                "drop_notifications at_us=500000 until_us=8001000 from=ds0 to=dm0 p=0.3\n",
                "duplicate_notifications at_us=1500000 until_us=4750000 from=ds2 to=dm0 p=0.5\n",
                "duplicate_notifications at_us=750000 until_us=8000000 from=ds2 to=dm0 p=0.5\n",
            )
        );
    }

    /// Every link fault's start is pulled earlier, not only a partition's.
    /// The failure needs the fault active at 5 s, so halving the window
    /// alone loses it and only an earlier start keeps it.
    #[test]
    fn timing_pass_pulls_every_link_fault_earlier() {
        let s = Duration::from_secs;
        let covers_5s = |schedule: &FaultSchedule| {
            schedule.events.iter().any(|e| match e.fault {
                Fault::Link { until, .. } => e.at <= s(5) && s(5) < until,
                _ => false,
            })
        };
        let storm = LinkEffect::LatencyStorm {
            extra: Duration::from_millis(100),
            jitter: Duration::ZERO,
        };
        for effect in [LinkEffect::PartitionOneWay, storm] {
            let schedule = FaultSchedule {
                events: vec![link(
                    s(4),
                    s(6),
                    NodeId::data_source(1),
                    NodeId::middleware(0),
                    effect,
                )],
            };
            let report = shrink_schedule(&schedule, 100, covers_5s).unwrap();
            let shrunk = report.minimized.events[0];
            assert!(shrunk.at < s(4), "{effect:?}: start not pulled earlier");
            assert!(covers_5s(&report.minimized));
        }
    }

    #[test]
    fn timing_pass_halves_windows() {
        // Single event, failure independent of timing: the window shrinks.
        let schedule = FaultSchedule {
            events: vec![partition(4, 12)],
        };
        let report =
            shrink_schedule(&schedule, 100, |s| s.events.iter().any(is_partition)).unwrap();
        assert_eq!(report.minimized_events, 1);
        match report.minimized.events[0] {
            FaultEvent {
                at,
                fault: Fault::Link { until, .. },
            } => {
                assert!(until < Duration::from_secs(12), "window not simplified");
                assert!(at <= Duration::from_secs(4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
