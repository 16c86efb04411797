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

use crate::schedule::{FaultEvent, FaultSchedule};

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
                    candidate[index] = variant.clone();
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

/// Candidate simplifications of one event, simplest first: pull the
/// activation instant halfway toward zero, and halve a windowed fault's
/// duration. Instant events only get the time pull.
fn simplify_event(event: &FaultEvent) -> Vec<FaultEvent> {
    // Quantized to whole microseconds: the virtual clock ticks in µs and the
    // replayable timeline stores µs, so finer durations would not round-trip.
    let halve_at = |at: &Duration| Duration::from_micros(at.as_micros() as u64 / 2);
    let halve_window = |at: &Duration, until: &Duration| {
        let length = until.saturating_sub(*at).as_micros() as u64;
        *at + Duration::from_micros(length / 2)
    };
    let mut variants = Vec::new();
    match event {
        FaultEvent::CrashDataSource { at, ds } => variants.push(FaultEvent::CrashDataSource {
            at: halve_at(at),
            ds: *ds,
        }),
        FaultEvent::RestartDataSource { at, ds } => variants.push(FaultEvent::RestartDataSource {
            at: halve_at(at),
            ds: *ds,
        }),
        FaultEvent::CrashMiddleware { at } => {
            variants.push(FaultEvent::CrashMiddleware { at: halve_at(at) })
        }
        FaultEvent::CrashMiddlewareAfterFlush { at } => {
            variants.push(FaultEvent::CrashMiddlewareAfterFlush { at: halve_at(at) })
        }
        FaultEvent::FailoverMiddleware { at } => {
            variants.push(FaultEvent::FailoverMiddleware { at: halve_at(at) })
        }
        FaultEvent::CrashCoordinator { at, dm } => variants.push(FaultEvent::CrashCoordinator {
            at: halve_at(at),
            dm: *dm,
        }),
        FaultEvent::CrashCoordinatorAfterFlush { at, dm } => {
            variants.push(FaultEvent::CrashCoordinatorAfterFlush {
                at: halve_at(at),
                dm: *dm,
            })
        }
        FaultEvent::RestartCoordinator { at, dm } => {
            variants.push(FaultEvent::RestartCoordinator {
                at: halve_at(at),
                dm: *dm,
            })
        }
        FaultEvent::Partition { at, until, a, b } => {
            variants.push(FaultEvent::Partition {
                at: *at,
                until: halve_window(at, until),
                a: *a,
                b: *b,
            });
            variants.push(FaultEvent::Partition {
                at: halve_at(at),
                until: *until,
                a: *a,
                b: *b,
            });
        }
        FaultEvent::PartitionOneWay {
            at,
            until,
            from,
            to,
        } => {
            variants.push(FaultEvent::PartitionOneWay {
                at: *at,
                until: halve_window(at, until),
                from: *from,
                to: *to,
            });
        }
        FaultEvent::LatencyStorm {
            at,
            until,
            a,
            b,
            extra,
            jitter,
        } => {
            variants.push(FaultEvent::LatencyStorm {
                at: *at,
                until: halve_window(at, until),
                a: *a,
                b: *b,
                extra: *extra,
                jitter: *jitter,
            });
        }
        FaultEvent::DropNotifications {
            at,
            until,
            from,
            to,
            probability,
        } => {
            variants.push(FaultEvent::DropNotifications {
                at: *at,
                until: halve_window(at, until),
                from: *from,
                to: *to,
                probability: *probability,
            });
        }
        FaultEvent::DuplicateNotifications {
            at,
            until,
            from,
            to,
            probability,
        } => {
            variants.push(FaultEvent::DuplicateNotifications {
                at: *at,
                until: halve_window(at, until),
                from: *from,
                to: *to,
                probability: *probability,
            });
        }
        FaultEvent::ClockSkewRamp {
            at,
            node,
            drift_ppm,
        } => variants.push(FaultEvent::ClockSkewRamp {
            at: halve_at(at),
            node: *node,
            drift_ppm: *drift_ppm,
        }),
    }
    // A zero-time variant equals the original for `at == 0`; drop no-ops.
    variants.retain(|v| v != event);
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_net::NodeId;

    fn crash(at_secs: u64, ds: u32) -> FaultEvent {
        FaultEvent::CrashDataSource {
            at: Duration::from_secs(at_secs),
            ds,
        }
    }

    fn partition(at_secs: u64, until_secs: u64) -> FaultEvent {
        FaultEvent::Partition {
            at: Duration::from_secs(at_secs),
            until: Duration::from_secs(until_secs),
            a: NodeId::middleware(0),
            b: NodeId::data_source(0),
        }
    }

    /// A synthetic failure oracle: the "bug" triggers iff ds1 crashes while
    /// some partition is scheduled. The shrinker must isolate exactly that
    /// pair out of a pile of noise events.
    fn synthetic_fails(schedule: &FaultSchedule) -> bool {
        let crash_ds1 = schedule
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::CrashDataSource { ds: 1, .. }));
        let any_partition = schedule
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::Partition { .. }));
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
                FaultEvent::ClockSkewRamp {
                    at: Duration::from_secs(1),
                    node: NodeId::data_source(2),
                    drift_ppm: 400,
                },
                crash(8, 2),
            ],
        };
        let report = shrink_schedule(&schedule, 200, synthetic_fails).expect("initial fails");
        assert!(!report.budget_exhausted);
        assert_eq!(report.minimized_events, 2, "{:?}", report.minimized);
        assert!(synthetic_fails(&report.minimized));
        assert!(report
            .minimized
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::CrashDataSource { ds: 1, .. })));
        assert!(report
            .minimized
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::Partition { .. })));
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
        let report = shrink_schedule(&schedule, 3, |s| {
            s.events
                .iter()
                .any(|e| matches!(e, FaultEvent::CrashDataSource { ds: 1, .. }))
        })
        .unwrap();
        assert!(report.budget_exhausted);
        assert!(report.runs <= 3);
        assert!(report
            .minimized
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::CrashDataSource { ds: 1, .. })));
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

    #[test]
    fn timing_pass_halves_windows() {
        // Single event, failure independent of timing: the window shrinks.
        let schedule = FaultSchedule {
            events: vec![partition(4, 12)],
        };
        let report = shrink_schedule(&schedule, 100, |s| {
            s.events
                .iter()
                .any(|e| matches!(e, FaultEvent::Partition { .. }))
        })
        .unwrap();
        assert_eq!(report.minimized_events, 1);
        match &report.minimized.events[0] {
            FaultEvent::Partition { at, until, .. } => {
                assert!(*until < Duration::from_secs(12), "window not simplified");
                assert!(*at <= Duration::from_secs(4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
