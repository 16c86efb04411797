//! The fault-schedule DSL.
//!
//! A [`FaultSchedule`] is a declarative timeline of faults, written either
//! explicitly (every preset in [`crate::presets`] is one) or generated from
//! a seed with [`FaultSchedule::random`]. Each entry is a [`FaultEvent`]: the
//! virtual-time instant `at` and the [`Fault`] that takes effect then.
//! Link faults ([`Fault::Link`]: partitions, latency storms, notification
//! loss) compile into the [`crate::ScheduleInjector`] consulted by the
//! network on every message; node-level faults (crashes, restarts, failover,
//! clock skew) are applied by the harness's controller task at their
//! instants.
//!
//! All instants are virtual-time offsets from the start of the run, and every
//! link fault carries its own heal time — the whole failure history is known
//! up front, which is what makes runs replayable and lets the injector answer
//! "when does this partition heal?" without hidden state.

use std::time::Duration;

use geotp_net::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::DS_RTTS_MS;

/// One scheduled fault: `fault` first takes effect at `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault takes effect (a link fault's window start).
    pub at: Duration,
    /// What happens.
    pub fault: Fault,
}

/// What a [`FaultEvent`] does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Data source `ds` crashes: volatile state is lost, blocked lock
    /// waiters are kicked out, requests fail until restart.
    CrashDataSource {
        /// Index of the data source.
        ds: u32,
    },
    /// Data source `ds` restarts: durable-prepared branches survive
    /// (recovered from the WAL via the XA state machine), everything else is
    /// rolled back.
    RestartDataSource {
        /// Index of the data source.
        ds: u32,
    },
    /// The coordinator process dies. In-flight transactions get no outcome;
    /// branches stay in doubt until failover.
    CrashMiddleware,
    /// Arm the one-shot fail point: the coordinator crashes right after its
    /// *next* commit-log flush — decision durable, never dispatched (the
    /// paper's §V-A recovery window).
    CrashMiddlewareAfterFlush,
    /// A successor coordinator takes over: data sources abort their
    /// unprepared branches (disconnect handling), the successor shares the
    /// durable commit log, replays it over the in-doubt branches and starts
    /// serving new transactions.
    FailoverMiddleware,
    /// Multi-coordinator tier: coordinator `dm` crashes. Its lease lapses
    /// (or the crash is observed directly), the cluster supervisor fences its
    /// epoch and a surviving peer adopts its in-doubt branches — no scripted
    /// failover event needed.
    CrashCoordinator {
        /// Index of the coordinator slot.
        dm: u32,
    },
    /// Multi-coordinator tier: arm the §V-A fail point on coordinator `dm` —
    /// it crashes right after its *next* commit-log flush, leaving a durable
    /// decision for the adopting peer to discover.
    CrashCoordinatorAfterFlush {
        /// Index of the coordinator slot.
        dm: u32,
    },
    /// Multi-coordinator tier: a successor process restarts slot `dm` — it
    /// re-registers for a fresh epoch (above any fence), shares the slot's
    /// durable commit log, recovers its own in-doubt branches and resumes
    /// serving (the router re-homes the slot's sessions). With every
    /// coordinator dead this is the tier's *cold* recovery entry point.
    RestartCoordinator {
        /// Index of the coordinator slot.
        dm: u32,
    },
    /// `effect` holds on the `from → to` link (both directions when
    /// [`LinkEffect::both_ways`]) during `[at, until)`.
    Link {
        /// Heal instant (exclusive end of the window).
        until: Duration,
        /// Sender (one endpoint of a two-way effect).
        from: NodeId,
        /// Receiver (the other endpoint of a two-way effect).
        to: NodeId,
        /// What the link does during the window.
        effect: LinkEffect,
    },
    /// From `at` on, `node`'s local clock drifts by `drift_ppm` parts per
    /// million relative to true (virtual) time. Purely observational: the
    /// commit protocol never reads node-local clocks, and the scenario's
    /// green invariants demonstrate exactly that; the trace records
    /// node-local timestamps so the skew is visible.
    ClockSkewRamp {
        /// The drifting node.
        node: NodeId,
        /// Drift rate in parts per million (positive = fast clock).
        drift_ppm: i64,
    },
}

/// What a [`Fault::Link`] does to the messages on its link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkEffect {
    /// Both directions are blocked.
    Partition,
    /// Only `from → to` is blocked — an asymmetric partition (replies still
    /// flow).
    PartitionOneWay,
    /// Every message in both directions pays `extra` (plus up to `jitter`,
    /// drawn per message — which reorders messages relative to each other).
    LatencyStorm {
        /// Deterministic extra one-way delay.
        extra: Duration,
        /// Upper bound of the per-message uniform jitter.
        jitter: Duration,
    },
    /// Each fire-and-forget notification on `from → to` is dropped with
    /// `probability`.
    DropNotifications {
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Each fire-and-forget notification on `from → to` is delivered twice
    /// with `probability`.
    DuplicateNotifications {
        /// Per-message duplication probability in `[0, 1]`.
        probability: f64,
    },
}

impl Fault {
    /// A [`Fault::Link`]: `effect` on `from → to` until `until`.
    pub const fn link(until: Duration, from: NodeId, to: NodeId, effect: LinkEffect) -> Self {
        Fault::Link {
            until,
            from,
            to,
            effect,
        }
    }
}

impl LinkEffect {
    /// Whether the effect holds in both directions (its timeline endpoints
    /// are `a=` / `b=` rather than `from=` / `to=`).
    pub fn both_ways(&self) -> bool {
        matches!(
            self,
            LinkEffect::Partition | LinkEffect::LatencyStorm { .. }
        )
    }

    /// The event kind in the timeline text.
    fn kind(&self) -> &'static str {
        match self {
            LinkEffect::Partition => "partition",
            LinkEffect::PartitionOneWay => "partition_oneway",
            LinkEffect::LatencyStorm { .. } => "latency_storm",
            LinkEffect::DropNotifications { .. } => "drop_notifications",
            LinkEffect::DuplicateNotifications { .. } => "duplicate_notifications",
        }
    }

    /// The timeline keys of the link's endpoints.
    fn endpoint_keys(&self) -> (&'static str, &'static str) {
        if self.both_ways() {
            ("a", "b")
        } else {
            ("from", "to")
        }
    }
}

/// The window of [`FaultSchedule::random`]'s faults: every fault starts and
/// heals inside the first 36 s, leaving the tail of the run fault-free so
/// in-flight work can drain.
const RANDOM_ACTIVE_MS: u64 = 36_000;

/// A declarative fault timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// The scheduled events, in no particular order (consumers sort by
    /// [`FaultEvent::at`]).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (a plain, fault-free run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style push: `fault` takes effect at `at`.
    pub fn with(mut self, at: Duration, fault: Fault) -> Self {
        self.events.push(FaultEvent { at, fault });
        self
    }

    /// The node-level events, sorted by activation time (ties keep push
    /// order, so schedules are unambiguous).
    pub fn node_events(&self) -> Vec<FaultEvent> {
        let mut events: Vec<FaultEvent> = self
            .events
            .iter()
            .filter(|e| !matches!(e.fault, Fault::Link { .. }))
            .copied()
            .collect();
        events.sort_by_key(|e| e.at);
        events
    }

    /// The latest instant at which any fault is still active — the "all
    /// faults healed" horizon the liveness checker builds on.
    pub fn last_fault_instant(&self) -> Duration {
        self.events
            .iter()
            .map(|e| match e.fault {
                Fault::Link { until, .. } => until,
                _ => e.at,
            })
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Render the schedule as an explicit, replayable timeline: one line per
    /// event, microsecond-precision, round-tripping losslessly through
    /// [`FaultSchedule::parse_timeline`]. This is the artifact the schedule
    /// shrinker emits — a minimized repro anyone can re-run without the
    /// original seed.
    pub fn to_timeline(&self) -> String {
        let mut out = String::from("# geotp-chaos fault timeline v1\n");
        let us = |d: Duration| d.as_micros();
        for event in &self.events {
            let at = us(event.at);
            let line = match event.fault {
                Fault::CrashDataSource { ds } => format!("crash_ds at_us={at} ds={ds}"),
                Fault::RestartDataSource { ds } => format!("restart_ds at_us={at} ds={ds}"),
                Fault::CrashMiddleware => format!("crash_middleware at_us={at}"),
                Fault::CrashMiddlewareAfterFlush => {
                    format!("crash_middleware_after_flush at_us={at}")
                }
                Fault::FailoverMiddleware => format!("failover_middleware at_us={at}"),
                Fault::CrashCoordinator { dm } => format!("crash_coordinator at_us={at} dm={dm}"),
                Fault::CrashCoordinatorAfterFlush { dm } => {
                    format!("crash_coordinator_after_flush at_us={at} dm={dm}")
                }
                Fault::RestartCoordinator { dm } => {
                    format!("restart_coordinator at_us={at} dm={dm}")
                }
                Fault::Link {
                    until,
                    from,
                    to,
                    effect,
                } => {
                    let (a, b) = effect.endpoint_keys();
                    let head = format!(
                        "{} at_us={at} until_us={} {a}={from} {b}={to}",
                        effect.kind(),
                        us(until)
                    );
                    match effect {
                        LinkEffect::LatencyStorm { extra, jitter } => {
                            format!("{head} extra_us={} jitter_us={}", us(extra), us(jitter))
                        }
                        LinkEffect::DropNotifications { probability }
                        | LinkEffect::DuplicateNotifications { probability } => {
                            format!("{head} p={probability}")
                        }
                        LinkEffect::Partition | LinkEffect::PartitionOneWay => head,
                    }
                }
                Fault::ClockSkewRamp { node, drift_ppm } => {
                    format!("clock_skew at_us={at} node={node} drift_ppm={drift_ppm}")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parse a timeline produced by [`FaultSchedule::to_timeline`] (blank
    /// lines and `#` comments ignored). Errors name the offending line.
    pub fn parse_timeline(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (number, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            events.push(
                parse_timeline_event(line)
                    .map_err(|e| format!("timeline line {}: {e} ({line:?})", number + 1))?,
            );
        }
        Ok(Self { events })
    }

    /// Generate `faults` random — but fully deterministic for a given
    /// `seed` — faults on the chaos deployment's data sources: every link
    /// fault heals and every crashed source restarts within the first 36 s,
    /// so liveness is checkable.
    pub fn random(seed: u64, faults: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut schedule = Self::new();
        let dm = NodeId::middleware(0);
        let rand_window = |rng: &mut StdRng| {
            let start = rng.gen_range(500..RANDOM_ACTIVE_MS / 2);
            let len = rng.gen_range(500..=RANDOM_ACTIVE_MS / 4);
            (
                Duration::from_millis(start),
                Duration::from_millis((start + len).min(RANDOM_ACTIVE_MS)),
            )
        };
        for _ in 0..faults {
            let ds = rng.gen_range(0..DS_RTTS_MS.len() as u32);
            let node = NodeId::data_source(ds);
            let kind = rng.gen_range(0..5u32);
            let (at, until) = rand_window(&mut rng);
            let link = |from, to, effect| Fault::link(until, from, to, effect);
            schedule = match kind {
                0 => schedule
                    .with(at, Fault::CrashDataSource { ds })
                    .with(until, Fault::RestartDataSource { ds }),
                1 => schedule.with(at, link(dm, node, LinkEffect::Partition)),
                2 => {
                    let extra = Duration::from_millis(rng.gen_range(20..200));
                    let jitter = Duration::from_millis(rng.gen_range(0..50));
                    schedule.with(
                        at,
                        link(dm, node, LinkEffect::LatencyStorm { extra, jitter }),
                    )
                }
                3 => {
                    let probability = rng.gen_range(0.05..0.4);
                    schedule.with(
                        at,
                        link(node, dm, LinkEffect::DropNotifications { probability }),
                    )
                }
                _ => schedule.with(at, link(node, dm, LinkEffect::PartitionOneWay)),
            };
        }
        schedule
    }
}

/// One `key=value` field extractor for [`FaultSchedule::parse_timeline`].
fn timeline_field<'a>(fields: &'a [&str], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find_map(|f| f.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        .ok_or_else(|| format!("missing field {key}"))
}

fn parse_us(fields: &[&str], key: &str) -> Result<Duration, String> {
    let value = timeline_field(fields, key)?;
    value
        .parse::<u64>()
        .map(Duration::from_micros)
        .map_err(|_| format!("field {key} is not a microsecond count"))
}

fn parse_num<T: std::str::FromStr>(fields: &[&str], key: &str) -> Result<T, String> {
    timeline_field(fields, key)?
        .parse::<T>()
        .map_err(|_| format!("field {key} has an invalid value"))
}

fn parse_node(fields: &[&str], key: &str) -> Result<NodeId, String> {
    let value = timeline_field(fields, key)?;
    let (ctor, index): (fn(u32) -> NodeId, &str) = if let Some(i) = value.strip_prefix("dm") {
        (NodeId::middleware, i)
    } else if let Some(i) = value.strip_prefix("ds") {
        (NodeId::data_source, i)
    } else if let Some(i) = value.strip_prefix("ctl") {
        (NodeId::control, i)
    } else if let Some(i) = value.strip_prefix("client") {
        (NodeId::client, i)
    } else {
        return Err(format!(
            "field {key} is not a node id (dm<N>/ds<N>/ctl<N>/client<N>)"
        ));
    };
    index
        .parse::<u32>()
        .map(ctor)
        .map_err(|_| format!("field {key} has a non-numeric node index"))
}

fn parse_timeline_event(line: &str) -> Result<FaultEvent, String> {
    let mut parts = line.split_whitespace();
    let kind = parts.next().ok_or("empty event")?;
    let fields: Vec<&str> = parts.collect();
    let link = |effect: LinkEffect| -> Result<Fault, String> {
        let (a, b) = effect.endpoint_keys();
        Ok(Fault::Link {
            until: parse_us(&fields, "until_us")?,
            from: parse_node(&fields, a)?,
            to: parse_node(&fields, b)?,
            effect,
        })
    };
    let fault = match kind {
        "crash_ds" => Fault::CrashDataSource {
            ds: parse_num(&fields, "ds")?,
        },
        "restart_ds" => Fault::RestartDataSource {
            ds: parse_num(&fields, "ds")?,
        },
        "crash_middleware" => Fault::CrashMiddleware,
        "crash_middleware_after_flush" => Fault::CrashMiddlewareAfterFlush,
        "failover_middleware" => Fault::FailoverMiddleware,
        "crash_coordinator" => Fault::CrashCoordinator {
            dm: parse_num(&fields, "dm")?,
        },
        "crash_coordinator_after_flush" => Fault::CrashCoordinatorAfterFlush {
            dm: parse_num(&fields, "dm")?,
        },
        "restart_coordinator" => Fault::RestartCoordinator {
            dm: parse_num(&fields, "dm")?,
        },
        "partition" => link(LinkEffect::Partition)?,
        "partition_oneway" => link(LinkEffect::PartitionOneWay)?,
        "latency_storm" => link(LinkEffect::LatencyStorm {
            extra: parse_us(&fields, "extra_us")?,
            jitter: parse_us(&fields, "jitter_us")?,
        })?,
        "drop_notifications" => link(LinkEffect::DropNotifications {
            probability: parse_num(&fields, "p")?,
        })?,
        "duplicate_notifications" => link(LinkEffect::DuplicateNotifications {
            probability: parse_num(&fields, "p")?,
        })?,
        "clock_skew" => Fault::ClockSkewRamp {
            node: parse_node(&fields, "node")?,
            drift_ppm: parse_num(&fields, "drift_ppm")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(FaultEvent {
        at: parse_us(&fields, "at_us")?,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DM: NodeId = NodeId::middleware(0);

    fn ds(index: u32) -> NodeId {
        NodeId::data_source(index)
    }

    #[test]
    fn node_events_sort_by_time() {
        let s = |secs| Duration::from_secs(secs);
        let schedule = FaultSchedule::new()
            .with(s(8), Fault::RestartDataSource { ds: 1 })
            .with(s(3), Fault::CrashDataSource { ds: 1 })
            .with(s(1), Fault::link(s(2), DM, ds(0), LinkEffect::Partition));
        let node = schedule.node_events();
        assert_eq!(node.len(), 2);
        assert_eq!(node[0].at, s(3));
        assert_eq!(node[1].at, s(8));
        assert_eq!(schedule.last_fault_instant(), s(8));
    }

    #[test]
    fn timeline_round_trips_every_event_kind() {
        let ms = Duration::from_millis;
        let schedule = FaultSchedule::new()
            .with(ms(3000), Fault::CrashDataSource { ds: 1 })
            .with(ms(8000), Fault::RestartDataSource { ds: 1 })
            .with(ms(100), Fault::CrashMiddleware)
            .with(ms(2500), Fault::CrashMiddlewareAfterFlush)
            .with(ms(5000), Fault::FailoverMiddleware)
            .with(ms(2000), Fault::CrashCoordinator { dm: 1 })
            .with(ms(2250), Fault::CrashCoordinatorAfterFlush { dm: 0 })
            .with(ms(6000), Fault::RestartCoordinator { dm: 1 })
            .with(
                ms(1000),
                Fault::link(
                    ms(7000),
                    NodeId::middleware(1),
                    NodeId::control(0),
                    LinkEffect::Partition,
                ),
            )
            .with(
                ms(2000),
                Fault::link(ms(6000), DM, ds(2), LinkEffect::Partition),
            )
            .with(
                ms(2000),
                Fault::link(ms(5000), ds(1), DM, LinkEffect::PartitionOneWay),
            )
            .with(
                ms(1000),
                Fault::link(
                    ms(9000),
                    DM,
                    ds(0),
                    LinkEffect::LatencyStorm {
                        extra: ms(150),
                        jitter: ms(50),
                    },
                ),
            )
            .with(
                ms(1000),
                Fault::link(
                    ms(8000),
                    ds(0),
                    DM,
                    LinkEffect::DropNotifications { probability: 0.325 },
                ),
            )
            .with(
                ms(1000),
                Fault::link(
                    ms(8000),
                    ds(2),
                    DM,
                    LinkEffect::DuplicateNotifications { probability: 0.5 },
                ),
            )
            .with(
                ms(1000),
                Fault::ClockSkewRamp {
                    node: ds(2),
                    drift_ppm: -250,
                },
            );
        let timeline = schedule.to_timeline();
        assert_eq!(
            timeline,
            concat!(
                "# geotp-chaos fault timeline v1\n",
                "crash_ds at_us=3000000 ds=1\n",
                "restart_ds at_us=8000000 ds=1\n",
                "crash_middleware at_us=100000\n",
                "crash_middleware_after_flush at_us=2500000\n",
                "failover_middleware at_us=5000000\n",
                "crash_coordinator at_us=2000000 dm=1\n",
                "crash_coordinator_after_flush at_us=2250000 dm=0\n",
                "restart_coordinator at_us=6000000 dm=1\n",
                "partition at_us=1000000 until_us=7000000 a=dm1 b=ctl0\n",
                "partition at_us=2000000 until_us=6000000 a=dm0 b=ds2\n",
                "partition_oneway at_us=2000000 until_us=5000000 from=ds1 to=dm0\n",
                "latency_storm at_us=1000000 until_us=9000000 a=dm0 b=ds0 extra_us=150000 jitter_us=50000\n",
                "drop_notifications at_us=1000000 until_us=8000000 from=ds0 to=dm0 p=0.325\n",
                "duplicate_notifications at_us=1000000 until_us=8000000 from=ds2 to=dm0 p=0.5\n",
                "clock_skew at_us=1000000 node=ds2 drift_ppm=-250\n",
            )
        );
        let parsed = FaultSchedule::parse_timeline(&timeline).expect("round trip");
        assert_eq!(parsed, schedule);
        // A random seeded schedule round-trips too (the shrinker's input).
        let random = FaultSchedule::random(9, 4);
        let parsed = FaultSchedule::parse_timeline(&random.to_timeline()).unwrap();
        assert_eq!(parsed, random);
    }

    /// The exact draws of two random schedules: the one `shrink_repro`
    /// feeds the shrinker (seed 1, eight faults) and a four-fault one with a
    /// storm and a crash. The draw order is part of every
    /// `randomized_faults` fingerprint.
    #[test]
    fn random_schedule_text_is_pinned() {
        let shrink_input = FaultSchedule::random(1, 8);
        assert_eq!(
            shrink_input.to_timeline(),
            concat!(
                "# geotp-chaos fault timeline v1\n",
                "drop_notifications at_us=9847000 until_us=15438000 from=ds2 to=dm0 p=0.1669674108527209\n",
                "partition_oneway at_us=13373000 until_us=15178000 from=ds0 to=dm0\n",
                "drop_notifications at_us=2723000 until_us=4412000 from=ds2 to=dm0 p=0.20375954761808346\n",
                "partition at_us=6348000 until_us=14245000 a=dm0 b=ds2\n",
                "partition at_us=6358000 until_us=7400000 a=dm0 b=ds1\n",
                "drop_notifications at_us=16364000 until_us=17151000 from=ds0 to=dm0 p=0.22038077383458693\n",
                "drop_notifications at_us=9410000 until_us=11671000 from=ds1 to=dm0 p=0.07962846874891022\n",
                "partition at_us=4158000 until_us=7792000 a=dm0 b=ds1\n",
            )
        );
        let four = FaultSchedule::random(9, 4);
        assert_eq!(
            four.to_timeline(),
            concat!(
                "# geotp-chaos fault timeline v1\n",
                "latency_storm at_us=14760000 until_us=19391000 a=dm0 b=ds0 extra_us=174000 jitter_us=17000\n",
                "latency_storm at_us=15270000 until_us=19923000 a=dm0 b=ds1 extra_us=66000 jitter_us=29000\n",
                "latency_storm at_us=17451000 until_us=18928000 a=dm0 b=ds1 extra_us=85000 jitter_us=36000\n",
                "crash_ds at_us=2811000 ds=2\n",
                "restart_ds at_us=6943000 ds=2\n",
            )
        );
    }

    #[test]
    fn timeline_parse_reports_bad_lines() {
        assert!(FaultSchedule::parse_timeline("warp_core_breach at_us=1").is_err());
        assert!(
            FaultSchedule::parse_timeline("crash_ds ds=1").is_err(),
            "missing at_us"
        );
        assert!(
            FaultSchedule::parse_timeline("partition at_us=1 until_us=2 a=dm0 b=mars3").is_err()
        );
        // Comments and blank lines are fine.
        let ok = FaultSchedule::parse_timeline("# comment\n\ncrash_ds at_us=5 ds=0\n").unwrap();
        assert_eq!(ok.events.len(), 1);
    }

    #[test]
    fn random_schedules_are_deterministic_and_heal() {
        let a = FaultSchedule::random(11, 4);
        let b = FaultSchedule::random(11, 4);
        let c = FaultSchedule::random(12, 4);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(!a.events.is_empty());
        assert!(a.last_fault_instant() <= Duration::from_millis(RANDOM_ACTIVE_MS));
        // Every crash has a matching restart.
        let count = |kind: fn(&Fault) -> bool| a.events.iter().filter(|e| kind(&e.fault)).count();
        assert_eq!(
            count(|f| matches!(f, Fault::CrashDataSource { .. })),
            count(|f| matches!(f, Fault::RestartDataSource { .. }))
        );
    }
}
