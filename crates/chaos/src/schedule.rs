//! The fault-schedule DSL.
//!
//! A [`FaultSchedule`] is a declarative timeline of faults, written either
//! explicitly (every preset in [`crate::presets`] is one) or generated from
//! a seed with [`FaultSchedule::random`]. Link-level events (partitions,
//! latency storms, notification loss) compile into the
//! [`crate::ScheduleInjector`] consulted by the network on every message;
//! node-level events (crashes, restarts, failover, clock skew) are applied by
//! the harness's controller task at their scheduled instants.
//!
//! All instants are virtual-time offsets from the start of the run, and every
//! windowed fault carries its own heal time — the whole failure history is
//! known up front, which is what makes runs replayable and lets the injector
//! answer "when does this partition heal?" without hidden state.

use std::time::Duration;

use geotp_net::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Data source `ds` crashes at `at`: volatile state is lost, blocked
    /// lock waiters are kicked out, requests fail until restart.
    CrashDataSource {
        /// When the crash happens.
        at: Duration,
        /// Index of the data source.
        ds: u32,
    },
    /// Data source `ds` restarts at `at`: durable-prepared branches survive
    /// (recovered from the WAL via the XA state machine), everything else is
    /// rolled back.
    RestartDataSource {
        /// When the restart happens.
        at: Duration,
        /// Index of the data source.
        ds: u32,
    },
    /// The coordinator process dies at `at`. In-flight transactions get no
    /// outcome; branches stay in doubt until failover.
    CrashMiddleware {
        /// When the crash happens.
        at: Duration,
    },
    /// Arm the one-shot fail point at `at`: the coordinator crashes right
    /// after its *next* commit-log flush — decision durable, never
    /// dispatched (the paper's §V-A recovery window).
    CrashMiddlewareAfterFlush {
        /// When the fail point is armed.
        at: Duration,
    },
    /// A successor coordinator takes over at `at`: data sources abort their
    /// unprepared branches (disconnect handling), the successor shares the
    /// durable commit log, replays it over the in-doubt branches and starts
    /// serving new transactions.
    FailoverMiddleware {
        /// When the failover completes.
        at: Duration,
    },
    /// Multi-coordinator tier: coordinator `dm` crashes at `at`. Its lease
    /// lapses (or the crash is observed directly), the cluster supervisor
    /// fences its epoch and a surviving peer adopts its in-doubt branches —
    /// no scripted failover event needed.
    CrashCoordinator {
        /// When the crash happens.
        at: Duration,
        /// Index of the coordinator slot.
        dm: u32,
    },
    /// Multi-coordinator tier: arm the §V-A fail point on coordinator `dm`
    /// at `at` — it crashes right after its *next* commit-log flush, leaving
    /// a durable decision for the adopting peer to discover.
    CrashCoordinatorAfterFlush {
        /// When the fail point is armed.
        at: Duration,
        /// Index of the coordinator slot.
        dm: u32,
    },
    /// Multi-coordinator tier: a successor process restarts slot `dm` at
    /// `at` — it re-registers for a fresh epoch (above any fence), shares the
    /// slot's durable commit log, recovers its own in-doubt branches and
    /// resumes serving (the router re-homes the slot's sessions). With every
    /// coordinator dead this is the tier's *cold* recovery entry point.
    RestartCoordinator {
        /// When the restart happens.
        at: Duration,
        /// Index of the coordinator slot.
        dm: u32,
    },
    /// Both directions between `a` and `b` are blocked during `[at, until)`.
    Partition {
        /// Partition start.
        at: Duration,
        /// Heal instant (exclusive end of the window).
        until: Duration,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Only the `from → to` direction is blocked during `[at, until)` —
    /// an asymmetric partition (replies still flow).
    PartitionOneWay {
        /// Partition start.
        at: Duration,
        /// Heal instant.
        until: Duration,
        /// Blocked sender.
        from: NodeId,
        /// Unreachable receiver.
        to: NodeId,
    },
    /// Every message between `a` and `b` pays `extra` (plus up to `jitter`,
    /// drawn per message — which reorders messages relative to each other)
    /// during `[at, until)`.
    LatencyStorm {
        /// Storm start.
        at: Duration,
        /// Storm end.
        until: Duration,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Deterministic extra one-way delay.
        extra: Duration,
        /// Upper bound of the per-message uniform jitter.
        jitter: Duration,
    },
    /// Each fire-and-forget notification on `from → to` is dropped with
    /// `probability` during `[at, until)`.
    DropNotifications {
        /// Window start.
        at: Duration,
        /// Window end.
        until: Duration,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Each fire-and-forget notification on `from → to` is delivered twice
    /// with `probability` during `[at, until)`.
    DuplicateNotifications {
        /// Window start.
        at: Duration,
        /// Window end.
        until: Duration,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Per-message duplication probability in `[0, 1]`.
        probability: f64,
    },
    /// From `at` on, `node`'s local clock drifts by `drift_ppm` parts per
    /// million relative to true (virtual) time. Purely observational: the
    /// commit protocol never reads node-local clocks, and the scenario's
    /// green invariants demonstrate exactly that; the trace records
    /// node-local timestamps so the skew is visible.
    ClockSkewRamp {
        /// When the drift starts.
        at: Duration,
        /// The drifting node.
        node: NodeId,
        /// Drift rate in parts per million (positive = fast clock).
        drift_ppm: i64,
    },
}

impl FaultEvent {
    /// The instant this event first takes effect.
    pub fn at(&self) -> Duration {
        match self {
            FaultEvent::CrashDataSource { at, .. }
            | FaultEvent::RestartDataSource { at, .. }
            | FaultEvent::CrashMiddleware { at }
            | FaultEvent::CrashMiddlewareAfterFlush { at }
            | FaultEvent::FailoverMiddleware { at }
            | FaultEvent::CrashCoordinator { at, .. }
            | FaultEvent::CrashCoordinatorAfterFlush { at, .. }
            | FaultEvent::RestartCoordinator { at, .. }
            | FaultEvent::Partition { at, .. }
            | FaultEvent::PartitionOneWay { at, .. }
            | FaultEvent::LatencyStorm { at, .. }
            | FaultEvent::DropNotifications { at, .. }
            | FaultEvent::DuplicateNotifications { at, .. }
            | FaultEvent::ClockSkewRamp { at, .. } => *at,
        }
    }

    /// Whether the harness controller (rather than the network injector)
    /// applies this event.
    fn is_node_event(&self) -> bool {
        matches!(
            self,
            FaultEvent::CrashDataSource { .. }
                | FaultEvent::RestartDataSource { .. }
                | FaultEvent::CrashMiddleware { .. }
                | FaultEvent::CrashMiddlewareAfterFlush { .. }
                | FaultEvent::FailoverMiddleware { .. }
                | FaultEvent::CrashCoordinator { .. }
                | FaultEvent::CrashCoordinatorAfterFlush { .. }
                | FaultEvent::RestartCoordinator { .. }
                | FaultEvent::ClockSkewRamp { .. }
        )
    }
}

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

    /// Builder-style push.
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The node-level events, sorted by activation time (ties keep push
    /// order, so schedules are unambiguous).
    pub fn node_events(&self) -> Vec<FaultEvent> {
        let mut events: Vec<FaultEvent> = self
            .events
            .iter()
            .filter(|e| e.is_node_event())
            .cloned()
            .collect();
        events.sort_by_key(|e| e.at());
        events
    }

    /// The latest instant at which any fault is still active — the "all
    /// faults healed" horizon the liveness checker builds on.
    pub fn last_fault_instant(&self) -> Duration {
        self.events
            .iter()
            .map(|e| match e {
                FaultEvent::Partition { until, .. }
                | FaultEvent::PartitionOneWay { until, .. }
                | FaultEvent::LatencyStorm { until, .. }
                | FaultEvent::DropNotifications { until, .. }
                | FaultEvent::DuplicateNotifications { until, .. } => *until,
                other => other.at(),
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
        let us = |d: &Duration| d.as_micros();
        for event in &self.events {
            let line = match event {
                FaultEvent::CrashDataSource { at, ds } => {
                    format!("crash_ds at_us={} ds={ds}", us(at))
                }
                FaultEvent::RestartDataSource { at, ds } => {
                    format!("restart_ds at_us={} ds={ds}", us(at))
                }
                FaultEvent::CrashMiddleware { at } => {
                    format!("crash_middleware at_us={}", us(at))
                }
                FaultEvent::CrashMiddlewareAfterFlush { at } => {
                    format!("crash_middleware_after_flush at_us={}", us(at))
                }
                FaultEvent::FailoverMiddleware { at } => {
                    format!("failover_middleware at_us={}", us(at))
                }
                FaultEvent::CrashCoordinator { at, dm } => {
                    format!("crash_coordinator at_us={} dm={dm}", us(at))
                }
                FaultEvent::CrashCoordinatorAfterFlush { at, dm } => {
                    format!("crash_coordinator_after_flush at_us={} dm={dm}", us(at))
                }
                FaultEvent::RestartCoordinator { at, dm } => {
                    format!("restart_coordinator at_us={} dm={dm}", us(at))
                }
                FaultEvent::Partition { at, until, a, b } => {
                    format!("partition at_us={} until_us={} a={a} b={b}", us(at), us(until))
                }
                FaultEvent::PartitionOneWay {
                    at,
                    until,
                    from,
                    to,
                } => format!(
                    "partition_oneway at_us={} until_us={} from={from} to={to}",
                    us(at),
                    us(until)
                ),
                FaultEvent::LatencyStorm {
                    at,
                    until,
                    a,
                    b,
                    extra,
                    jitter,
                } => format!(
                    "latency_storm at_us={} until_us={} a={a} b={b} extra_us={} jitter_us={}",
                    us(at),
                    us(until),
                    us(extra),
                    us(jitter)
                ),
                FaultEvent::DropNotifications {
                    at,
                    until,
                    from,
                    to,
                    probability,
                } => format!(
                    "drop_notifications at_us={} until_us={} from={from} to={to} p={probability}",
                    us(at),
                    us(until)
                ),
                FaultEvent::DuplicateNotifications {
                    at,
                    until,
                    from,
                    to,
                    probability,
                } => format!(
                    "duplicate_notifications at_us={} until_us={} from={from} to={to} p={probability}",
                    us(at),
                    us(until)
                ),
                FaultEvent::ClockSkewRamp { at, node, drift_ppm } => format!(
                    "clock_skew at_us={} node={node} drift_ppm={drift_ppm}",
                    us(at)
                ),
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

    /// Generate a random — but fully deterministic for a given `seed` —
    /// schedule: every windowed fault heals and every crashed node restarts
    /// before `cfg.horizon`, so liveness is checkable.
    ///
    /// Horizons below 4 s are treated as 4 s: fault windows need room for a
    /// ≥0.5 s start offset and a ≥0.5 s duration, so there is a floor under
    /// which no meaningful schedule exists.
    pub fn random(seed: u64, cfg: &RandomFaultConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut events = Vec::new();
        let dm = NodeId::middleware(0);
        let horizon_ms = (cfg.horizon.as_millis() as u64).max(4_000);
        // Keep a tail of the run fault-free so in-flight work can drain.
        let active_ms = horizon_ms.saturating_mul(6) / 10;
        let rand_window = |rng: &mut StdRng| {
            let start = rng.gen_range(500..active_ms / 2);
            let len = rng.gen_range(500..=active_ms / 4);
            (
                Duration::from_millis(start),
                Duration::from_millis((start + len).min(active_ms)),
            )
        };
        for _ in 0..cfg.faults {
            let ds = rng.gen_range(0..cfg.data_sources);
            let node = NodeId::data_source(ds);
            match rng.gen_range(0..5u32) {
                0 => {
                    let (at, until) = rand_window(&mut rng);
                    events.push(FaultEvent::CrashDataSource { at, ds });
                    events.push(FaultEvent::RestartDataSource { at: until, ds });
                }
                1 => {
                    let (at, until) = rand_window(&mut rng);
                    events.push(FaultEvent::Partition {
                        at,
                        until,
                        a: dm,
                        b: node,
                    });
                }
                2 => {
                    let (at, until) = rand_window(&mut rng);
                    events.push(FaultEvent::LatencyStorm {
                        at,
                        until,
                        a: dm,
                        b: node,
                        extra: Duration::from_millis(rng.gen_range(20..200)),
                        jitter: Duration::from_millis(rng.gen_range(0..50)),
                    });
                }
                3 => {
                    let (at, until) = rand_window(&mut rng);
                    events.push(FaultEvent::DropNotifications {
                        at,
                        until,
                        from: node,
                        to: dm,
                        probability: rng.gen_range(0.05..0.4),
                    });
                }
                _ => {
                    let (at, until) = rand_window(&mut rng);
                    events.push(FaultEvent::PartitionOneWay {
                        at,
                        until,
                        from: node,
                        to: dm,
                    });
                }
            }
        }
        Self { events }
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
    let event = match kind {
        "crash_ds" => FaultEvent::CrashDataSource {
            at: parse_us(&fields, "at_us")?,
            ds: parse_num(&fields, "ds")?,
        },
        "restart_ds" => FaultEvent::RestartDataSource {
            at: parse_us(&fields, "at_us")?,
            ds: parse_num(&fields, "ds")?,
        },
        "crash_middleware" => FaultEvent::CrashMiddleware {
            at: parse_us(&fields, "at_us")?,
        },
        "crash_middleware_after_flush" => FaultEvent::CrashMiddlewareAfterFlush {
            at: parse_us(&fields, "at_us")?,
        },
        "failover_middleware" => FaultEvent::FailoverMiddleware {
            at: parse_us(&fields, "at_us")?,
        },
        "crash_coordinator" => FaultEvent::CrashCoordinator {
            at: parse_us(&fields, "at_us")?,
            dm: parse_num(&fields, "dm")?,
        },
        "crash_coordinator_after_flush" => FaultEvent::CrashCoordinatorAfterFlush {
            at: parse_us(&fields, "at_us")?,
            dm: parse_num(&fields, "dm")?,
        },
        "restart_coordinator" => FaultEvent::RestartCoordinator {
            at: parse_us(&fields, "at_us")?,
            dm: parse_num(&fields, "dm")?,
        },
        "partition" => FaultEvent::Partition {
            at: parse_us(&fields, "at_us")?,
            until: parse_us(&fields, "until_us")?,
            a: parse_node(&fields, "a")?,
            b: parse_node(&fields, "b")?,
        },
        "partition_oneway" => FaultEvent::PartitionOneWay {
            at: parse_us(&fields, "at_us")?,
            until: parse_us(&fields, "until_us")?,
            from: parse_node(&fields, "from")?,
            to: parse_node(&fields, "to")?,
        },
        "latency_storm" => FaultEvent::LatencyStorm {
            at: parse_us(&fields, "at_us")?,
            until: parse_us(&fields, "until_us")?,
            a: parse_node(&fields, "a")?,
            b: parse_node(&fields, "b")?,
            extra: parse_us(&fields, "extra_us")?,
            jitter: parse_us(&fields, "jitter_us")?,
        },
        "drop_notifications" => FaultEvent::DropNotifications {
            at: parse_us(&fields, "at_us")?,
            until: parse_us(&fields, "until_us")?,
            from: parse_node(&fields, "from")?,
            to: parse_node(&fields, "to")?,
            probability: parse_num(&fields, "p")?,
        },
        "duplicate_notifications" => FaultEvent::DuplicateNotifications {
            at: parse_us(&fields, "at_us")?,
            until: parse_us(&fields, "until_us")?,
            from: parse_node(&fields, "from")?,
            to: parse_node(&fields, "to")?,
            probability: parse_num(&fields, "p")?,
        },
        "clock_skew" => FaultEvent::ClockSkewRamp {
            at: parse_us(&fields, "at_us")?,
            node: parse_node(&fields, "node")?,
            drift_ppm: parse_num(&fields, "drift_ppm")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(event)
}

/// Parameters for [`FaultSchedule::random`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomFaultConfig {
    /// Number of data sources faults may target.
    pub data_sources: u32,
    /// How many faults to draw.
    pub faults: u32,
    /// Run horizon: every fault heals comfortably before it. Values below
    /// 4 s are clamped up to 4 s (see [`FaultSchedule::random`]).
    pub horizon: Duration,
}

impl Default for RandomFaultConfig {
    fn default() -> Self {
        Self {
            data_sources: 3,
            faults: 4,
            horizon: Duration::from_secs(60),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_events_sort_by_time() {
        let s = FaultSchedule::new()
            .with(FaultEvent::RestartDataSource {
                at: Duration::from_secs(8),
                ds: 1,
            })
            .with(FaultEvent::CrashDataSource {
                at: Duration::from_secs(3),
                ds: 1,
            })
            .with(FaultEvent::Partition {
                at: Duration::from_secs(1),
                until: Duration::from_secs(2),
                a: NodeId::middleware(0),
                b: NodeId::data_source(0),
            });
        let node = s.node_events();
        assert_eq!(node.len(), 2);
        assert_eq!(node[0].at(), Duration::from_secs(3));
        assert_eq!(node[1].at(), Duration::from_secs(8));
        assert_eq!(s.last_fault_instant(), Duration::from_secs(8));
    }

    #[test]
    fn random_schedule_tolerates_tiny_horizons() {
        // Regression: horizons below ~3.4s used to make the window sampler
        // panic on an empty range; they are clamped to 4s instead.
        for horizon_secs in [0, 1, 2, 3] {
            let schedule = FaultSchedule::random(
                5,
                &RandomFaultConfig {
                    data_sources: 3,
                    faults: 2,
                    horizon: Duration::from_secs(horizon_secs),
                },
            );
            assert!(!schedule.events.is_empty());
            assert!(schedule.last_fault_instant() <= Duration::from_secs(4));
        }
    }

    #[test]
    fn timeline_round_trips_every_event_kind() {
        let dm = NodeId::middleware(0);
        let ds = NodeId::data_source;
        let ms = Duration::from_millis;
        let schedule = FaultSchedule::new()
            .with(FaultEvent::CrashDataSource {
                at: ms(3000),
                ds: 1,
            })
            .with(FaultEvent::RestartDataSource {
                at: ms(8000),
                ds: 1,
            })
            .with(FaultEvent::CrashMiddleware { at: ms(100) })
            .with(FaultEvent::CrashMiddlewareAfterFlush { at: ms(2500) })
            .with(FaultEvent::FailoverMiddleware { at: ms(5000) })
            .with(FaultEvent::CrashCoordinator {
                at: ms(2000),
                dm: 1,
            })
            .with(FaultEvent::CrashCoordinatorAfterFlush {
                at: ms(2250),
                dm: 0,
            })
            .with(FaultEvent::RestartCoordinator {
                at: ms(6000),
                dm: 1,
            })
            .with(FaultEvent::Partition {
                at: ms(1000),
                until: ms(7000),
                a: NodeId::middleware(1),
                b: NodeId::control(0),
            })
            .with(FaultEvent::Partition {
                at: ms(2000),
                until: ms(6000),
                a: dm,
                b: ds(2),
            })
            .with(FaultEvent::PartitionOneWay {
                at: ms(2000),
                until: ms(5000),
                from: ds(1),
                to: dm,
            })
            .with(FaultEvent::LatencyStorm {
                at: ms(1000),
                until: ms(9000),
                a: dm,
                b: ds(0),
                extra: ms(150),
                jitter: ms(50),
            })
            .with(FaultEvent::DropNotifications {
                at: ms(1000),
                until: ms(8000),
                from: ds(0),
                to: dm,
                probability: 0.325,
            })
            .with(FaultEvent::DuplicateNotifications {
                at: ms(1000),
                until: ms(8000),
                from: ds(2),
                to: dm,
                probability: 0.5,
            })
            .with(FaultEvent::ClockSkewRamp {
                at: ms(1000),
                node: ds(2),
                drift_ppm: -250,
            });
        let timeline = schedule.to_timeline();
        let parsed = FaultSchedule::parse_timeline(&timeline).expect("round trip");
        assert_eq!(parsed, schedule);
        // A random seeded schedule round-trips too (the shrinker's input).
        let random = FaultSchedule::random(9, &RandomFaultConfig::default());
        let parsed = FaultSchedule::parse_timeline(&random.to_timeline()).unwrap();
        assert_eq!(parsed, random);
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
        let cfg = RandomFaultConfig::default();
        let a = FaultSchedule::random(11, &cfg);
        let b = FaultSchedule::random(11, &cfg);
        let c = FaultSchedule::random(12, &cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(!a.events.is_empty());
        assert!(a.last_fault_instant() < cfg.horizon);
        // Every crash has a matching restart.
        let crashes = a
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::CrashDataSource { .. }))
            .count();
        let restarts = a
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::RestartDataSource { .. }))
            .count();
        assert_eq!(crashes, restarts);
    }
}
