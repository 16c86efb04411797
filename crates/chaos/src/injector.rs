//! Compiling a [`FaultSchedule`] into the network's fault plane.
//!
//! Link-level events become per-link window lists consulted on every message;
//! probabilistic fates (drop/duplicate, storm jitter) are drawn from a seeded
//! RNG owned by the injector, so the message-fate stream is a pure function
//! of `(seed, schedule, traffic order)` — and traffic order is deterministic
//! on the simulated runtime, which is what makes whole runs replayable.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use geotp_net::{FaultInjector, NodeId};
use geotp_simrt::hash::FxHashMap;
use geotp_simrt::SimInstant;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::schedule::{Fault, FaultSchedule, LinkEffect};
use crate::trace::EventTrace;

/// A half-open activation window `[start, end)` in microseconds.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: u64,
    end: u64,
}

impl Window {
    fn contains(&self, t: u64) -> bool {
        self.start <= t && t < self.end
    }
}

#[derive(Debug, Clone, Copy)]
struct StormWindow {
    window: Window,
    extra_micros: u64,
    jitter_micros: u64,
}

#[derive(Debug, Clone, Copy)]
struct LossWindow {
    window: Window,
    probability: f64,
}

/// Per-directional-link fault state.
#[derive(Debug, Default)]
struct LinkFaults {
    blocked: Vec<Window>,
    storms: Vec<StormWindow>,
    drops: Vec<LossWindow>,
    duplicates: Vec<LossWindow>,
}

/// The compiled fault plane: plug into
/// [`Network::set_fault_injector`](geotp_net::Network::set_fault_injector).
pub struct ScheduleInjector {
    links: FxHashMap<(NodeId, NodeId), LinkFaults>,
    rng: RefCell<StdRng>,
    trace: Rc<EventTrace>,
}

impl ScheduleInjector {
    /// Compile `schedule`'s link-level events. Probabilistic fates draw from
    /// a stream seeded by `seed`; drops and duplicates are recorded in
    /// `trace`.
    pub fn compile(schedule: &FaultSchedule, seed: u64, trace: Rc<EventTrace>) -> Rc<Self> {
        let mut links: FxHashMap<(NodeId, NodeId), LinkFaults> = FxHashMap::default();
        for event in &schedule.events {
            // Node-level faults are the controller's business.
            let Fault::Link {
                until,
                from,
                to,
                effect,
            } = event.fault
            else {
                continue;
            };
            let window = Window {
                start: event.at.as_micros() as u64,
                end: until.as_micros() as u64,
            };
            let mut push = |from, to| {
                let faults: &mut LinkFaults = links.entry((from, to)).or_default();
                match effect {
                    LinkEffect::Partition | LinkEffect::PartitionOneWay => {
                        faults.blocked.push(window)
                    }
                    LinkEffect::LatencyStorm { extra, jitter } => faults.storms.push(StormWindow {
                        window,
                        extra_micros: extra.as_micros() as u64,
                        jitter_micros: jitter.as_micros() as u64,
                    }),
                    LinkEffect::DropNotifications { probability } => {
                        faults.drops.push(LossWindow {
                            window,
                            probability,
                        })
                    }
                    LinkEffect::DuplicateNotifications { probability } => {
                        faults.duplicates.push(LossWindow {
                            window,
                            probability,
                        })
                    }
                }
            };
            push(from, to);
            if effect.both_ways() {
                push(to, from);
            }
        }
        Rc::new(Self {
            links,
            rng: RefCell::new(StdRng::seed_from_u64(seed ^ 0xc2b2_ae3d_27d4_eb4f)),
            trace,
        })
    }

    fn faults(&self, from: NodeId, to: NodeId) -> Option<&LinkFaults> {
        self.links.get(&(from, to))
    }
}

impl FaultInjector for ScheduleInjector {
    fn blocked_until(&self, from: NodeId, to: NodeId, now: SimInstant) -> Option<SimInstant> {
        let faults = self.faults(from, to)?;
        let t = now.as_micros();
        faults
            .blocked
            .iter()
            .filter(|w| w.contains(t))
            .map(|w| w.end)
            .max()
            .map(SimInstant::from_micros)
    }

    fn extra_delay(&self, from: NodeId, to: NodeId, now: SimInstant) -> Duration {
        let Some(faults) = self.faults(from, to) else {
            return Duration::ZERO;
        };
        let t = now.as_micros();
        let mut extra = 0u64;
        for storm in faults.storms.iter().filter(|s| s.window.contains(t)) {
            extra += storm.extra_micros;
            if storm.jitter_micros > 0 {
                extra += self.rng.borrow_mut().gen_range(0..=storm.jitter_micros);
            }
        }
        Duration::from_micros(extra)
    }

    fn unreliable_copies(&self, from: NodeId, to: NodeId, now: SimInstant) -> u32 {
        let Some(faults) = self.faults(from, to) else {
            return 1;
        };
        let t = now.as_micros();
        for drop in faults.drops.iter().filter(|d| d.window.contains(t)) {
            if self.rng.borrow_mut().gen::<f64>() < drop.probability {
                self.trace
                    .record(&format!("drop notification {from} -> {to}"));
                return 0;
            }
        }
        for dup in faults.duplicates.iter().filter(|d| d.window.contains(t)) {
            if self.rng.borrow_mut().gen::<f64>() < dup.probability {
                self.trace
                    .record(&format!("duplicate notification {from} -> {to}"));
                return 2;
            }
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_simrt::Runtime;

    fn dm() -> NodeId {
        NodeId::middleware(0)
    }
    fn ds(i: u32) -> NodeId {
        NodeId::data_source(i)
    }

    #[test]
    fn partition_blocks_both_directions_one_way_only_one() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let schedule = FaultSchedule::new()
                .with(
                    Duration::from_secs(1),
                    Fault::link(Duration::from_secs(2), dm(), ds(0), LinkEffect::Partition),
                )
                .with(
                    Duration::from_secs(1),
                    Fault::link(
                        Duration::from_secs(3),
                        ds(1),
                        dm(),
                        LinkEffect::PartitionOneWay,
                    ),
                );
            let inj = ScheduleInjector::compile(&schedule, 1, EventTrace::new());
            let at = |secs: u64| SimInstant::from_micros(secs * 1_000_000);
            // Symmetric window.
            assert_eq!(inj.blocked_until(dm(), ds(0), at(1)), Some(at(2)));
            assert_eq!(inj.blocked_until(ds(0), dm(), at(1)), Some(at(2)));
            assert_eq!(inj.blocked_until(dm(), ds(0), at(2)), None, "half-open");
            assert_eq!(inj.blocked_until(dm(), ds(0), at(0)), None);
            // Asymmetric: only ds1 -> dm is blocked.
            assert_eq!(inj.blocked_until(ds(1), dm(), at(2)), Some(at(3)));
            assert_eq!(inj.blocked_until(dm(), ds(1), at(2)), None);
        });
    }

    #[test]
    fn storms_and_losses_are_windowed_and_deterministic() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let storm = LinkEffect::LatencyStorm {
                extra: Duration::from_millis(40),
                jitter: Duration::ZERO,
            };
            let drop = LinkEffect::DropNotifications { probability: 1.0 };
            let schedule = FaultSchedule::new()
                .with(
                    Duration::ZERO,
                    Fault::link(Duration::from_secs(1), dm(), ds(0), storm),
                )
                .with(
                    Duration::ZERO,
                    Fault::link(Duration::from_secs(1), ds(0), dm(), drop),
                );
            let t0 = SimInstant::ZERO;
            let late = SimInstant::from_micros(5_000_000);
            let run = |seed: u64| {
                let trace = EventTrace::new();
                let inj = ScheduleInjector::compile(&schedule, seed, Rc::clone(&trace));
                assert_eq!(inj.extra_delay(dm(), ds(0), t0), Duration::from_millis(40));
                assert_eq!(inj.extra_delay(ds(0), dm(), t0), Duration::from_millis(40));
                assert_eq!(inj.extra_delay(dm(), ds(0), late), Duration::ZERO);
                assert_eq!(inj.unreliable_copies(ds(0), dm(), t0), 0, "p=1 drop");
                assert_eq!(inj.unreliable_copies(ds(0), dm(), late), 1);
                assert_eq!(inj.unreliable_copies(dm(), ds(0), t0), 1, "directional");
                trace.fingerprint()
            };
            assert_eq!(run(7), run(7), "same seed, same fate stream");
        });
    }
}
