//! The geo-scheduler: latency-aware scheduling of subtransactions
//! (paper §IV-B) plus the high-contention heuristics (§IV-C).
//!
//! For each subtransaction the scheduler computes how long its dispatch should
//! be postponed so its lock contention span shrinks to (roughly) its own
//! round-trip time instead of the slowest round-trip time in the transaction:
//!
//! * Eq. 3 (network-only):  `t_start = max τ − τ_ij`
//! * Eq. 8 (with forecasts): `t_start = max(τ + LEL̂) − (τ_ij + LEL̂_ij)`
//!
//! With the advanced optimization enabled the scheduler additionally performs
//! *late transaction scheduling* (Algorithm 2, lines 10–18): it estimates the
//! transaction's abort probability from the hotspot footprint (Eq. 9) and
//! keeps high-risk transactions back, retrying 10 times before refusing
//! admission. O2 and O3 are arguments of [`GeoScheduler::new`]: the
//! middleware derives them from its protocol.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use geotp_net::LatencyMonitor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hotspot::{HotspotFootprint, DEFAULT_CAPACITY};
use crate::ops::GlobalKey;

/// A branch (subtransaction) the scheduler needs to place in time.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchPlan {
    /// Index of the data source the branch executes on.
    pub ds_index: u32,
    /// Keys the branch accesses (used for hotspot forecasting).
    pub keys: Vec<GlobalKey>,
}

/// The scheduler's decision for one transaction round. The default (empty)
/// schedule postpones no branch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Postpone duration per branch, in the same order as the input plan.
    pub postpone: Vec<Duration>,
}

/// Outcome of trying to schedule a transaction under late scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionDecision {
    /// Dispatch with the postpone amounts written into the caller's buffer.
    Admit,
    /// Refuse admission (predicted abort rate too high, retries exhausted);
    /// the transaction should abort and be retried by the client.
    Reject {
        /// Number of admission attempts performed.
        attempts: u32,
    },
}

/// Admission retries before late scheduling rejects a transaction
/// (Algorithm 2 uses 10).
const MAX_ADMISSION_RETRIES: u32 = 10;

/// Virtual-time backoff the coordinator charges per admission attempt.
pub(crate) const ADMISSION_RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Scheduler configuration: the admission lottery's seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Seed for the admission lottery.
    pub seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            seed: 0x0067_656f_7470, // "geotp"
        }
    }
}

/// The geo-scheduler.
pub struct GeoScheduler {
    /// O2: postpone subtransactions according to network latency.
    latency_scheduling: bool,
    /// O3: use hotspot statistics (forecast + late scheduling).
    advanced: bool,
    monitor: Rc<LatencyMonitor>,
    footprint: RefCell<HotspotFootprint>,
    rng: RefCell<StdRng>,
    /// Reusable buffer for the admission check's flattened key list.
    keys_scratch: RefCell<Vec<GlobalKey>>,
}

impl GeoScheduler {
    /// Create a scheduler reading RTT estimates from `monitor`, with O2
    /// (`latency_scheduling`) and O3 (`advanced`) switched as given.
    pub fn new(
        config: SchedulerConfig,
        monitor: Rc<LatencyMonitor>,
        latency_scheduling: bool,
        advanced: bool,
    ) -> Self {
        Self {
            latency_scheduling,
            advanced,
            footprint: RefCell::new(HotspotFootprint::new(DEFAULT_CAPACITY)),
            rng: RefCell::new(StdRng::seed_from_u64(config.seed)),
            monitor,
            keys_scratch: RefCell::new(Vec::new()),
        }
    }

    /// Shared access to the hotspot footprint for feedback updates.
    pub fn footprint(&self) -> &RefCell<HotspotFootprint> {
        &self.footprint
    }

    fn rtt_of(&self, ds_index: u32) -> Duration {
        self.monitor.rtt(geotp_net::NodeId::data_source(ds_index))
    }

    /// Predicted completion latency of one branch: its RTT plus (if O3 is on)
    /// its forecast local execution latency.
    fn branch_latency(&self, branch: &BranchPlan) -> Duration {
        let mut latency = self.rtt_of(branch.ds_index);
        if self.advanced {
            latency += self.footprint.borrow().forecast_local_latency(&branch.keys);
        }
        latency
    }

    /// Compute the postpone schedule for one round of branches (Eq. 3 / Eq. 8).
    pub fn schedule(&self, branches: &[BranchPlan]) -> Schedule {
        let mut postpone = Vec::with_capacity(branches.len());
        self.schedule_into(branches, &mut postpone);
        Schedule { postpone }
    }

    /// [`GeoScheduler::schedule`] into a caller's buffer (cleared first):
    /// the postpone of each branch, in plan order.
    pub fn schedule_into(&self, branches: &[BranchPlan], postpone: &mut Vec<Duration>) {
        postpone.clear();
        postpone.extend(branches.iter().map(|b| self.branch_latency(b)));
        let horizon = postpone.iter().copied().max().unwrap_or(Duration::ZERO);
        let latency_scheduling = self.latency_scheduling && branches.len() > 1;
        for slot in postpone.iter_mut() {
            *slot = if latency_scheduling {
                horizon.saturating_sub(*slot)
            } else {
                Duration::ZERO
            };
        }
    }

    /// Algorithm 2: admission control plus scheduling. On admission the
    /// postpone of each branch is written into `postpone` (as by
    /// [`GeoScheduler::schedule_into`]); a rejection comes when the
    /// predicted abort rate stays too high across 10 retried lottery draws.
    ///
    /// The returned `attempts` count lets the coordinator charge a 2 ms
    /// backoff per attempt to the transaction's latency.
    pub fn schedule_with_admission(
        &self,
        branches: &[BranchPlan],
        postpone: &mut Vec<Duration>,
    ) -> AdmissionDecision {
        if !self.advanced {
            self.schedule_into(branches, postpone);
            return AdmissionDecision::Admit;
        }
        let mut all_keys = self.keys_scratch.borrow_mut();
        all_keys.clear();
        all_keys.extend(branches.iter().flat_map(|b| b.keys.iter().copied()));
        // Nothing can touch the footprint between draws (the loop never
        // yields), so Eq. 9 is evaluated once for all of them.
        let success_p = self.footprint.borrow().success_probability(&all_keys);
        let mut attempts = 0;
        loop {
            attempts += 1;
            let draw: f64 = self.rng.borrow_mut().gen();
            if success_p >= draw {
                self.schedule_into(branches, postpone);
                return AdmissionDecision::Admit;
            }
            if attempts > MAX_ADMISSION_RETRIES {
                return AdmissionDecision::Reject { attempts };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_net::{NetworkBuilder, NodeId};
    use geotp_simrt::Runtime;
    use geotp_storage::TableId;

    fn gk(row: u64) -> GlobalKey {
        GlobalKey::new(TableId(0), row)
    }

    fn monitor(rtts_ms: &[u64]) -> Rc<LatencyMonitor> {
        let dm = NodeId::middleware(0);
        let mut builder = NetworkBuilder::new(1);
        let mut targets = Vec::new();
        for (i, rtt) in rtts_ms.iter().enumerate() {
            let ds = NodeId::data_source(i as u32);
            builder = builder.static_link(dm, ds, Duration::from_millis(*rtt));
            targets.push(ds);
        }
        let net = builder.build();
        LatencyMonitor::new(&net, dm, &targets)
    }

    fn plan(ds: u32, keys: &[u64]) -> BranchPlan {
        BranchPlan {
            ds_index: ds,
            keys: keys.iter().map(|k| gk(*k)).collect(),
        }
    }

    #[test]
    fn eq3_postpones_fast_branches() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let mon = monitor(&[10, 100]);
            let sched = GeoScheduler::new(SchedulerConfig::default(), mon, true, false);
            let s = sched.schedule(&[plan(0, &[1]), plan(1, &[2])]);
            // Fig. 4c: the 10ms branch is postponed by 90ms, the 100ms branch not at all.
            assert_eq!(s.postpone, vec![Duration::from_millis(90), Duration::ZERO]);
        });
    }

    #[test]
    fn latency_scheduling_disabled_gives_zero_postpone() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let mon = monitor(&[10, 100]);
            let sched = GeoScheduler::new(SchedulerConfig::default(), mon, false, false);
            let s = sched.schedule(&[plan(0, &[1]), plan(1, &[2])]);
            assert_eq!(s.postpone, vec![Duration::ZERO, Duration::ZERO]);
        });
    }

    #[test]
    fn single_branch_is_never_postponed() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let mon = monitor(&[251]);
            let sched = GeoScheduler::new(SchedulerConfig::default(), mon, true, true);
            let s = sched.schedule(&[plan(0, &[1])]);
            assert_eq!(s.postpone, vec![Duration::ZERO]);
        });
    }

    #[test]
    fn eq8_incorporates_forecast_local_latency() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let mon = monitor(&[10, 100]);
            let sched = GeoScheduler::new(SchedulerConfig::default(), mon, true, true);
            // Teach the footprint that key 1 (on the fast node) is slow to
            // execute locally: 60ms of lock waiting.
            sched
                .footprint()
                .borrow_mut()
                .on_subtxn_feedback(&[gk(1)], Duration::from_millis(60));
            let s = sched.schedule(&[plan(0, &[1]), plan(1, &[2])]);
            // Branch 0 now has predicted completion 10+60=70ms, branch 1 100ms:
            // postpone shrinks from 90ms to 30ms.
            assert_eq!(s.postpone, vec![Duration::from_millis(30), Duration::ZERO]);
        });
    }

    #[test]
    fn forecast_larger_than_horizon_means_no_postpone_for_that_branch() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let mon = monitor(&[10, 100]);
            let sched = GeoScheduler::new(SchedulerConfig::default(), mon, true, true);
            sched
                .footprint()
                .borrow_mut()
                .on_subtxn_feedback(&[gk(1)], Duration::from_millis(500));
            let s = sched.schedule(&[plan(0, &[1]), plan(1, &[2])]);
            // The slow-to-execute branch becomes the bottleneck (510ms); it is
            // dispatched immediately and the other branch is postponed instead.
            assert_eq!(s.postpone[0], Duration::ZERO);
            assert_eq!(s.postpone[1], Duration::from_millis(410));
        });
    }

    #[test]
    fn admission_rejects_hopeless_hotspot_transactions() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let mon = monitor(&[10, 100]);
            let sched = GeoScheduler::new(SchedulerConfig::default(), mon, true, true);
            {
                let mut fp = sched.footprint().borrow_mut();
                // Record 7: heavily contended and almost always aborting.
                for _ in 0..100 {
                    fp.on_access_start(&[gk(7)]);
                }
                for i in 0..80 {
                    fp.on_txn_finish(&[gk(7)], i < 2);
                }
                // 20 transactions still accessing it, success ratio 2%.
            }
            let mut postpone = Vec::new();
            let plans = [plan(0, &[7]), plan(1, &[8])];
            let decision = sched.schedule_with_admission(&plans, &mut postpone);
            match decision {
                AdmissionDecision::Reject { attempts } => {
                    assert_eq!(attempts, MAX_ADMISSION_RETRIES + 1)
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        });
    }

    #[test]
    fn admission_accepts_uncontended_transactions() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let mon = monitor(&[10, 100]);
            let sched = GeoScheduler::new(SchedulerConfig::default(), mon, true, true);
            let mut postpone = Vec::new();
            let plans = [plan(0, &[1]), plan(1, &[2])];
            let decision = sched.schedule_with_admission(&plans, &mut postpone);
            assert_eq!(decision, AdmissionDecision::Admit);
            assert_eq!(postpone, sched.schedule(&plans).postpone);
        });
    }
}
