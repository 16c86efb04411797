//! Bounded-queue admission control for a coordinator's worker pool.
//!
//! The tier's original capacity gate was a bare FIFO semaphore: when every
//! worker permit was taken, new `begin`s queued *unboundedly* and waited
//! *forever* — under sustained overload (the `scaleout` golden's 600 txn/s on
//! one coordinator) the queue grows without limit and p99 collapses into
//! seconds. [`AdmissionGate`] keeps the FIFO semaphore but adds graceful
//! degradation around it:
//!
//! * a **bounded wait queue** ([`AdmissionPolicy::max_queue`]): when the
//!   queue is full, new arrivals are shed immediately with
//!   [`AbortReason::Overloaded`](geotp_middleware::AbortReason::Overloaded)
//!   and a retry-after hint scaled by the current queue depth;
//! * a **queue-time deadline** ([`AdmissionPolicy::queue_deadline`]): a
//!   queued `begin` that cannot get a permit in time is shed rather than
//!   left to age out in the queue;
//! * **load telemetry** ([`AdmissionGate::load`]): permit occupancy, queue
//!   depth and shed counters, consumed by the
//!   [`SessionRouter`](crate::SessionRouter)'s saturation probe so routing
//!   steers new sessions away from saturated coordinators before their
//!   leases lapse.
//!
//! The default policy is *legacy-compatible*: no queue bound, no deadline —
//! exactly the old unbounded semaphore wait, so existing experiments and
//! fingerprints are unchanged unless a configuration opts in.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use geotp_simrt::sync::semaphore::SemaphorePermit;
use geotp_simrt::sync::Semaphore;
use geotp_simrt::{now, timeout};

/// How a coordinator's `begin` admission degrades under overload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Maximum `begin`s waiting for a worker permit; arrivals beyond this are
    /// shed immediately. `None` = unbounded queue (legacy behaviour).
    pub max_queue: Option<usize>,
    /// How long a queued `begin` may wait before it is shed. `None` = wait
    /// forever (legacy behaviour).
    pub queue_deadline: Option<Duration>,
    /// Base retry-after hint attached to sheds; the actual hint scales with
    /// the queue depth at shed time (deeper queue ⇒ back off longer).
    pub retry_after: Duration,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            max_queue: None,
            queue_deadline: None,
            retry_after: Duration::from_millis(50),
        }
    }
}

impl AdmissionPolicy {
    /// A bounded policy: at most `max_queue` waiters, each waiting at most
    /// `queue_deadline`.
    pub fn bounded(max_queue: usize, queue_deadline: Duration) -> Self {
        Self {
            max_queue: Some(max_queue),
            queue_deadline: Some(queue_deadline),
            ..Self::default()
        }
    }

    /// Whether this policy ever sheds (false = legacy unbounded waits).
    pub fn sheds(&self) -> bool {
        self.max_queue.is_some() || self.queue_deadline.is_some()
    }
}

/// Why an admission attempt was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded wait queue was full on arrival.
    QueueFull,
    /// The queue-time deadline expired before a permit freed up.
    DeadlineExpired,
}

/// An admission rejection: why, and how long the client should back off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionReject {
    /// Why the `begin` was not admitted.
    pub reason: ShedReason,
    /// Suggested client backoff (scaled by queue depth at shed time).
    pub retry_after: Duration,
}

/// A granted admission: the worker permit (if the gate is bounded) and how
/// long the `begin` waited in the queue for it.
pub struct AdmissionTicket {
    /// The worker permit, held for the transaction's lifetime. `None` when
    /// the coordinator has unbounded capacity.
    pub permit: Option<SemaphorePermit>,
    /// Time spent queued before the permit was granted.
    pub queue_time: Duration,
}

impl std::fmt::Debug for AdmissionTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionTicket")
            .field("permit", &self.permit.is_some())
            .field("queue_time", &self.queue_time)
            .finish()
    }
}

/// Point-in-time load snapshot of one coordinator's admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoordinatorLoad {
    /// Worker-permit capacity (`0` = unbounded).
    pub capacity: usize,
    /// Permits currently held by live transactions.
    pub inflight: usize,
    /// `begin`s currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Total `begin`s admitted (fast-path and queued).
    pub admitted: u64,
    /// Total `begin`s shed because the queue was full.
    pub shed_queue_full: u64,
    /// Total `begin`s shed because their queue-time deadline expired.
    pub shed_deadline: u64,
}

impl CoordinatorLoad {
    /// Total sheds (queue-full + deadline).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline
    }

    /// Whether the coordinator is saturated: every permit taken *and*
    /// arrivals are queueing behind them. Unbounded gates never saturate.
    pub fn is_saturated(&self) -> bool {
        self.capacity > 0 && self.inflight >= self.capacity && self.queue_depth > 0
    }
}

/// Decrements the gate's queue-depth counter even if the waiting future is
/// dropped mid-queue (client abandoned the `begin`).
struct QueueSlot<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for QueueSlot<'_> {
    fn drop(&mut self) {
        let gate = self.gate;
        gate.queued.set(gate.queued.get() - 1);
        gate.publish_queue_depth();
    }
}

/// One coordinator's admission gate: the worker-pool semaphore plus the
/// bounded-queue/deadline policy and its load counters.
pub struct AdmissionGate {
    permits: Option<Rc<Semaphore>>,
    capacity: usize,
    policy: AdmissionPolicy,
    /// `begin`s waiting for a permit. Not the semaphore's queue length: the
    /// semaphore drops a waiter when it grants the permit, before the
    /// granted `begin` resumes, so within one instant the two differ.
    queued: Cell<usize>,
    admitted: Cell<u64>,
    shed_queue_full: Cell<u64>,
    shed_deadline: Cell<u64>,
    /// Coordinator index used to label this gate's telemetry metrics.
    metrics_index: Cell<u32>,
}

impl AdmissionGate {
    /// A gate over `capacity` worker permits (`0` = unbounded: everything is
    /// admitted instantly and the policy never applies).
    pub fn new(capacity: usize, policy: AdmissionPolicy) -> Self {
        Self {
            permits: (capacity > 0).then(|| Rc::new(Semaphore::new(capacity))),
            capacity,
            policy,
            queued: Cell::new(0),
            admitted: Cell::new(0),
            shed_queue_full: Cell::new(0),
            shed_deadline: Cell::new(0),
            metrics_index: Cell::new(0),
        }
    }

    /// Tag the gate with its coordinator index so its metrics don't collide
    /// across a multi-coordinator tier.
    pub fn with_metrics_index(self, index: u32) -> Self {
        self.metrics_index.set(index);
        self
    }

    fn publish_queue_depth(&self) {
        geotp_telemetry::gauge_set(
            "cluster.admission_queue",
            "",
            self.metrics_index.get(),
            self.queued.get() as i64,
        );
    }

    /// The configured policy.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Current load snapshot.
    pub fn load(&self) -> CoordinatorLoad {
        let inflight = match &self.permits {
            Some(sem) => self.capacity - sem.available_permits().min(self.capacity),
            None => 0,
        };
        CoordinatorLoad {
            capacity: self.capacity,
            inflight,
            queue_depth: self.queued.get(),
            admitted: self.admitted.get(),
            shed_queue_full: self.shed_queue_full.get(),
            shed_deadline: self.shed_deadline.get(),
        }
    }

    /// Whether the gate is saturated right now (see
    /// [`CoordinatorLoad::is_saturated`]).
    pub fn is_saturated(&self) -> bool {
        self.load().is_saturated()
    }

    /// The retry-after hint for a shed happening now: the policy's base,
    /// scaled by the queue depth (a deeper queue tells clients to back off
    /// longer), capped at one second.
    fn retry_after_hint(&self) -> Duration {
        let depth = self.queued.get() as u32;
        self.policy
            .retry_after
            .saturating_mul(depth + 1)
            .min(Duration::from_secs(1))
    }

    /// Admit one `begin`: fast-path when a permit is free; otherwise wait in
    /// the bounded FIFO queue (order is the semaphore's FIFO order) until a
    /// permit frees or the queue-time deadline expires.
    pub async fn admit(&self) -> Result<AdmissionTicket, AdmissionReject> {
        let Some(sem) = &self.permits else {
            return Ok(AdmissionTicket {
                permit: None,
                queue_time: Duration::ZERO,
            });
        };
        if let Some(permit) = sem.try_acquire() {
            self.admitted.set(self.admitted.get() + 1);
            geotp_telemetry::counter_add("cluster.admitted", "", self.metrics_index.get(), 1);
            return Ok(AdmissionTicket {
                permit: Some(permit),
                queue_time: Duration::ZERO,
            });
        }
        if let Some(max_queue) = self.policy.max_queue {
            if self.queued.get() >= max_queue {
                self.shed_queue_full.set(self.shed_queue_full.get() + 1);
                geotp_telemetry::counter_add(
                    "cluster.sheds",
                    "queue_full",
                    self.metrics_index.get(),
                    1,
                );
                let retry_after = self.retry_after_hint();
                // The hint *distribution* matters for tuning the backoff
                // policy, not just the shed count — record it as a histogram
                // so the metrics timeline shows how hard clients were told
                // to back off as the queue deepened.
                geotp_telemetry::observe(
                    "cluster.retry_after",
                    "queue_full",
                    self.metrics_index.get(),
                    retry_after,
                );
                return Err(AdmissionReject {
                    reason: ShedReason::QueueFull,
                    retry_after,
                });
            }
        }
        let enqueued = now();
        self.queued.set(self.queued.get() + 1);
        self.publish_queue_depth();
        let _slot = QueueSlot { gate: self };
        let permit = match self.policy.queue_deadline {
            Some(deadline) => match timeout(deadline, sem.acquire()).await {
                Ok(permit) => permit,
                Err(_elapsed) => {
                    self.shed_deadline.set(self.shed_deadline.get() + 1);
                    geotp_telemetry::counter_add(
                        "cluster.sheds",
                        "deadline",
                        self.metrics_index.get(),
                        1,
                    );
                    let retry_after = self.retry_after_hint();
                    geotp_telemetry::observe(
                        "cluster.retry_after",
                        "deadline",
                        self.metrics_index.get(),
                        retry_after,
                    );
                    // How long the shed `begin` actually waited before its
                    // deadline expired (= the deadline, but recorded from
                    // the clock so the histogram pins real queue residence).
                    geotp_telemetry::observe(
                        "cluster.queue_wait",
                        "expired",
                        self.metrics_index.get(),
                        now().duration_since(enqueued),
                    );
                    return Err(AdmissionReject {
                        reason: ShedReason::DeadlineExpired,
                        retry_after,
                    });
                }
            },
            None => sem.acquire().await,
        };
        self.admitted.set(self.admitted.get() + 1);
        geotp_telemetry::counter_add("cluster.admitted", "", self.metrics_index.get(), 1);
        Ok(AdmissionTicket {
            permit: Some(permit),
            queue_time: now().duration_since(enqueued),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_simrt::{sleep, spawn, Runtime};
    use std::cell::RefCell;

    #[test]
    fn unbounded_gate_admits_instantly() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let gate = AdmissionGate::new(0, AdmissionPolicy::default());
            let ticket = gate.admit().await.unwrap();
            assert!(ticket.permit.is_none());
            assert_eq!(ticket.queue_time, Duration::ZERO);
            assert_eq!(gate.load().capacity, 0);
            assert!(!gate.is_saturated());
        });
    }

    #[test]
    fn queue_full_sheds_with_depth_scaled_hint() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let policy = AdmissionPolicy::bounded(1, Duration::from_secs(10));
            let gate = Rc::new(AdmissionGate::new(1, policy));
            let held = gate.admit().await.unwrap();
            // One waiter fills the queue.
            let waiter = {
                let gate = Rc::clone(&gate);
                spawn(async move { gate.admit().await.map(|t| t.queue_time) })
            };
            sleep(Duration::from_millis(1)).await;
            assert_eq!(gate.load().queue_depth, 1);
            assert!(gate.is_saturated());
            // The next arrival is shed, with the hint scaled by queue depth.
            let reject = gate.admit().await.unwrap_err();
            assert_eq!(reject.reason, ShedReason::QueueFull);
            assert_eq!(reject.retry_after, policy.retry_after * 2);
            assert_eq!(gate.load().shed_queue_full, 1);
            // Releasing the held permit admits the queued waiter FIFO.
            drop(held);
            let queue_time = waiter.await.unwrap();
            assert_eq!(queue_time, Duration::from_millis(1));
            assert_eq!(gate.load().admitted, 2);
        });
    }

    #[test]
    fn deadline_expiry_sheds_queued_begin() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let policy = AdmissionPolicy::bounded(4, Duration::from_millis(100));
            let gate = Rc::new(AdmissionGate::new(1, policy));
            let _held = gate.admit().await.unwrap();
            let started = geotp_simrt::now();
            let reject = gate.admit().await.unwrap_err();
            assert_eq!(reject.reason, ShedReason::DeadlineExpired);
            assert_eq!(
                geotp_simrt::now().duration_since(started),
                Duration::from_millis(100)
            );
            let load = gate.load();
            assert_eq!(load.shed_deadline, 1);
            assert_eq!(load.queue_depth, 0, "timed-out waiter left the queue");
        });
    }

    #[test]
    fn shed_paths_record_retry_hint_and_queue_wait_histograms() {
        let mut rt = Runtime::new();
        let telemetry = geotp_telemetry::install();
        rt.block_on(async {
            // Queue-full shed: capacity 1, queue 1, so a third arrival bounces.
            let policy = AdmissionPolicy::bounded(1, Duration::from_secs(10));
            let gate = Rc::new(AdmissionGate::new(1, policy));
            let held = gate.admit().await.unwrap();
            let waiter = {
                let gate = Rc::clone(&gate);
                spawn(async move { gate.admit().await })
            };
            sleep(Duration::from_millis(1)).await;
            let reject = gate.admit().await.unwrap_err();
            assert_eq!(reject.reason, ShedReason::QueueFull);
            drop(held);
            drop(waiter.await.unwrap());

            // Deadline shed: the queued begin waits out its full deadline.
            let gate = Rc::new(AdmissionGate::new(
                1,
                AdmissionPolicy::bounded(4, Duration::from_millis(100)),
            ));
            let _held = gate.admit().await.unwrap();
            let reject = gate.admit().await.unwrap_err();
            assert_eq!(reject.reason, ShedReason::DeadlineExpired);
        });
        geotp_telemetry::uninstall();

        let snapshot = telemetry.metrics.snapshot();
        let histogram = |name: &str, label: &str| match snapshot.get(name, label, 0) {
            Some(geotp_telemetry::MetricValue::Histogram { count, mean, .. }) => (*count, *mean),
            other => panic!("{name}{{{label}}}: expected histogram, got {other:?}"),
        };
        // Both shed paths record the hint they handed back...
        let (count, mean) = histogram("cluster.retry_after", "queue_full");
        assert_eq!(count, 1);
        assert_eq!(mean, AdmissionPolicy::default().retry_after * 2);
        let (count, _mean) = histogram("cluster.retry_after", "deadline");
        assert_eq!(count, 1);
        // ...and the deadline path records how long the shed begin waited.
        let (count, mean) = histogram("cluster.queue_wait", "expired");
        assert_eq!(count, 1);
        assert_eq!(mean, Duration::from_millis(100));
    }

    #[test]
    fn queued_begins_are_admitted_in_fifo_order() {
        let mut rt = Runtime::new();
        let order = rt.block_on(async {
            let gate = Rc::new(AdmissionGate::new(
                1,
                AdmissionPolicy::bounded(8, Duration::from_secs(10)),
            ));
            let held = gate.admit().await.unwrap();
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..4u32 {
                let gate = Rc::clone(&gate);
                let log = Rc::clone(&log);
                handles.push(spawn(async move {
                    let ticket = gate.admit().await.unwrap();
                    log.borrow_mut().push(i);
                    // Hold briefly so the next waiter's grant is observable.
                    sleep(Duration::from_millis(1)).await;
                    drop(ticket);
                }));
                // Deterministic enqueue order: let the waiter park.
                sleep(Duration::from_millis(1)).await;
            }
            drop(held);
            for h in handles {
                h.await;
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec![0, 1, 2, 3], "grants follow enqueue order");
    }
}
