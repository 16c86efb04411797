//! Measurement plumbing for the closed-loop driver: one
//! [`MetricsCollector`] per run, which every terminal records into, with
//! commit-latency histograms, throughput and abort-rate accounting, CDFs and
//! a throughput timeline. Every update is an integer sum, so the totals do
//! not depend on the order in which terminals finish.

use std::time::Duration;

use geotp_middleware::TxnOutcome;
use geotp_simrt::SimInstant;

/// The log-bucketed latency histogram, shared with the metrics registry.
pub use geotp_telemetry::Histogram;

/// Throughput over time: committed transactions per window, used for the
/// dynamic-latency timeline of Fig. 11b.
#[derive(Debug, Clone)]
pub struct ThroughputTimeline {
    window: Duration,
    start: SimInstant,
    commits_per_window: Vec<u64>,
}

impl ThroughputTimeline {
    /// Create a timeline with the given window length starting at `start`.
    pub fn new(start: SimInstant, window: Duration) -> Self {
        Self {
            window,
            start,
            commits_per_window: Vec::new(),
        }
    }

    /// Record one committed transaction finishing at `at`.
    fn record_commit(&mut self, at: SimInstant) {
        let elapsed = at.duration_since(self.start);
        let idx = (elapsed.as_micros() / self.window.as_micros().max(1)) as usize;
        if self.commits_per_window.len() <= idx {
            self.commits_per_window.resize(idx + 1, 0);
        }
        self.commits_per_window[idx] += 1;
    }

    /// Throughput series in transactions/second per window.
    pub fn series_tps(&self) -> Vec<f64> {
        let secs = self.window.as_secs_f64();
        self.commits_per_window
            .iter()
            .map(|c| *c as f64 / secs)
            .collect()
    }
}

/// Collects transaction outcomes for one benchmark run.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    committed: u64,
    aborted: u64,
    commit_latency: Histogram,
    centralized_commit_latency: Histogram,
    timeline: ThroughputTimeline,
}

impl MetricsCollector {
    /// Start collecting at `start` with a 1-second throughput window.
    pub fn new(start: SimInstant) -> Self {
        Self {
            committed: 0,
            aborted: 0,
            commit_latency: Histogram::new(),
            centralized_commit_latency: Histogram::new(),
            timeline: ThroughputTimeline::new(start, Duration::from_secs(1)),
        }
    }

    /// Record one transaction outcome observed at virtual time `at`.
    pub fn record(&mut self, outcome: &TxnOutcome, at: SimInstant) {
        if outcome.committed {
            self.committed += 1;
            self.commit_latency.record(outcome.latency);
            if !outcome.distributed {
                self.centralized_commit_latency.record(outcome.latency);
            }
            self.timeline.record_commit(at);
        } else {
            self.aborted += 1;
        }
    }

    /// Committed transactions.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Aborted transactions.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Total attempts.
    pub fn attempts(&self) -> u64 {
        self.committed + self.aborted
    }

    /// Abort rate over all attempts.
    pub fn abort_rate(&self) -> f64 {
        if self.attempts() == 0 {
            0.0
        } else {
            self.aborted as f64 / self.attempts() as f64
        }
    }

    /// Throughput in committed transactions per second over `elapsed`.
    pub fn throughput(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.committed as f64 / elapsed.as_secs_f64()
        }
    }

    /// Latency histogram over committed transactions.
    pub fn latency(&self) -> &Histogram {
        &self.commit_latency
    }

    /// Latency histogram over committed *centralized* transactions.
    pub fn centralized_latency(&self) -> &Histogram {
        &self.centralized_commit_latency
    }

    /// Throughput timeline.
    pub fn timeline(&self) -> &ThroughputTimeline {
        &self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_middleware::{AbortReason, LatencyBreakdown};

    fn outcome(committed: bool, ms: u64, distributed: bool) -> TxnOutcome {
        TxnOutcome {
            gtrid: 0,
            committed,
            abort_reason: if committed {
                None
            } else {
                Some(AbortReason::ExecutionFailed)
            },
            latency: Duration::from_millis(ms),
            breakdown: LatencyBreakdown::default(),
            distributed,
            rows: vec![],
            ..TxnOutcome::default()
        }
    }

    #[test]
    fn histogram_percentiles_are_monotonic_and_close() {
        let mut h = Histogram::new();
        for ms in 1..=1000u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        let p999 = h.percentile(99.9);
        assert!(p50 <= p99 && p99 <= p999);
        // Log buckets keep ~6% relative error.
        assert!(
            (p50.as_millis() as i64 - 500).unsigned_abs() < 40,
            "p50={p50:?}"
        );
        assert!(
            (p99.as_millis() as i64 - 990).unsigned_abs() < 70,
            "p99={p99:?}"
        );
        assert!(h.max() == Duration::from_millis(1000));
        assert!(h.min() == Duration::from_millis(1));
        assert_eq!(h.mean(), Duration::from_micros(500_500));
    }

    #[test]
    fn histogram_cdf_is_nondecreasing() {
        let mut h = Histogram::new();
        for ms in [1u64, 5, 10, 10, 20, 100, 200, 1000] {
            h.record(Duration::from_millis(ms));
        }
        let cdf = h.cdf(20);
        assert_eq!(cdf.len(), 20);
        for pair in cdf.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collector_tracks_throughput_and_abort_rate() {
        let start = SimInstant::ZERO;
        let mut c = MetricsCollector::new(start);
        for i in 0..80 {
            c.record(
                &outcome(true, 50, i % 5 == 0),
                start + Duration::from_millis(100 * i),
            );
        }
        for _ in 0..20 {
            c.record(&outcome(false, 10, true), start + Duration::from_secs(1));
        }
        assert_eq!(c.committed(), 80);
        assert_eq!(c.aborted(), 20);
        assert!((c.abort_rate() - 0.2).abs() < 1e-9);
        assert!((c.throughput(Duration::from_secs(8)) - 10.0).abs() < 1e-9);
        assert_eq!(c.centralized_latency().count(), 64);
        let series = c.timeline().series_tps();
        assert!(!series.is_empty());
        assert!((series[0] - 10.0).abs() < 1e-9);
    }
}
