//! Measurement plumbing: latency histograms, percentiles, throughput and
//! abort-rate accounting, CDFs and throughput timelines.

use std::time::Duration;

use geotp_middleware::TxnOutcome;
use geotp_simrt::SimInstant;

/// The log-bucketed latency histogram now lives in `geotp-telemetry` (the
/// unified metrics registry shares it); re-exported so existing
/// `geotp_workloads::Histogram` callers keep working.
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

    /// When this timeline starts.
    pub fn start(&self) -> SimInstant {
        self.start
    }

    /// Merge another timeline into this one, aligning both on the earliest
    /// start so commits land in the window they actually happened in (merging
    /// bin-by-bin without alignment silently shifts the later timeline's
    /// history earlier). Window lengths must match.
    ///
    /// # Panics
    ///
    /// Panics when the window lengths differ — there is no faithful rebinning
    /// between different resolutions — or when the two starts are not a
    /// whole number of windows apart, since one window's count cannot be
    /// split across two.
    pub fn merge(&mut self, other: &ThroughputTimeline) {
        assert_eq!(
            self.window, other.window,
            "cannot merge throughput timelines with different windows"
        );
        let window_micros = self.window.as_micros().max(1) as u64;
        assert!(
            self.start
                .as_micros()
                .abs_diff(other.start.as_micros())
                .is_multiple_of(window_micros),
            "cannot merge throughput timelines whose starts are not a whole number of windows apart"
        );
        let new_start =
            SimInstant::from_micros(self.start.as_micros().min(other.start.as_micros()));
        let self_shift = (self.start.as_micros() - new_start.as_micros()) / window_micros;
        if self_shift > 0 {
            let mut shifted = vec![0u64; self_shift as usize];
            shifted.extend_from_slice(&self.commits_per_window);
            self.commits_per_window = shifted;
            self.start = new_start;
        }
        let other_shift =
            ((other.start.as_micros() - new_start.as_micros()) / window_micros) as usize;
        let needed = other_shift + other.commits_per_window.len();
        if self.commits_per_window.len() < needed {
            self.commits_per_window.resize(needed, 0);
        }
        for (idx, count) in other.commits_per_window.iter().enumerate() {
            self.commits_per_window[other_shift + idx] += count;
        }
    }
}

/// Collects transaction outcomes for one benchmark run.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    started_at: SimInstant,
    committed: u64,
    aborted: u64,
    commit_latency: Histogram,
    distributed_commit_latency: Histogram,
    centralized_commit_latency: Histogram,
    timeline: ThroughputTimeline,
}

impl MetricsCollector {
    /// Start collecting at `started_at` with a 1-second throughput window.
    pub fn new(started_at: SimInstant) -> Self {
        Self {
            started_at,
            committed: 0,
            aborted: 0,
            commit_latency: Histogram::new(),
            distributed_commit_latency: Histogram::new(),
            centralized_commit_latency: Histogram::new(),
            timeline: ThroughputTimeline::new(started_at, Duration::from_secs(1)),
        }
    }

    /// Record one transaction outcome observed at virtual time `at`.
    pub fn record(&mut self, outcome: &TxnOutcome, at: SimInstant) {
        if outcome.committed {
            self.committed += 1;
            self.commit_latency.record(outcome.latency);
            if outcome.distributed {
                self.distributed_commit_latency.record(outcome.latency);
            } else {
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

    /// Latency histogram over committed *distributed* transactions.
    pub fn distributed_latency(&self) -> &Histogram {
        &self.distributed_commit_latency
    }

    /// Latency histogram over committed *centralized* transactions.
    pub fn centralized_latency(&self) -> &Histogram {
        &self.centralized_commit_latency
    }

    /// Throughput timeline.
    pub fn timeline(&self) -> &ThroughputTimeline {
        &self.timeline
    }

    /// Merge another collector (e.g. from another terminal) into this one.
    /// Timelines align on the earliest start (see
    /// [`ThroughputTimeline::merge`]), so collectors that began at different
    /// virtual instants merge without shifting either history.
    pub fn merge(&mut self, other: &MetricsCollector) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.commit_latency.merge(&other.commit_latency);
        self.distributed_commit_latency
            .merge(&other.distributed_commit_latency);
        self.centralized_commit_latency
            .merge(&other.centralized_commit_latency);
        self.timeline.merge(&other.timeline);
        self.started_at = SimInstant::from_micros(
            self.started_at
                .as_micros()
                .min(other.started_at.as_micros()),
        );
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
        assert_eq!(c.distributed_latency().count(), 16);
        assert_eq!(c.centralized_latency().count(), 64);
        let series = c.timeline().series_tps();
        assert!(!series.is_empty());
        assert!((series[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_collectors() {
        let start = SimInstant::ZERO;
        let mut a = MetricsCollector::new(start);
        let mut b = MetricsCollector::new(start);
        a.record(&outcome(true, 10, false), start);
        b.record(&outcome(true, 30, true), start + Duration::from_secs(2));
        b.record(&outcome(false, 5, true), start);
        a.merge(&b);
        assert_eq!(a.committed(), 2);
        assert_eq!(a.aborted(), 1);
        assert_eq!(a.latency().count(), 2);
        assert_eq!(a.timeline().series_tps().len(), 3);
    }

    #[test]
    fn merge_aligns_timelines_with_different_starts() {
        // Regression: merging used to add bin i of `other` into bin i of
        // `self` even when the collectors started at different virtual
        // instants, silently time-shifting the later collector's commits.
        let early = SimInstant::ZERO;
        let late = early + Duration::from_secs(3);
        let mut a = MetricsCollector::new(late);
        let mut b = MetricsCollector::new(early);
        // `a` starts 3 s in and commits immediately (absolute t = 3 s).
        a.record(&outcome(true, 10, false), late);
        // `b` starts at zero and commits at absolute t = 1 s.
        b.record(&outcome(true, 10, false), early + Duration::from_secs(1));
        a.merge(&b);
        assert_eq!(
            a.started_at, early,
            "merged collector adopts earliest start"
        );
        assert_eq!(a.timeline().start(), early);
        let series = a.timeline().series_tps();
        assert_eq!(series.len(), 4, "windows span the union of both histories");
        assert_eq!(
            series,
            vec![0.0, 1.0, 0.0, 1.0],
            "each commit stays in the window it actually happened in"
        );
        // Symmetric case: merging the late collector into the early one.
        let mut c = MetricsCollector::new(early);
        c.record(&outcome(true, 10, false), early + Duration::from_secs(1));
        let mut d = MetricsCollector::new(late);
        d.record(&outcome(true, 10, false), late);
        c.merge(&d);
        assert_eq!(c.timeline().series_tps(), series);
    }

    #[test]
    #[should_panic(expected = "different windows")]
    fn merging_mismatched_windows_is_rejected() {
        let mut a = ThroughputTimeline::new(SimInstant::ZERO, Duration::from_secs(1));
        let b = ThroughputTimeline::new(SimInstant::ZERO, Duration::from_millis(100));
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "whole number of windows")]
    fn merging_starts_a_partial_window_apart_is_rejected() {
        // A 1 s timeline starting at 0.5 s bins a commit at absolute 1.2 s
        // into its window 0; on a timeline starting at 0 it belongs in
        // window 1, and no shift by whole windows can put it there.
        let mut a = ThroughputTimeline::new(SimInstant::ZERO, Duration::from_secs(1));
        let mut b =
            ThroughputTimeline::new(SimInstant::from_micros(500_000), Duration::from_secs(1));
        b.record_commit(SimInstant::from_micros(1_200_000));
        a.merge(&b);
    }
}
