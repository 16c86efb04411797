//! A logarithmically-bucketed latency histogram (1 µs – ~1 hour range) with
//! exact tracking of count, sum, min and max. The metrics registry and the
//! closed-loop driver's collector (`geotp_workloads::Histogram`) share it.

use std::time::Duration;

/// A logarithmically-bucketed latency histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket `i` counts samples in `[bucket_floor(i), bucket_floor(i+1))`,
    /// with sub-bucket resolution of 1/32 of each power of two.
    buckets: Vec<u64>,
    count: u64,
    sum_micros: u128,
    min_micros: u64,
    max_micros: u64,
}

const SUB_BUCKETS: usize = 32;
const MAX_POWER: usize = 32; // 2^32 µs ≈ 1.2 hours

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; MAX_POWER * SUB_BUCKETS],
            count: 0,
            sum_micros: 0,
            min_micros: u64::MAX,
            max_micros: 0,
        }
    }

    fn bucket_index(micros: u64) -> usize {
        if micros < SUB_BUCKETS as u64 {
            return micros as usize;
        }
        let power = 63 - micros.leading_zeros() as usize;
        let base = (power.saturating_sub(4)).min(MAX_POWER - 1) * SUB_BUCKETS;
        let sub = ((micros >> power.saturating_sub(5)) as usize) & (SUB_BUCKETS - 1);
        (base + sub).min(MAX_POWER * SUB_BUCKETS - 1)
    }

    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let power = index / SUB_BUCKETS + 4;
        let sub = (index % SUB_BUCKETS) as u64;
        (1u64 << power) + (sub << (power - 5))
    }

    /// Record one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_index(micros)] += 1;
        self.count += 1;
        self.sum_micros += micros as u128;
        self.min_micros = self.min_micros.min(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros((self.sum_micros / self.count as u128) as u64)
        }
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(self.min_micros)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros)
    }

    /// Latency at the given percentile (0.0–100.0), approximated by the
    /// bucket's representative value.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                return Duration::from_micros(Self::bucket_value(idx).max(self.min_micros));
            }
        }
        self.max()
    }

    /// Extract `(latency, cumulative_fraction)` points for a CDF plot.
    pub fn cdf(&self, points: usize) -> Vec<(Duration, f64)> {
        if self.count == 0 || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                (self.percentile(frac * 100.0), frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Edge-case coverage for the log-bucketed histogram: the exact-count
    // region boundary (32 µs), power-of-two bucket edges, saturation at the
    // 2^32 µs cap and degenerate percentiles.

    #[test]
    fn samples_below_32us_are_exact() {
        let mut h = Histogram::new();
        for us in 0..SUB_BUCKETS as u64 {
            h.record(Duration::from_micros(us));
        }
        // Every sample below the sub-bucket threshold has its own bucket, so
        // percentiles in this region are exact (no bucket rounding).
        assert_eq!(h.percentile(100.0), Duration::from_micros(31));
        assert_eq!(Histogram::bucket_index(31), 31);
        assert_eq!(Histogram::bucket_value(31), 31);
    }

    #[test]
    fn boundary_at_32us_enters_the_log_region() {
        // 32 µs is the first logarithmic bucket; its representative value
        // must round-trip exactly.
        let idx = Histogram::bucket_index(32);
        assert_eq!(idx, SUB_BUCKETS);
        assert_eq!(Histogram::bucket_value(idx), 32);
        let mut h = Histogram::new();
        h.record(Duration::from_micros(32));
        assert_eq!(h.percentile(50.0), Duration::from_micros(32));
    }

    #[test]
    fn power_of_two_edges_round_trip() {
        for power in 5..31u32 {
            let v = 1u64 << power;
            let idx = Histogram::bucket_index(v);
            assert_eq!(
                Histogram::bucket_value(idx),
                v,
                "2^{power} must be its own bucket floor"
            );
            // The value just below the edge stays in the previous power's
            // bucket range (never rounds *up* across the edge).
            assert!(Histogram::bucket_value(Histogram::bucket_index(v - 1)) <= v - 1 + (v >> 5));
            assert!(Histogram::bucket_index(v - 1) < idx);
        }
    }

    #[test]
    fn saturation_at_the_cap_is_lossless_for_count_and_sum() {
        let mut h = Histogram::new();
        let cap = 1u64 << 32; // ≈ 1.2 hours in µs
        let beyond = Duration::from_micros(cap * 8);
        h.record(beyond);
        h.record(Duration::from_micros(cap));
        // Both land in the saturated top power block, where ever-larger
        // samples collapse onto the same buckets...
        assert!(Histogram::bucket_index(cap * 8) >= (MAX_POWER - 1) * SUB_BUCKETS);
        assert_eq!(
            Histogram::bucket_index(cap * 8),
            Histogram::bucket_index(cap * 16),
            "beyond the cap, indexes stop growing"
        );
        assert_eq!(h.count(), 2);
        // ...while min/max/sum stay exact.
        assert_eq!(h.max(), beyond);
        assert_eq!(h.min(), Duration::from_micros(cap));
        assert_eq!(h.mean(), Duration::from_micros(cap * 9 / 2));
        // Percentiles are clamped into the recorded range, not the bucket's
        // nominal (saturated) floor.
        assert!(h.percentile(1.0) >= h.min());
        assert!(h.percentile(100.0) <= h.max() + Duration::from_micros(cap >> 5));
    }

    #[test]
    fn degenerate_percentiles() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.0), Duration::ZERO, "empty histogram");
        assert_eq!(h.percentile(100.0), Duration::ZERO);
        for ms in [3u64, 7, 11] {
            h.record(Duration::from_millis(ms));
        }
        // percentile(0.0) targets the first sample — it reports the minimum.
        assert_eq!(h.percentile(0.0), h.min());
        // percentile(100.0) covers every sample; bucket rounding keeps it
        // within one sub-bucket of the true maximum.
        let p100 = h.percentile(100.0);
        assert!(p100 >= h.min());
        assert!(p100.as_micros() <= h.max().as_micros() * 33 / 32);
    }
}
