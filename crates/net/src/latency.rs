//! Per-link latency models.
//!
//! A [`LatencyModel`] answers two questions about a link at a given virtual
//! time: the *nominal* round-trip time (what `tc` was configured to, used by
//! experiment harnesses as ground truth) and a *sampled* round-trip time
//! (what a packet actually experiences, possibly with jitter or random
//! variation).

use std::time::Duration;

use geotp_simrt::SimInstant;
use rand::rngs::StdRng;
use rand::Rng;

/// A model of one bidirectional link's round-trip latency.
pub trait LatencyModel {
    /// The nominal (configured) RTT at virtual time `now`, without noise.
    fn nominal_rtt(&self, now: SimInstant) -> Duration;

    /// A sampled RTT for one message exchange happening at `now`.
    fn sample_rtt(&self, now: SimInstant, _rng: &mut StdRng) -> Duration {
        self.nominal_rtt(now)
    }
}

/// Fixed round-trip latency (the paper's default `tc` configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticLatency {
    rtt: Duration,
}

impl StaticLatency {
    /// A link with a constant round-trip time.
    pub fn new(rtt: Duration) -> Self {
        Self { rtt }
    }

    /// Convenience constructor from milliseconds.
    pub fn from_millis(rtt_ms: u64) -> Self {
        Self::new(Duration::from_millis(rtt_ms))
    }
}

impl LatencyModel for StaticLatency {
    fn nominal_rtt(&self, _now: SimInstant) -> Duration {
        self.rtt
    }
}

/// Gaussian jitter around a mean RTT, truncated at a floor.
///
/// Used by the "random latency" experiment (Fig. 11a) and to add realism to
/// any link. The sample is drawn with the Box–Muller transform so we stay
/// within the plain `rand` crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitteredLatency {
    mean_rtt: Duration,
    std_dev: Duration,
    floor: Duration,
}

impl JitteredLatency {
    /// Jittered link with the given mean and standard deviation; samples are
    /// clamped to be at least 10% of the mean (and never negative).
    pub fn new(mean_rtt: Duration, std_dev: Duration) -> Self {
        Self {
            mean_rtt,
            std_dev,
            floor: mean_rtt / 10,
        }
    }
}

/// Draw a standard-normal sample using the Box–Muller transform.
pub(crate) fn standard_normal(rng: &mut StdRng) -> f64 {
    // Avoid ln(0) by sampling in the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl LatencyModel for JitteredLatency {
    fn nominal_rtt(&self, _now: SimInstant) -> Duration {
        self.mean_rtt
    }

    fn sample_rtt(&self, _now: SimInstant, rng: &mut StdRng) -> Duration {
        let noise = standard_normal(rng) * self.std_dev.as_secs_f64();
        let sampled = self.mean_rtt.as_secs_f64() + noise;
        let clamped = sampled.max(self.floor.as_secs_f64()).max(0.0);
        Duration::from_secs_f64(clamped)
    }
}

/// Piecewise-constant RTT schedule: the latency changes at fixed virtual
/// instants, as in the online-adaptivity experiment (Fig. 11b) where the
/// latency is re-drawn every 40 seconds over a 320-second run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicLatency {
    /// `(from_instant, rtt)` pairs sorted by instant; the first entry should
    /// start at time zero.
    schedule: Vec<(SimInstant, Duration)>,
}

impl DynamicLatency {
    /// Build from a schedule of `(start_instant, rtt)` segments. The segments
    /// are sorted internally; the latency before the first segment is the
    /// first segment's value.
    pub fn new(mut schedule: Vec<(SimInstant, Duration)>) -> Self {
        assert!(
            !schedule.is_empty(),
            "DynamicLatency needs at least one segment"
        );
        schedule.sort_by_key(|(t, _)| *t);
        Self { schedule }
    }

    /// Evenly spaced schedule: `rtts[i]` applies during the i-th window of
    /// length `window`.
    pub fn evenly_spaced(window: Duration, rtts: Vec<Duration>) -> Self {
        let schedule = rtts
            .into_iter()
            .enumerate()
            .map(|(i, rtt)| (SimInstant::ZERO + window * (i as u32), rtt))
            .collect();
        Self::new(schedule)
    }

    fn current(&self, now: SimInstant) -> Duration {
        let mut rtt = self.schedule[0].1;
        for (start, value) in &self.schedule {
            if *start <= now {
                rtt = *value;
            } else {
                break;
            }
        }
        rtt
    }
}

impl LatencyModel for DynamicLatency {
    fn nominal_rtt(&self, now: SimInstant) -> Duration {
        self.current(now)
    }
}

/// A base latency that is multiplied by a random factor drawn per sample,
/// used for the Fig. 11a "random network latency" runs where some nodes see
/// their latency fluctuate by up to 1.5x.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomLatency {
    base_rtt: Duration,
    min_factor: f64,
    max_factor: f64,
}

impl RandomLatency {
    /// RTT uniformly distributed in `[base*min_factor, base*max_factor]`.
    pub fn new(base_rtt: Duration, min_factor: f64, max_factor: f64) -> Self {
        assert!(min_factor > 0.0 && max_factor >= min_factor);
        Self {
            base_rtt,
            min_factor,
            max_factor,
        }
    }
}

impl LatencyModel for RandomLatency {
    fn nominal_rtt(&self, _now: SimInstant) -> Duration {
        self.base_rtt
    }

    fn sample_rtt(&self, _now: SimInstant, rng: &mut StdRng) -> Duration {
        let factor = rng.gen_range(self.min_factor..=self.max_factor);
        Duration::from_secs_f64(self.base_rtt.as_secs_f64() * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn static_latency_is_constant() {
        let m = StaticLatency::from_millis(73);
        assert_eq!(m.nominal_rtt(SimInstant::ZERO), Duration::from_millis(73));
        assert_eq!(
            m.sample_rtt(SimInstant::from_micros(1_000_000), &mut rng()),
            Duration::from_millis(73)
        );
    }

    #[test]
    fn jittered_latency_stays_near_mean() {
        let m = JitteredLatency::new(Duration::from_millis(100), Duration::from_millis(10));
        let mut r = rng();
        let mut sum = 0.0;
        let n = 2000;
        for _ in 0..n {
            let s = m.sample_rtt(SimInstant::ZERO, &mut r);
            assert!(s >= Duration::from_millis(10), "clamped at the floor");
            sum += s.as_secs_f64();
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 0.1).abs() < 0.005,
            "empirical mean {mean} too far from 100ms"
        );
    }

    #[test]
    fn dynamic_latency_follows_schedule() {
        let m = DynamicLatency::evenly_spaced(
            Duration::from_secs(40),
            vec![
                Duration::from_millis(30),
                Duration::from_millis(90),
                Duration::from_millis(60),
            ],
        );
        let at = |secs: u64| m.nominal_rtt(SimInstant::ZERO + Duration::from_secs(secs));
        assert_eq!(at(0), Duration::from_millis(30));
        assert_eq!(at(39), Duration::from_millis(30));
        assert_eq!(at(40), Duration::from_millis(90));
        assert_eq!(at(100), Duration::from_millis(60));
    }

    #[test]
    fn random_latency_within_bounds() {
        let m = RandomLatency::new(Duration::from_millis(100), 1.0, 1.5);
        let mut r = rng();
        for _ in 0..500 {
            let s = m.sample_rtt(SimInstant::ZERO, &mut r);
            assert!(s >= Duration::from_millis(100));
            assert!(s <= Duration::from_millis(150));
        }
    }

    #[test]
    fn standard_normal_mean_and_variance() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
