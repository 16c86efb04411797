//! The unified metrics registry: typed counters, gauges and histograms
//! registered by `(name, label, index)` and snapshotable at any virtual
//! instant.
//!
//! Keys are `(&'static str, &'static str, u32)` so hot-path increments never
//! allocate: the name is the metric family (`"net.messages"`), the label a
//! static qualifier (`"queue_full"`, `""` when unused), and the index a node
//! number. Snapshots sort keys before emitting, so output order is
//! deterministic regardless of hash-map iteration order.

use std::cell::RefCell;
use std::time::Duration;

use geotp_simrt::hash::FxHashMap;
use geotp_simrt::SimInstant;

use crate::histogram::Histogram;

/// A fully-qualified metric key.
pub type MetricKey = (&'static str, &'static str, u32);

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last-written gauge level.
    Gauge(i64),
    /// Sample count, mean and p99 of a histogram.
    Histogram {
        /// Number of recorded samples.
        count: u64,
        /// Mean sample.
        mean: Duration,
        /// 99th-percentile sample.
        p99: Duration,
    },
}

/// A deterministic point-in-time view of every registered metric.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Virtual instant the snapshot was taken.
    pub at: SimInstant,
    /// `(key, value)` pairs sorted by key.
    pub entries: Vec<(MetricKey, MetricValue)>,
}

impl MetricsSnapshot {
    /// Look up one metric by key.
    pub fn get(&self, name: &str, label: &str, index: u32) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|((n, l, i), _)| *n == name && *l == label && *i == index)
            .map(|(_, v)| v)
    }

    /// Sum of all counter values whose name matches, across labels/indices.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|((n, _, _), _)| *n == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Render as aligned `name{label,index} value` lines (sorted, stable).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ((name, label, index), value) in &self.entries {
            let qual = if label.is_empty() {
                format!("{{{index}}}")
            } else {
                format!("{{{label},{index}}}")
            };
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{name}{qual} {c}\n"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("{name}{qual} {g}\n"));
                }
                MetricValue::Histogram { count, mean, p99 } => {
                    out.push_str(&format!(
                        "{name}{qual} count={count} mean={}us p99={}us\n",
                        mean.as_micros(),
                        p99.as_micros()
                    ));
                }
            }
        }
        out
    }
}

/// The registry. Cheap to create; one per installed [`crate::Telemetry`].
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RefCell<FxHashMap<MetricKey, u64>>,
    gauges: RefCell<FxHashMap<MetricKey, i64>>,
    histograms: RefCell<FxHashMap<MetricKey, Histogram>>,
    /// Timeline of past snapshots, for timeline export.
    timeline: RefCell<Vec<MetricsSnapshot>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter (creating it at zero first).
    pub fn counter_add(&self, name: &'static str, label: &'static str, index: u32, delta: u64) {
        *self
            .counters
            .borrow_mut()
            .entry((name, label, index))
            .or_insert(0) += delta;
    }

    /// Current counter total.
    pub fn counter(&self, name: &'static str, label: &'static str, index: u32) -> u64 {
        self.counters
            .borrow()
            .get(&(name, label, index))
            .copied()
            .unwrap_or(0)
    }

    /// Set a gauge to an absolute level.
    pub fn gauge_set(&self, name: &'static str, label: &'static str, index: u32, level: i64) {
        self.gauges.borrow_mut().insert((name, label, index), level);
    }

    /// Add `delta` (possibly negative) to a gauge.
    pub fn gauge_add(&self, name: &'static str, label: &'static str, index: u32, delta: i64) {
        *self
            .gauges
            .borrow_mut()
            .entry((name, label, index))
            .or_insert(0) += delta;
    }

    /// Current gauge level.
    pub fn gauge(&self, name: &'static str, label: &'static str, index: u32) -> i64 {
        self.gauges
            .borrow()
            .get(&(name, label, index))
            .copied()
            .unwrap_or(0)
    }

    /// Record one sample into a histogram.
    pub fn observe(&self, name: &'static str, label: &'static str, index: u32, sample: Duration) {
        self.histograms
            .borrow_mut()
            .entry((name, label, index))
            .or_default()
            .record(sample);
    }

    /// Clone of one histogram, if it has been observed.
    pub fn histogram(
        &self,
        name: &'static str,
        label: &'static str,
        index: u32,
    ) -> Option<Histogram> {
        self.histograms.borrow().get(&(name, label, index)).cloned()
    }

    /// Take a deterministic snapshot of every metric at the current virtual
    /// instant (keys sorted).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(MetricKey, MetricValue)> = Vec::new();
        for (key, value) in self.counters.borrow().iter() {
            entries.push((*key, MetricValue::Counter(*value)));
        }
        for (key, value) in self.gauges.borrow().iter() {
            entries.push((*key, MetricValue::Gauge(*value)));
        }
        for (key, hist) in self.histograms.borrow().iter() {
            entries.push((
                *key,
                MetricValue::Histogram {
                    count: hist.count(),
                    mean: hist.mean(),
                    p99: hist.percentile(99.0),
                },
            ));
        }
        entries.sort_by_key(|(key, _)| *key);
        MetricsSnapshot {
            // Post-run inspection happens after `block_on` returned, where no
            // virtual clock exists; stamp those snapshots with zero.
            at: geotp_simrt::try_now().unwrap_or(SimInstant::from_micros(0)),
            entries,
        }
    }

    /// Take a snapshot and append it to the internal timeline.
    pub fn snapshot_to_timeline(&self) -> MetricsSnapshot {
        let snap = self.snapshot();
        self.timeline.borrow_mut().push(snap.clone());
        snap
    }

    /// All snapshots recorded with [`Self::snapshot_to_timeline`], in order.
    pub fn timeline(&self) -> Vec<MetricsSnapshot> {
        self.timeline.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_simrt::{sleep, Runtime};

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let reg = MetricsRegistry::new();
            reg.counter_add("net.messages", "", 0, 3);
            reg.counter_add("net.messages", "", 0, 2);
            reg.counter_add("net.messages", "", 1, 1);
            assert_eq!(reg.counter("net.messages", "", 0), 5);
            reg.gauge_set("cluster.queue_depth", "", 0, 4);
            reg.gauge_add("cluster.queue_depth", "", 0, -1);
            assert_eq!(reg.gauge("cluster.queue_depth", "", 0), 3);
            reg.observe("storage.lock_wait", "", 2, Duration::from_micros(640));
            let snap = reg.snapshot();
            assert_eq!(snap.counter_total("net.messages"), 6);
            assert_eq!(
                snap.get("cluster.queue_depth", "", 0),
                Some(&MetricValue::Gauge(3))
            );
            match snap.get("storage.lock_wait", "", 2) {
                Some(MetricValue::Histogram { count: 1, .. }) => {}
                other => panic!("unexpected histogram value: {other:?}"),
            }
        });
    }

    #[test]
    fn snapshots_are_sorted_and_timestamped() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let reg = MetricsRegistry::new();
            // Insert in shuffled order; snapshot must come out sorted so
            // exports never depend on hash-map iteration order.
            reg.counter_add("z.last", "", 9, 1);
            reg.counter_add("a.first", "b", 1, 1);
            reg.counter_add("a.first", "a", 2, 1);
            reg.snapshot_to_timeline();
            sleep(Duration::from_millis(5)).await;
            reg.counter_add("z.last", "", 9, 1);
            let snap = reg.snapshot_to_timeline();
            let keys: Vec<MetricKey> = snap.entries.iter().map(|(k, _)| *k).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted);
            let timeline = reg.timeline();
            assert_eq!(timeline.len(), 2);
            assert_eq!(
                timeline[1].at.duration_since(timeline[0].at),
                Duration::from_millis(5)
            );
            assert!(snap.render().contains("z.last{9} 2"));
            assert!(snap.render().contains("a.first{a,2} 1"));
        });
    }
}
