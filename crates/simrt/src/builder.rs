//! [`RuntimeBuilder`], the declaration-style front door kept for callers
//! that describe their deployment before building a [`Runtime`].

use std::time::Duration;

use crate::executor::Runtime;

/// Builder for a [`Runtime`]. It accepts seed, node, link and placement
/// declarations and ignores them: the runtime has one worker, so `build()`
/// is [`Runtime::new`].
#[derive(Default)]
pub struct RuntimeBuilder {
    _private: (),
}

impl RuntimeBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Same as [`RuntimeBuilder::new`]; reads no environment variable.
    pub fn from_env() -> Self {
        Self::new()
    }

    pub fn seed(self, _seed: u64) -> Self {
        self
    }

    pub fn node(self, _name: &str) -> Self {
        self
    }

    pub fn link(self, _a: &str, _b: &str, _rtt: Duration) -> Self {
        self
    }

    pub fn assign(self, _node: &str, _shard: u32) -> Self {
        self
    }

    pub fn build(self) -> Runtime {
        Runtime::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, spawn, sync::mpsc, RunMetrics};

    /// Eight spawned tasks sleep staggered amounts and report over a
    /// channel; returns the run's counters and its final clock.
    fn run_workload(mut rt: Runtime) -> (RunMetrics, u64, u64) {
        let sum = rt.block_on(async {
            let (tx, mut rx) = mpsc::unbounded();
            for i in 0..8u64 {
                let tx = tx.clone();
                spawn(async move {
                    for round in 0..3 {
                        sleep(Duration::from_micros(100 * (i + 1) + 7 * round)).await;
                        tx.send(i * round).unwrap();
                    }
                });
            }
            drop(tx);
            let mut sum = 0;
            while let Some(v) = rx.recv().await {
                sum += v;
            }
            sum
        });
        (rt.metrics(), rt.now_micros(), sum)
    }

    /// The declaration chain a deployment builds its runtime with runs a
    /// workload exactly like [`Runtime::new`]: same counters, same clock.
    #[test]
    fn declared_deployment_runs_like_a_plain_runtime() {
        let mut builder = RuntimeBuilder::from_env().seed(42).node("client");
        for (i, rtt_ms) in [0u64, 27, 73, 251].into_iter().enumerate() {
            let ds = format!("ds{i}");
            builder = builder
                .assign("mw0", 0)
                .link("mw0", &ds, Duration::from_millis(rtt_ms))
                .assign(&ds, 0);
        }
        let declared = run_workload(builder.build());
        let plain = run_workload(Runtime::new());
        assert_eq!(declared, plain);
        let (metrics, now, sum) = plain;
        assert_eq!(metrics.tasks_spawned, 8);
        assert_eq!(metrics.timers_registered, 24);
        assert_eq!(now, 2_421);
        assert_eq!(sum, 84);
    }
}
