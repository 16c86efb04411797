//! Multi-region parallel-simulation bench behind `BENCH_parallel.json`.
//!
//! This is the workload the sharded runtime exists for: R independent
//! GeoTP regions (each a full paper-style deployment — 4 data sources at
//! 0/27/73/251 ms RTT, its own YCSB driver) declared as topology nodes on
//! an 80 ms-RTT WAN ring, exchanging gossip heartbeats through typed
//! mailboxes. With `workers > 1` the regions execute on separate shards in
//! real parallel threads, synchronised only by the conservative window
//! barrier (windows are bounded by the 40 ms one-way link latency, so
//! thousands of polls happen between barriers).
//!
//! The bench runs the identical workload at several worker counts and
//! **fails the build** (non-zero exit) unless:
//!
//! 1. the run fingerprint — region commit counts, completion times and
//!    gossip arrival schedules folded FNV-1a — is bit-identical at every
//!    worker count (scheduler independence, always enforced);
//! 2. the parallel efficiency holds: on a host with ≥ 4 CPUs the measured
//!    wall-clock speedup at 4 workers must reach `GEOTP_PAR_MIN_SPEEDUP`
//!    (default 2.5×); on smaller hosts — where that speedup is physically
//!    unmeasurable — the hardware-independent proxy is gated instead:
//!    per-shard load balance at 4 workers (`sum(polls)/max(polls)`, the
//!    Amdahl bound on achievable speedup) must reach
//!    `GEOTP_PAR_MIN_PROJECTED` (default 2.5×), and the sharding overhead
//!    (multi-worker wall / single-worker wall) must stay under
//!    `GEOTP_PAR_MAX_OVERHEAD` (default 2.5×).
//!
//! Wall-clock legs are read from the run at `min(4, cpus)` workers: more
//! runnable threads than CPUs measures the host's scheduler, not the barrier
//! (4 workers on 2 vCPUs read 7–14× while the 2-worker run was 1.3× *faster*
//! than one worker). On a 1-CPU host that is the baseline itself, so only
//! the fingerprint and load-balance legs gate there.
//!
//! Environment knobs:
//!
//! * `GEOTP_PAR_REGIONS`   regions on the WAN ring       (default 8)
//! * `GEOTP_PAR_ROWS`      records per data source       (default 10_000)
//! * `GEOTP_PAR_TERMINALS` closed-loop terminals/region  (default 64)
//! * `GEOTP_PAR_SECS`      virtual measure window, s     (default 20)
//! * `GEOTP_PAR_SEED`      root seed                     (default 42)
//! * `GEOTP_PAR_WORKERS`   comma list of worker counts   (default 1,2,4,8)
//!
//! ```text
//! cargo bench -p geotp-bench --bench parallel_regions
//! ```

use std::rc::Rc;
use std::time::{Duration, Instant};

use geotp::prelude::*;
use geotp_simrt::{handle, RuntimeBuilder};

/// WAN ring round-trip between neighbouring regions; the 40 ms one-way
/// latency is the conservative lookahead every cross-shard message must
/// respect, and the lower bound on the barrier window size.
const WAN_RTT_MS: u64 = 80;
const ONE_WAY_US: u64 = WAN_RTT_MS * 1000 / 2;
/// Gossip heartbeats each region sends its ring successor. 40 rounds at
/// ~0.5 s covers the warmup + measure window of the default config.
const GOSSIP_ROUNDS: u32 = 40;
const GOSSIP_PERIOD_US: u64 = 497_133;

struct Gossip {
    from: u32,
    round: u32,
}

struct Done {
    region: u32,
    committed: u64,
    aborted: u64,
    finished_at: u64,
    gossip_hash: u64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fnv_fold(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[derive(Clone, Copy)]
struct Config {
    regions: usize,
    rows: u64,
    terminals: usize,
    measure_secs: u64,
    seed: u64,
}

struct RunResult {
    wall_secs: f64,
    fingerprint: u64,
    committed: u64,
    aborted: u64,
    polls: u64,
    shard_polls: Vec<u64>,
}

/// One region's life: build a private GeoTP deployment, gossip with the
/// ring successor, run the YCSB driver, drain the predecessor's heartbeats
/// and report home. Everything here runs on the region's own shard thread.
async fn region_main(
    r: u32,
    cfg: Config,
    mb: geotp_simrt::Mailbox<Gossip>,
    next: geotp_simrt::BoundSender<Gossip>,
    home: geotp_simrt::BoundSender<Done>,
) {
    let gossip = geotp_simrt::spawn(async move {
        for round in 0..GOSSIP_ROUNDS {
            geotp_simrt::sleep(Duration::from_micros(GOSSIP_PERIOD_US)).await;
            next.send(ONE_WAY_US, Gossip { from: r, round });
        }
    });

    let cluster = ClusterBuilder::new()
        .paper_default_sources()
        .records_per_node(cfg.rows)
        .protocol(Protocol::geotp())
        .build();
    let ycsb = YcsbConfig::new(4, cfg.rows)
        .with_contention(Contention::Medium)
        .with_distributed_ratio(0.2);
    let generator = Rc::new(YcsbGenerator::new(ycsb));
    generator.load(cluster.data_sources());

    let region_seed = cfg
        .seed
        .wrapping_add((u64::from(r) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let report = run_benchmark(
        Rc::clone(cluster.middleware()),
        WorkloadMix::Ycsb(generator),
        DriverConfig {
            terminals: cfg.terminals,
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs(cfg.measure_secs),
            seed: region_seed,
        },
    )
    .await;

    // Drain the predecessor's full heartbeat schedule; arrival times and
    // order are part of the fingerprint, so a shard delivering a message
    // early or late at ANY worker count shows up as a mismatch.
    let mut gossip_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..GOSSIP_ROUNDS {
        let d = mb.recv().await;
        fnv_fold(&mut gossip_hash, d.at_micros);
        fnv_fold(&mut gossip_hash, u64::from(d.src_node));
        fnv_fold(&mut gossip_hash, u64::from(d.payload.from));
        fnv_fold(&mut gossip_hash, u64::from(d.payload.round));
    }
    gossip.await;

    home.send(
        ONE_WAY_US,
        Done {
            region: r,
            committed: report.metrics.committed(),
            aborted: report.metrics.aborted(),
            finished_at: handle().now_micros(),
            gossip_hash,
        },
    );
}

fn run_once(workers: usize, cfg: Config) -> RunResult {
    let mut builder = RuntimeBuilder::new()
        .workers(workers)
        .seed(cfg.seed)
        .assign("coord", 0);
    // WAN ring plus a report link home; every edge is 80 ms RTT so the
    // declared lookahead between any shard pair is the 40 ms one-way.
    for r in 0..cfg.regions {
        let name = format!("region{r}");
        let succ = format!("region{}", (r + 1) % cfg.regions);
        builder = builder
            .link(&name, &succ, Duration::from_millis(WAN_RTT_MS))
            .link(&name, "coord", Duration::from_millis(WAN_RTT_MS));
    }
    let mut senders = Vec::new();
    let mut tokens = Vec::new();
    for r in 0..cfg.regions {
        let (tx, tok) = builder.mailbox::<Gossip>(&format!("region{r}"));
        senders.push(tx);
        tokens.push(Some(tok));
    }
    let (home_tx, home_tok) = builder.mailbox::<Done>("coord");
    for r in 0..cfg.regions {
        let name = format!("region{r}");
        let tok = tokens[r].take().expect("token used once");
        let next = senders[(r + 1) % cfg.regions].clone();
        let home = home_tx.clone();
        builder = builder.spawn_node(&name.clone(), move || async move {
            let mb = tok.bind();
            let next = next.bind_src(&name);
            let home = home.bind_src(&name);
            region_main(r as u32, cfg, mb, next, home).await;
        });
    }

    let mut rt = builder.build();
    let regions = cfg.regions;
    let started = Instant::now();
    let (fingerprint, committed, aborted) = rt.block_on(async move {
        let mb = home_tok.bind();
        let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
        let (mut committed, mut aborted) = (0u64, 0u64);
        for _ in 0..regions {
            let d = mb.recv().await;
            fnv_fold(&mut fingerprint, d.at_micros);
            fnv_fold(&mut fingerprint, u64::from(d.src_node));
            fnv_fold(&mut fingerprint, u64::from(d.payload.region));
            fnv_fold(&mut fingerprint, d.payload.committed);
            fnv_fold(&mut fingerprint, d.payload.aborted);
            fnv_fold(&mut fingerprint, d.payload.finished_at);
            fnv_fold(&mut fingerprint, d.payload.gossip_hash);
            committed += d.payload.committed;
            aborted += d.payload.aborted;
        }
        (fingerprint, committed, aborted)
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let metrics = rt.metrics();
    let shard_polls: Vec<u64> = rt.shard_metrics().iter().map(|m| m.polls).collect();
    RunResult {
        wall_secs,
        fingerprint,
        committed,
        aborted,
        polls: metrics.polls,
        shard_polls,
    }
}

fn main() {
    let cfg = Config {
        regions: env_u64("GEOTP_PAR_REGIONS", 8) as usize,
        rows: env_u64("GEOTP_PAR_ROWS", 10_000),
        terminals: env_u64("GEOTP_PAR_TERMINALS", 64) as usize,
        measure_secs: env_u64("GEOTP_PAR_SECS", 20),
        seed: env_u64("GEOTP_PAR_SEED", 42),
    };
    let worker_counts: Vec<usize> = std::env::var("GEOTP_PAR_WORKERS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .filter(|&w| w >= 1)
        .collect();
    assert!(
        worker_counts.contains(&1),
        "GEOTP_PAR_WORKERS must include 1 (the fingerprint + speedup baseline)"
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!(
        ">>> parallel_regions: {} regions (4 paper-RTT sources each), {} rows/source, \
         {} terminals/region, {}s virtual window, workers {:?}, {} cpus",
        cfg.regions, cfg.rows, cfg.terminals, cfg.measure_secs, worker_counts, cpus
    );

    let mut results: Vec<(usize, RunResult)> = Vec::new();
    for &workers in &worker_counts {
        let res = run_once(workers, cfg);
        eprintln!(
            "    workers={workers}: wall={:.2}s committed={} fingerprint={:016x} \
             shard_polls={:?}",
            res.wall_secs, res.committed, res.fingerprint, res.shard_polls
        );
        results.push((workers, res));
    }

    let baseline = &results.iter().find(|(w, _)| *w == 1).expect("workers=1").1;
    let mut ok = true;
    for (workers, res) in &results {
        if res.fingerprint != baseline.fingerprint || res.committed != baseline.committed {
            eprintln!(
                "FAIL: fingerprint diverged at workers={workers}: \
                 {:016x} (committed {}) vs baseline {:016x} (committed {})",
                res.fingerprint, res.committed, baseline.fingerprint, baseline.committed
            );
            ok = false;
        }
    }

    // Load balance comes from the 4-worker run (the acceptance point; the
    // widest multi-worker run if 4 was not requested), wall-clock figures
    // from the widest run that does not oversubscribe the host.
    let balance_run = results.iter().find(|(w, _)| *w == 4).or_else(|| {
        results
            .iter()
            .filter(|(w, _)| *w > 1)
            .max_by_key(|(w, _)| *w)
    });
    let (wall_workers, wall_run) = results
        .iter()
        .filter(|(w, _)| *w <= cpus.min(4))
        .max_by_key(|(w, _)| *w)
        .map(|(w, r)| (*w, r))
        .expect("workers=1 always fits");
    let speedup = baseline.wall_secs / wall_run.wall_secs;
    let overhead = wall_run.wall_secs / baseline.wall_secs;
    let mut projected = 1.0;
    if let Some((_, res)) = balance_run {
        let max_shard = res.shard_polls.iter().copied().max().unwrap_or(1).max(1);
        projected = res.polls as f64 / max_shard as f64;
        let min_speedup = env_f64("GEOTP_PAR_MIN_SPEEDUP", 2.5);
        let min_projected = env_f64("GEOTP_PAR_MIN_PROJECTED", 2.5);
        // The cap catches pathological regressions (a spinning barrier is
        // >4x) without flagging scheduler noise.
        let max_overhead = env_f64("GEOTP_PAR_MAX_OVERHEAD", 2.5);
        if cpus >= 4 {
            if speedup < min_speedup {
                eprintln!(
                    "FAIL: wall speedup at {wall_workers} workers is {speedup:.2}x \
                     (< {min_speedup:.2}x) on a {cpus}-cpu host"
                );
                ok = false;
            }
        } else {
            // Too few cores for the 4-worker speedup: gate the
            // hardware-independent proxy instead.
            if projected < min_projected {
                eprintln!(
                    "FAIL: load balance bounds speedup at {projected:.2}x \
                     (< {min_projected:.2}x): shard_polls={:?}",
                    res.shard_polls
                );
                ok = false;
            }
            if overhead > max_overhead {
                eprintln!(
                    "FAIL: sharding overhead at {wall_workers} workers {overhead:.2}x exceeds \
                     {max_overhead:.2}x on a {cpus}-cpu host"
                );
                ok = false;
            }
        }
    }

    let committed_per_wall_sec = baseline.committed as f64 / baseline.wall_secs;
    let walls = results
        .iter()
        .map(|(w, r)| format!("{{\"workers\": {w}, \"wall_secs\": {:.3}}}", r.wall_secs))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "json: {{\"regions\": {}, \"rows\": {}, \"terminals\": {}, \"virtual_secs\": {}, \
         \"cpus\": {cpus}, \"committed\": {}, \"aborted\": {}, \"fingerprint\": \"{:016x}\", \
         \"runs\": [{walls}], \"speedup_vs_1\": {speedup:.3}, \"projected_speedup\": \
         {projected:.3}, \"wall_workers\": {wall_workers}, \"overhead\": {overhead:.3}, \
         \"committed_per_wall_sec_1w\": {committed_per_wall_sec:.1}}}",
        cfg.regions,
        cfg.rows,
        cfg.terminals,
        cfg.measure_secs,
        baseline.committed,
        baseline.aborted,
        baseline.fingerprint,
    );

    if ok {
        eprintln!("parallel_regions: PASS");
    } else {
        std::process::exit(1);
    }
}
