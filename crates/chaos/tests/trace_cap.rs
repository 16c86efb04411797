//! Bounded tracing under sustained load: a 200k-session `flash_crowd` drill
//! traced with a span cap must (a) keep the retained trace under the cap,
//! (b) reproduce the uncapped run's fingerprint byte-for-byte — eviction is
//! pure bookkeeping on the in-memory span store, never a schedule
//! perturbation — and (c) lose no metrics, since the cap bounds spans only.

use geotp_chaos::preset;
use geotp_chaos::telemetry::traced_capped;

const SPAN_CAP: usize = 4_096;

#[test]
fn flash_crowd_trace_stays_under_span_cap() {
    let seed = 11;
    let flash_crowd = preset("flash_crowd");
    let untraced = flash_crowd.run(seed);
    let (capped, telemetry) = traced_capped(SPAN_CAP, || flash_crowd.run(seed));

    assert_eq!(
        untraced.fingerprint, capped.fingerprint,
        "span-cap eviction perturbed the schedule"
    );
    assert_eq!(
        untraced.trace, capped.trace,
        "event traces diverged line-for-line under the span cap"
    );

    let retained = telemetry.tracer.len();
    assert!(
        retained <= SPAN_CAP,
        "flash crowd retained {retained} spans, cap is {SPAN_CAP}"
    );
    assert!(
        retained > 0,
        "capped run retained no spans at all — eviction is too aggressive"
    );

    // The cap bounds the span store only; counters must still see every
    // commit the clients saw (crash-lost replies make it strictly larger).
    let committed = telemetry.metrics.snapshot().counter_total("mw.committed");
    assert!(
        committed >= capped.committed,
        "registry saw {committed} commits, clients saw {}",
        capped.committed
    );
}
