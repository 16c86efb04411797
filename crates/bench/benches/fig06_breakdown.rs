//! Bench target regenerating the paper's fig06 breakdown experiment, both the
//! stopwatch breakdown and its trace cross-check.
//! Run with `cargo bench --bench fig06_breakdown` (set `GEOTP_FULL=1` for paper scale).

fn main() {
    geotp_bench::run_and_print(
        "fig06_breakdown",
        geotp_experiments::figs_motivation::fig06_breakdown,
    );
    geotp_bench::run_and_print(
        "fig06_trace_breakdown",
        geotp_experiments::figs_motivation::fig06_trace_breakdown,
    );
}
