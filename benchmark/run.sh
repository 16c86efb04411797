#!/usr/bin/env bash
# The whole suite: build offline, run the five workloads one process each
# (peak_rss_mb is per process) — end-to-end first, then the traced pass with
# the probes — and merge the per-workload files into $OUT/results.json, the
# shape `geotp-benchmark compare` reads.
#
#   SEED=42 SECONDS_PER_RUN=15 OUT=out ./run.sh
set -euo pipefail
cd "$(dirname "$0")"

SEED=${SEED:-42}
SECONDS_PER_RUN=${SECONDS_PER_RUN:-15}
OUT=${OUT:-out}
WORKLOADS="ycsb_paper ycsb_contended tpcc_mix tier_openloop snapshot_readmostly"

cargo build --release --offline
BIN="${CARGO_TARGET_DIR:-target}/release/geotp-benchmark"

for w in $WORKLOADS; do
    "$BIN" --workload "$w" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0 --out "$OUT"
done
for w in $WORKLOADS; do
    "$BIN" --workload "$w" --seed "$SEED" --trace 1 --out "$OUT"
done

{
    echo "{"
    sep=""
    for w in $WORKLOADS; do
        printf '%s"%s": {"end_to_end": ' "$sep" "$w"
        cat "$OUT/$w.e2e.json"
        printf ', "per_layer": '
        cat "$OUT/$w.layers.json"
        printf '}'
        sep=","
    done
    echo "}"
} > "$OUT/results.json"
echo "wrote $OUT/results.json"
