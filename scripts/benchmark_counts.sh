#!/usr/bin/env bash
# Pin the benchmark's exact per-committed-transaction counts.
#
# Runs the traced pass of the five benchmark workloads at seed 42 for one
# virtual second and compares each workload's sim_fingerprint and its
# structural counters (polls, timers, spawns, clock jumps, messages, storage
# reads / writes / lock acquires / WAL flushes, statements, allocations) with
# tests/golden/benchmark_counts.txt. Each value is an exact count divided by
# the committed transactions, so two runs print the same digits; a change
# that adds work per transaction fails here, and the diff names the metric.
#
#   scripts/benchmark_counts.sh                 # check: exit 1 on any drift
#   GEOTP_BLESS=1 scripts/benchmark_counts.sh   # rewrite the golden file
#
# A re-bless lands with a before/after line in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=42
WORKLOADS="ycsb_paper ycsb_contended tpcc_mix tier_openloop snapshot_readmostly"
METRICS="simrt.polls_per_txn simrt.timers_per_txn simrt.tasks_spawned_per_txn
simrt.clock_advances_per_txn net.messages_per_txn storage.reads_per_txn
storage.writes_per_txn storage.lock_immediate_per_txn storage.lock_waited_per_txn
storage.wal_flushes_per_txn datasource.statements_per_txn alloc.count_per_txn
alloc.bytes_per_txn"
GOLDEN=tests/golden/benchmark_counts.txt

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/geotp-benchmark"

actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
echo "# workload seed metric value (scripts/benchmark_counts.sh)" > "$actual"
for w in $WORKLOADS; do
    out=$("$BIN" --workload "$w" --seed "$SEED" --seconds 1 --trace 1)
    fp=$(printf '%s\n' "$out" | sed -n 's/.*sim_fingerprint \([0-9a-f]*\).*/\1/p' | head -n 1)
    json=$(printf '%s\n' "$out" | tail -n 1)
    echo "$w $SEED sim_fingerprint $fp" >> "$actual"
    for m in $METRICS; do
        v=$(printf '%s' "$json" | grep -o "\"$m\":{\"value\":[^,}]*" | sed 's/.*://')
        if [ -z "$v" ]; then
            echo "benchmark_counts: $w printed no $m" >&2
            exit 2
        fi
        echo "$w $SEED $m $v" >> "$actual"
    done
done

if [ "${GEOTP_BLESS:-}" = "1" ]; then
    cp "$actual" "$GOLDEN"
    echo "benchmark_counts: wrote $GOLDEN"
elif diff -u "$GOLDEN" "$actual"; then
    echo "benchmark_counts: $GOLDEN matches"
else
    echo "benchmark_counts: exact counts drifted from $GOLDEN; if intended," \
        "re-record with GEOTP_BLESS=1 and put the before/after in CHANGES.md" >&2
    exit 1
fi
