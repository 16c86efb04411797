#!/usr/bin/env bash
# Compare the working tree with a git revision on one benchmark workload, in
# interleaved pairs of end-to-end runs.
#
#   scripts/ab_pairs.sh <rev> <workload> <pairs> [seconds]
#
# Builds the benchmark twice, each with its own CARGO_TARGET_DIR: `<rev>`
# exported (`git archive`) into a temporary directory, and the working tree.
# Then runs <pairs> pairs of `--trace 0` runs of [seconds] host seconds each
# (default 15, what BENCHMARK.json runs) at seed $AB_SEED (default 42; 7 is
# the held-out seed a claim must also hold on); pair i runs the revision
# first when i is odd and the working tree first when it is even, so neither
# side always runs on the warmer or the quieter half. Prints each pair's seven
# end-to-end metrics and sim_fingerprints, then per metric both sides'
# medians and quartiles and in how many pairs the working tree was better:
# the "better in at least 9 of 10 pairs" rule for a claimed gain as one
# command.
#
# The temporary directory (export, both target directories, the run outputs)
# is removed on exit, also on an error or an interrupt; set TMPDIR to put it
# elsewhere. Nothing under benchmark/ is edited.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/ab_pairs.sh <rev> <workload> <pairs> [seconds]" >&2
    exit 2
fi
REV=$1
WORKLOAD=$2
PAIRS=$3
SECONDS_PER_RUN=${4:-15}
SEED=${AB_SEED:-42}
# The end-to-end metrics BENCHMARK.json bounds, each with its better direction.
METRICS="host_txn_per_s:higher sim_txn_per_s:higher sim_mean_ms:lower sim_tail_ms:lower
sim_commit_ratio:higher setup_s:lower peak_rss_mb:lower"

git rev-parse --verify --quiet "$REV^{commit}" > /dev/null ||
    { echo "ab_pairs: $REV is not a commit" >&2; exit 2; }

TMP=$(mktemp -d)
RUNNING=""
cleanup() {
    if [ -n "$RUNNING" ]; then
        kill "$RUNNING" 2> /dev/null || true
        wait "$RUNNING" 2> /dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir "$TMP/base"
git archive "$REV" | tar -x -C "$TMP/base"
build() { # <checkout> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
echo "ab_pairs: building the benchmark at $REV and at the working tree" >&2
build "$TMP/base" "$TMP/target-base"
build . "$TMP/target-change"
declare -A BIN=(
    [base]="$TMP/target-base/release/geotp-benchmark"
    [change]="$TMP/target-change/release/geotp-benchmark"
)

# Run one side once; append "side pair metric value" lines to $TMP/values.
run_side() { # <side> <pair>
    "${BIN[$1]}" --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0 \
        --out "$TMP/out-$1" > "$TMP/run.txt" &
    RUNNING=$!
    wait "$RUNNING"
    RUNNING=""
    local fp json m v
    fp=$(sed -n 's/.*sim_fingerprint \([0-9a-f]*\).*/\1/p' "$TMP/run.txt" | head -n 1)
    json=$(tail -n 1 "$TMP/run.txt")
    echo "$1 $2 sim_fingerprint $fp" >> "$TMP/values"
    for m in $METRICS; do
        m=${m%%:*}
        v=$(printf '%s' "$json" | grep -o "\"$m\":{\"value\":[^,}]*" | sed 's/.*://')
        if [ -z "$v" ]; then
            echo "ab_pairs: the $1 run printed no $m" >&2
            exit 1
        fi
        echo "$1 $2 $m $v" >> "$TMP/values"
    done
}

: > "$TMP/values"
for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        run_side "$side" "$pair"
    done
    echo "pair $pair ($WORKLOAD, ${order%% *} ran first)"
    printf '  %-18s %16s %16s\n' metric base change
    awk -v pair="$pair" '$2 == pair { v[$1, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 } }
        END { for (i = 1; i <= n; i++) printf "  %-18s %16s %16s\n", order[i], v["base", order[i]], v["change", order[i]] }' \
        "$TMP/values"
done

echo "summary: $WORKLOAD, $PAIRS pairs, seed $SEED, $SECONDS_PER_RUN s a run; base = $REV, change = working tree"
printf '  %-18s %30s %30s  %s\n' metric "base median (q1 .. q3)" "change median (q1 .. q3)" "change better in"
for spec in $METRICS; do
    awk -v m="${spec%%:*}" -v better="${spec##*:}" -v pairs="$PAIRS" '
        # Quantile p of a[1..n] (sorted in place), interpolating between ranks.
        function q(a, n, p,    i, j, t, r) {
            for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
            r = 1 + (n - 1) * p; i = int(r)
            return i >= n ? a[n] : a[i] + (r - i) * (a[i + 1] - a[i])
        }
        function spread(a, n) { return sprintf("%.4g (%.4g .. %.4g)", q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75)) }
        $3 == m { v[$1, $2] = $4 }
        END {
            for (p = 1; p <= pairs; p++) {
                b[p] = v["base", p]; c[p] = v["change", p]
                if ((better == "higher" && c[p] > b[p]) || (better == "lower" && c[p] < b[p])) k++
                if (c[p] == b[p]) e++
            }
            printf "  %-18s %30s %30s  %d/%d pairs, equal in %d (%s is better)\n",
                m, spread(b, pairs), spread(c, pairs), k, pairs, e, better
        }' "$TMP/values"
done
awk '$3 == "sim_fingerprint" { fp[$4] = 1 } END { for (f in fp) n++; print (n > 1 ? "  sim_fingerprint differs between runs" : "  sim_fingerprint identical in every run") }' "$TMP/values"
