#!/usr/bin/env bash
# Public functions that only tests reach.
#
# Prints `path name` for every `pub fn` on a non-test line under
# `crates/*/src` (vendor excluded) whose name, as a word, is on no non-test
# line of another file under `crates/*/src`, `crates/*/benches`, `examples/`
# or `benchmark/src`. A file's non-test lines are the lines before its first
# `#[cfg(test)]`, as in nontest_lines.sh; a bench target is a caller, not a
# test. Names shared with other items hide some functions, so the list is a
# floor, not the whole test-only surface.
#
#   scripts/test_only_surface.sh          # from the repo root
#   scripts/test_only_surface.sh DIR      # scan another checkout
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

find crates/*/src crates/*/benches examples benchmark/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { done = 0 }
        /#\[cfg\(test\)\]/ { done = 1 }
        done { next }
        {
            if (FILENAME ~ /^crates\/[^\/]+\/src\// && match($0, /^[ \t]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr($0, RSTART, RLENGTH)
                sub(/.*fn /, "", name)
                defs[FILENAME " " name] = name
            }
            n = split($0, words, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) {
                w = words[i]
                if (w != "" && !((w, FILENAME) in seen)) {
                    seen[w, FILENAME] = 1
                    files[w]++
                }
            }
        }
        END {
            for (d in defs) {
                if (files[defs[d]] == 1) print d
            }
        }' | LC_ALL=C sort
