#!/usr/bin/env bash
# Non-test source lines per crate and for the workspace.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (every line counts: code, comments, blanks). Files under `crates/*/src`
# are counted; the vendored crates under `crates/vendor/` are not.
#
#   scripts/nontest_lines.sh          # from the repo root
#   scripts/nontest_lines.sh DIR      # count another checkout
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

total=0
for crate in crates/*/; do
    crate="${crate%/}"
    [ "$crate" = crates/vendor ] && continue
    [ -d "$crate/src" ] || continue
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { done = 0 } /#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }' |
        awk '{ sum += $1 } END { print sum + 0 }')
    printf '%-34s %6d\n' "$crate/src" "$lines"
    total=$((total + lines))
done
printf '%-34s %6d\n' "workspace" "$total"
