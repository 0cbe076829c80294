#!/usr/bin/env bash
# Counts non-test source lines, per crate and in total, then the vendored
# stand-ins under `vendor/` as one more line below the total.
#
# For every `crates/*/src/**/*.rs` it counts the lines above the file's
# first `#[cfg(test)]` in column 0 (a test module; an indented one gates a
# field or a statement and counts), leaving out blank lines and lines that
# start with `//` (comments and doc comments). Each file is read on its
# own, so a file with no such line counts in full, even one only a
# `#[cfg(test)] mod` elsewhere reaches. `vendor` counts `vendor/*/src` by
# the same rule; `total` stays the crates' sum.
#
# Usage: scripts/nontest_lines.sh [REPO_ROOT]
# REPO_ROOT defaults to the checkout this script lives in.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"

# Non-test lines of the `.rs` files under directory $1.
count_lines() {
  find "$1" -type f -name '*.rs' -exec awk '
      FNR == 1 { testing = 0 }
      /^#\[cfg\(test\)\]/ { testing = 1 }
      testing || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
      { lines++ }
      END { print lines + 0 }' {} + | awk '{ sum += $1 } END { print sum + 0 }'
}

total=0
for src in "$root"/crates/*/src; do
  count=$(count_lines "$src")
  printf '%-12s %6d\n' "$(basename "$(dirname "$src")")" "$count"
  total=$((total + count))
done
printf '%-12s %6d\n' total "$total"

vendor=0
for src in "$root"/vendor/*/src; do
  vendor=$((vendor + $(count_lines "$src")))
done
printf '%-12s %6d\n' vendor "$vendor"
