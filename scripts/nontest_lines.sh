#!/usr/bin/env bash
# Counts non-test source lines, per crate and in total.
#
# For every `crates/*/src/**/*.rs` it counts the lines above the file's
# first `#[cfg(test)]` in column 0 (a test module; an indented one gates a
# field or a statement and counts), leaving out blank lines and lines that
# start with `//` (comments and doc comments). Each file is read on its
# own, so a file with no such line counts in full, even one only a
# `#[cfg(test)] mod` elsewhere reaches.
#
# Usage: scripts/nontest_lines.sh [REPO_ROOT]
# REPO_ROOT defaults to the checkout this script lives in.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"

total=0
for src in "$root"/crates/*/src; do
  count=$(find "$src" -type f -name '*.rs' -exec awk '
      FNR == 1 { testing = 0 }
      /^#\[cfg\(test\)\]/ { testing = 1 }
      testing || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
      { lines++ }
      END { print lines + 0 }' {} + | awk '{ sum += $1 } END { print sum + 0 }')
  printf '%-12s %6d\n' "$(basename "$(dirname "$src")")" "$count"
  total=$((total + count))
done
printf '%-12s %6d\n' total "$total"
