#!/usr/bin/env bash
# Counts non-test source lines, per crate and in total, then the vendored
# stand-ins under `vendor/` as one more line below the total.
#
# For every `crates/*/src/**/*.rs` it counts the lines above the file's
# first `#[cfg(test)]` in column 0 (a test module; an indented one gates a
# field or a statement and counts), leaving out blank lines and lines that
# start with `//` (comments and doc comments). A file reached only through
# a `mod NAME;` declaration gated by a column-0 `#[cfg(test)]` (a test
# oracle or agreement suite kept in a file of its own), and every file
# below that module's directory, is test code and counts nothing. `vendor`
# counts `vendor/*/src` by the same rule; `total` stays the crates' sum.
#
# Usage: scripts/nontest_lines.sh [REPO_ROOT]
# REPO_ROOT defaults to the checkout this script lives in.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"

# The module paths (file path without `.rs`) that a column-0
# `#[cfg(test)]` gates in the `.rs` files under directory $1, joined by `:`.
# Blank, comment and attribute lines may sit between the gate and its
# `mod NAME;`. A module of `lib.rs`, `main.rs` or `mod.rs` lives beside it,
# one of `foo.rs` below `foo/`.
test_modules() {
  find "$1" -type f -name '*.rs' -exec awk '
      FNR == 1 {
        gated = 0
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
        base = (stem == "lib" || stem == "main" || stem == "mod") ? dir : dir "/" stem
      }
      /^#\[cfg\(test\)\][[:space:]]*$/ { gated = 1; next }
      gated && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
        name = $0; sub(/^.*mod /, "", name); sub(/;.*$/, "", name)
        printf "%s:", base "/" name
      }
      /^[[:space:]]*$/ || /^[[:space:]]*\/\// || /^#\[/ { next }
      { gated = 0 }' {} +
}

# Non-test lines of the `.rs` files under directory $1.
count_lines() {
  find "$1" -type f -name '*.rs' -exec awk -v gated="$(test_modules "$1")" '
      BEGIN { modules = split(gated, module, ":") }
      FNR == 1 {
        testing = 0
        for (i = 1; i <= modules; i++) {
          if (module[i] != "" && (FILENAME == module[i] ".rs" || index(FILENAME, module[i] "/") == 1)) {
            testing = 1
          }
        }
      }
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
