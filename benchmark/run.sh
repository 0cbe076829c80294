#!/usr/bin/env bash
# The one command of the repo benchmark: builds the benchmark package from
# source (offline, release) and runs it.
#
#   benchmark/run.sh                     every workload, untraced then traced
#   benchmark/run.sh --selfcheck         the untraced set twice, held to the bounds
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Nothing is pinned to a core and no load-generating thread is started beyond
# the driver's own; the library's shuffler and model-service workers only run
# while the driver blocks in a flush.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/Cargo.toml" ]; then
    echo "run.sh: $root/Cargo.toml not found: the benchmark builds the repo's crates from source" >&2
    exit 3
fi

# The numbers are only comparable when the benchmark is built like the repo.
release_profile() {
    awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 } on && NF && !/^#/' "$1"
}
if [ "$(release_profile "$here/Cargo.toml")" != "$(release_profile "$root/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] in benchmark/Cargo.toml differs from the root manifest's" >&2
    exit 3
fi

# A relative CARGO_TARGET_DIR is relative to the caller's directory, for cargo
# and for the path below alike, so the directory is not changed.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2

export P2B_BENCHMARK_OUT="$here/out"
exec "$target/release/p2b-benchmark" "$@"
