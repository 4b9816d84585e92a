#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in this process; the last line of stdout is the result
#       (the form the driver of BENCHMARK.json calls)
#   benchmark/run.sh [--seed N] [--quick] [--record] [--runs N] [workload…]
#       every named workload (default: all five), each in its own process
#   benchmark/run.sh compare A.json B.json
#
# Run from the root of the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The root workspace's target directory unless the caller names another; a
# relative name is taken from the directory the script was called in.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin="$target/release/pipes-benchmark"
common=(--benchmark "$root/BENCHMARK.json")
case "${1:-}" in
    compare)
        shift
        exec "$bin" compare "${common[@]}" "$@"
        ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "${common[@]}" --out "$here/out" "$@"
    fi
done
exec "$bin" suite "${common[@]}" --dir "$here" "$@"
