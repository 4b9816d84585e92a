#!/usr/bin/env bash
# Local CI gate: formatting, lints, concurrency discipline, and the full
# test suite — including the model-checked concurrency suite.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Structural static-analysis gate: the seven passes (facade-only sync,
# ordering justification, no-lock-in-unsafe, run-equivalence coverage,
# lock-order cycles, acquire/release pairing, blocking-while-locked)
# over the kernel crates. The human report prints per-pass finding
# counts and the waiver inventory; the workspace expectation is ZERO
# findings and ZERO waivers — any waiver must carry a written
# justification and survive review. Exit codes: 0 clean, 1 findings,
# 2 usage/IO error.
echo "==> pipes-lint (structural static-analysis gate, 7 passes)"
cargo run -q -p pipes-lint

echo "==> pipes-lint --json machine-readable report parses"
cargo run -q -p pipes-lint -- --json > target/lint_report.json
test -s target/lint_report.json
python3 -c 'import json,sys; json.load(open("target/lint_report.json"))' 2>/dev/null \
    || node -e 'JSON.parse(require("fs").readFileSync("target/lint_report.json"))' 2>/dev/null \
    || echo "==> NOTICE: no python3/node on PATH; skipped JSON parse check (file is non-empty)"

echo "==> cargo test -q"
cargo test -q --workspace

# Flight-recorder gate: the compiled-out configuration must still build
# and pass its suite (every recording site becomes a no-op), and the
# quickstart must export a parseable Chrome trace.
echo "==> trace-off configuration (recorder compiled out)"
cargo test -q -p pipes-trace --features trace-off

# Metadata-plane gate: the compiled-out configuration must still build and
# pass the estimator/derivation suites (every collection site becomes a
# no-op and snapshots degrade to priors).
echo "==> meta-off configuration (metadata plane compiled out)"
cargo test -q -p pipes-meta -p pipes-graph --features pipes-meta/meta-off

echo "==> quickstart trace + meta introspection export smoke test"
PIPES_TRACE_OUT=target/quickstart_trace.json \
PIPES_META_OUT=target/quickstart_meta.json \
    cargo run -q --example quickstart >/dev/null
test -s target/quickstart_trace.json
test -s target/quickstart_meta.json
python3 -c 'import json,sys; json.load(open("target/quickstart_trace.json")); json.load(open("target/quickstart_meta.json"))' 2>/dev/null \
    || node -e 'JSON.parse(require("fs").readFileSync("target/quickstart_trace.json")); JSON.parse(require("fs").readFileSync("target/quickstart_meta.json"))' 2>/dev/null \
    || echo "==> NOTICE: no python3/node on PATH; skipped JSON parse check (files are non-empty)"

# Telemetry smoke: `pipes_top` registers nothing with its monitor, so the
# four instances `parallelize` splices in mid-run reach its final table and
# its Prometheus lines only through `QueryGraph::telemetry()` — the
# end-to-end proof that nobody has to register a node to observe it.
echo "==> pipes_top: the widened keyed group is observable without registration"
top_out=$(cargo run -q --example pipes_top)
final_table=$(sed -n '/^--- final/,/^window counts delivered/p' <<<"$top_out")
test "$(grep -c '^bucket-count#' <<<"$final_table")" -eq 4
test "$(grep -c '^pipes_node_in_total{node="bucket-count#' <<<"$top_out")" -eq 4
grep -qx 'pipes_node_instances{node="bucket-count"} 4' <<<"$top_out"

# The experiment smoke runs below write their `BENCH_*.json` into the
# directory they run in. They run in a scratch directory, so quick-run
# numbers never land on the checked-in artifacts (those are regenerated
# only by full, non-quick runs from the repository root).
quick_dir=target/ci-quick
mkdir -p "$quick_dir"
experiment() {
    (cd "$quick_dir" && cargo run -q --release -p pipes-bench --bin experiments -- "$@")
}

# Scheduler-layers smoke run: E16 exercises both drivers (the
# single-thread executor, and work stealing at every worker count up to
# the core count) end to end on the skewed multi-chain workload and
# asserts full delivery; quick mode keeps it to seconds. The ratios are
# recorded from the full (non-quick) run in EXPERIMENTS.md, not gated here.
# Its first table — ns per strategy pick against installed nodes, 4 ready —
# is printed: a pick that grows with the installed nodes again shows here
# (the 2x bar itself is checked on the full run; quick medians are noisy).
echo "==> E16 scheduler-layers smoke run (quick) + pick-cost scaling table"
experiment e16 --quick | grep -A 6 "ns per strategy pick"

# Run-algebra smoke run: E17 drives the NEXMark-style join + aggregate
# plan under both dispatch granularities and asserts they produce the
# same sink output; quick mode keeps it to seconds. As with E16, the
# ratio acceptance bar lives in the full run recorded in EXPERIMENTS.md.
echo "==> E17 run-at-a-time algebra smoke run (quick)"
experiment e17 --quick >/dev/null

# Window-aggregation smoke run: E18 sweeps the sliding-window count under
# both partial-state layouts (naive boundary scan vs partial-aggregate
# tree) and asserts byte-identical sink output on every rep; quick mode
# keeps it to seconds. The >= 20x acceptance bar at window 1024 lives in
# the full run recorded in EXPERIMENTS.md.
echo "==> E18 window-aggregation smoke run (quick)"
experiment e18 --quick >/dev/null

# Metadata-plane smoke run: E19 runs the E17 join plan with collection
# disabled and enabled in alternating pairs and checks that a warm graph
# feeds measured estimates through the snapshot; quick mode keeps it to
# seconds. The <= 3% overhead bar is checked in the full run recorded in
# EXPERIMENTS.md, not gated here (quick-run medians are too noisy).
echo "==> E19 metadata-plane smoke run (quick)"
experiment e19 --quick >/dev/null

# Hot-topology smoke run: E20 splices a fleet of prefix-sharing queries
# into a graph a work-stealing executor is already draining, watching
# install-to-first-result latency from the side; quick mode keeps it to
# seconds. The >= 5x sharing and no-throughput-degradation bars live in
# the full run recorded in EXPERIMENTS.md.
echo "==> E20 hot-topology splice smoke run (quick)"
experiment e20 --quick >/dev/null

# Keyed-parallelism smoke run: E21 builds the NEXMark join + aggregate
# plan single-instance and behind shuffle edges, asserts byte-identical
# sink output at several instance counts, then sweeps the work-stealing
# executor over the available cores; quick mode keeps it to seconds. The
# scaling bar lives in the full run recorded in EXPERIMENTS.md (and needs
# a multi-core host — see the E21 caveat there).
echo "==> E21 keyed-parallelism smoke run (quick)"
experiment e21 --quick >/dev/null

# End-to-end benchmark smoke run: all five workloads of BENCHMARK.json from
# CQL text to the sink, 0.5 s phases. Fails on a verify mismatch against
# the in-benchmark reference, a lost event, or a malformed/unlisted metric
# name; the numbers of a quick run are not compared against anything. The
# package is a workspace of its own, so its unit tests run here too.
echo "==> benchmark smoke run (quick) + its unit tests"
benchmark/run.sh --quick >/dev/null
(cd benchmark && CARGO_TARGET_DIR=../target cargo test -q --offline)

# Aggregate-layer gate: the two window workloads, traced for 3 s each, must
# keep their CQL `EVERY` aggregates sampled on the grid layout (one
# accumulator per pending grid instant). The grid reads well under 1 us
# per aggregated message on a 2-core Xeon host, the partial-aggregate tree
# 2-3.5 us and the naive boundary scan 53-107 us; the bar stays at 10 us,
# so an aggregate that falls back to the naive scan (a combine gone
# missing, the grid rewrite and the tree both lost) fails here, not only
# in the end-to-end throughput.
echo "==> window aggregates stay sampled on the grid (ops.aggregate_ns < 10 us)"
for workload in nexmark_window_agg traffic_window_agg; do
    result=$(benchmark/run.sh --workload "$workload" --seed 1 --seconds 3 --trace 1 2>/dev/null | tail -n 1)
    grep -q '"correct": true' <<<"$result"
    ns=$(sed -n 's/.*"ops\.aggregate_ns": {"value": \([0-9.eE+-]*\),.*/\1/p' <<<"$result")
    echo "    $workload: ops.aggregate_ns = ${ns:-missing} ns"
    awk -v ns="$ns" 'BEGIN { exit !(ns != "" && ns + 0 < 10000) }'
done

# Model-checked concurrency suite: compile the kernel against the
# instrumented loom-shim primitives and exhaustively explore interleavings
# of the data-path/scheduler invariants (see DESIGN.md § "Concurrency
# discipline") — among them the readiness protocol's two races (a push
# against the end-of-step publication in pipes-graph, a push against park
# in pipes-sched) and the parker's waiter flag. A separate target dir keeps
# the two cfg worlds from thrashing each other's incremental caches.
echo "==> model-checked concurrency suite (--cfg pipes_model_check)"
RUSTFLAGS="${RUSTFLAGS:-} --cfg pipes_model_check" \
CARGO_TARGET_DIR=target/model-check \
    cargo test -q -p pipes-sync -p pipes-graph -p pipes-sched -p pipes-mem

# Best-effort deep checks: ThreadSanitizer and miri need a nightly
# toolchain with the right components; skip loudly when unavailable so
# the absence is visible in the log rather than silently green.
if rustup toolchain list 2>/dev/null | grep -q nightly; then
    nightly_components=$(rustup +nightly component list --installed 2>/dev/null || true)
    if grep -q miri <<<"$nightly_components"; then
        echo "==> miri (nightly, pipes-sync facade tests)"
        cargo +nightly miri test -q -p pipes-sync
    else
        echo "==> SKIPPED: miri component not installed on nightly"
    fi
    # TSan must rebuild std with the sanitizer ABI, which needs rust-src.
    if grep -q rust-src <<<"$nightly_components"; then
        echo "==> ThreadSanitizer (nightly, concurrency stress tests)"
        RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=thread" \
        CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test -q -Zbuild-std \
            --target "$(rustc -vV | sed -n 's/^host: //p')" \
            -p pipes-graph --test batching_props \
            || echo "==> NOTICE: TSan stage failed on this host (non-gating)"
    else
        echo "==> SKIPPED: TSan needs the nightly rust-src component (-Zbuild-std); not installed"
    fi
else
    echo "==> SKIPPED: TSan/miri stages need a nightly toolchain (none installed)"
fi
echo "    (the model-checked suite above remains the gating concurrency check)"

echo "CI OK"
