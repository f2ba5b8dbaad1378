#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
#
# Usage: ./ci.sh [--release]
#
# The workspace flag matters: the repo root is both the `mega-mmap`
# meta-crate and the workspace root, so a bare `cargo test` would only
# run the root package's suites.
set -euo pipefail
cd "$(dirname "$0")"

PROFILE=()
PROF=debug
if [[ "${1:-}" == "--release" ]]; then
    PROFILE=(--release)
    PROF=release
elif [[ $# -gt 0 ]]; then
    echo "usage: $0 [--release]" >&2
    exit 2
fi

# double_run PROF PKG BIN [BETWEEN]: build BIN from PKG into target/PROF,
# run it twice with stdout captured to /tmp/BIN.ci.{a,b}.txt (stderr may
# carry timing diagnostics and is dropped), and fail unless the two
# captures are byte-identical. BETWEEN names a command to run between the
# two runs (e.g. to snapshot an artifact the first run wrote).
double_run() {
    local prof=$1 pkg=$2 bin=$3 between=${4:-true}
    local flags=()
    [[ "$prof" == release ]] && flags=(--release)
    cargo build -q -p "$pkg" "${flags[@]}" --bin "$bin"
    "target/$prof/$bin" > "/tmp/$bin.ci.a.txt" 2> /dev/null
    "$between"
    "target/$prof/$bin" > "/tmp/$bin.ci.b.txt" 2> /dev/null
    diff -q "/tmp/$bin.ci.a.txt" "/tmp/$bin.ci.b.txt"
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets "${PROFILE[@]}" -- -D warnings

echo "==> mm-lint (workspace invariants, deny-by-default)"
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root .

echo "==> mm-lint deny (licenses + duplicate versions)"
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . deny

echo "==> mm-lint --check-allow (no stale allowlist entries)"
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . --check-allow

echo "==> mm-lint graph (lock graph clean + committed artifact up to date)"
# Regenerates results/lock_graph.{json,dot} and fails on any non-allowlisted
# lock-order violation, rank cycle, or hold-across-I/O finding. The second
# run plus git-diff pins both determinism and artifact freshness: a PR that
# changes the lock structure must commit the regenerated graph.
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . graph
cp results/lock_graph.json /tmp/lock_graph.ci.a.json
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . graph
diff -q /tmp/lock_graph.ci.a.json results/lock_graph.json
git diff --exit-code -- results/lock_graph.json results/lock_graph.dot \
    || { echo "results/lock_graph.{json,dot} out of date; commit the regenerated graph" >&2; exit 1; }

echo "==> cargo test"
cargo test -q --workspace "${PROFILE[@]}"

echo "==> loom model checks (resource / dlock / page merge)"
cargo test -q -p megammap-sim --features loom-model "${PROFILE[@]}" --test loom_resource
cargo test -q -p megammap-cluster --features loom-model "${PROFILE[@]}" --test loom_dlock
cargo test -q -p megammap-tiered --features loom-model "${PROFILE[@]}" --test loom_page

echo "==> loom model checks (commit-vs-writeback / drain / ownership races)"
cargo test -q -p megammap --features loom-model "${PROFILE[@]}" --lib loom_

if rustup component list 2>/dev/null | grep -q "^miri.*(installed)"; then
    echo "==> miri (pagebuf + rangeset unit tests)"
    cargo miri test -p megammap pagebuf:: rangeset::
else
    echo "==> miri unavailable (component not installed); skipping"
fi

echo "==> trace determinism (byte-identical trace_json + metrics_csv)"
cargo test -q -p megammap "${PROFILE[@]}" --test trace_determinism

echo "==> mm_trace smoke run (deterministic Perfetto trace)"
snapshot_trace() { cp results/mm_trace.perfetto.json /tmp/mm_trace.ci.a.json; }
double_run "$PROF" megammap-bench mm_trace snapshot_trace
diff -q /tmp/mm_trace.ci.a.json results/mm_trace.perfetto.json
python3 -c "import json,sys; d=json.load(open('results/mm_trace.perfetto.json')); sys.exit(0 if d['traceEvents'] else 1)" \
    || { echo "mm_trace emitted an empty or invalid Perfetto trace" >&2; exit 1; }

echo "==> mm_report determinism (byte-identical stdout under real concurrency)"
# Guards the report's filtering of order-dependent quantities (histogram
# sums, modeled lock waits): only conserved counters may reach stdout.
double_run "$PROF" megammap-bench mm_report

echo "==> mm_chaos scenario matrix (fault runs must bit-match fault-free runs)"
# Same seed twice: every scenario must pass AND stdout must be
# byte-identical (the whole point of virtual-clock fault injection).
double_run "$PROF" megammap-chaos mm_chaos

echo "==> mm_serve QoS scenario (deterministic double run + verdict)"
# Same seed twice: exit 0 means the QoS verdict passed (interactive fault
# p99 strictly better than --no-qos, budgets held); stdout must be
# byte-identical across the runs.
double_run "$PROF" megammap-serve mm_serve

echo "==> mm_serve telemetry overhead (< 2% on the serving fast path)"
"target/$PROF/mm_serve" --overhead-check

echo "==> mm_scope observatory (same-seed double run, byte-identical report)"
# The contention/hot-spot report is deterministic by construction
# (barrier-serialized, virtual-time counters only); the binary itself
# exits non-zero unless the seeded hot page tops the heavy-hitter sketch.
# Always a release build, whatever the CI profile.
double_run release megammap-bench mm_scope

echo "==> lock-graph cross-check (observed lock edges ⊆ static graph)"
# The static analyzer claims to over-approximate runtime lock nesting;
# this makes the claim falsifiable. mm_scope re-runs with edge observation
# on (stdout is unchanged — verified against the double-run capture above)
# and mm-lint asserts every dynamically observed edge is in the static
# graph. A miss means a summary-builder soundness bug (severed call chain).
target/release/mm_scope --emit-lock-edges /tmp/mm_scope.ci.edges.json > /tmp/mm_scope.ci.c.txt 2> /dev/null
diff -q /tmp/mm_scope.ci.a.txt /tmp/mm_scope.ci.c.txt
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . crosscheck /tmp/mm_scope.ci.edges.json

echo "==> mm_ann search sweep (deterministic double run + recall floors)"
# Exit 0 means the recall floors held (flat recall@10 >= 0.90 at the
# default config, PQ recall@10 >= 0.85 at the smallest pcache cap) and the
# smallest cap showed the flat-thrashes-while-PQ-sustains contrast; stdout
# must be byte-identical across the two runs (virtual time + conserved
# counters only).
double_run "$PROF" megammap-ann mm_ann

echo "==> cargo bench --no-run (benches must compile)"
cargo bench --workspace --no-run

echo "==> bench gate (mm_bench --compare against the committed baseline)"
# Wall-clock floors are only comparable across release builds, so this
# stage always builds mm_bench in release regardless of the CI profile.
# The compare gates: fault path +10%, pcache hit +15%, fault p99 +20%,
# queue-delay p99 +20%, ann PQ search p99 +20%, ann PQ bytes-faulted per
# query +20%, telemetry overhead <= 2% absolute (re-measured with the
# contention profiler compiled in and enabled), weak-scaling efficiency
# >= 0.5 at the largest scale_path point, and the ann_path recall floors
# (flat >= 0.90, PQ >= 0.85).
BASELINE=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)
if [[ -z "$BASELINE" ]]; then
    echo "no committed BENCH_<date>.json baseline; skipping bench gate" >&2
else
    cargo build -q --release -p megammap-bench --bin mm_bench
    MM_BENCH_OUT=/tmp/mm_bench.ci.json target/release/mm_bench > /dev/null
    target/release/mm_bench --compare "$BASELINE" /tmp/mm_bench.ci.json
fi

echo "CI gate passed."
