#!/usr/bin/env bash
# Runs the perf-trajectory benchmarks and emits BENCH_*.json at the repo
# root so successive PRs can track the numbers:
#   BENCH_dp_engine.json    per-agent DP engine vs the naive oracle
#   BENCH_engines.json      engine ablation C/L/M/S (time, rounds, messages,
#                           bytes, max message size -- byte columns are
#                           measured off the real wire codec since PR 10,
#                           not modeled) plus the E8d cross-process rows
#                           (engine M forked onto 2 ranks over shm rings,
#                           present in --smoke too)
#   BENCH_dynamics.json     incremental (dirty-ball) vs scratch engine-C
#                           re-solve after single-coefficient edits (E9),
#                           with per-phase timings, the distributed replay
#                           rows (E9b) and LocalResolver membership churn
#                           against scratch solve_local (E9c), all bitwise
#                           self-checked
#   BENCH_faults.json       recovery overhead under seeded fault injection
#                           (drop sweep, chaos + crash, permanent crash; E11)
#   BENCH_serve.json        multi-tenant SolverService churn: sustained
#                           edits/sec and p50/p99 submit+drain latency per
#                           tenant count, plus chaos rows (malformed traffic
#                           + deadline pressure) priced against clean serving
#
# Usage: bench/run_bench.sh [build-dir] [--smoke]
#   --smoke runs bench_dynamics, bench_faults and bench_serve on CI-sized
#   instances (seconds instead of minutes); bench_dp_engine and
#   bench_engines have single sizes that already fit CI, so they run
#   identically in both modes.
#
# Every bench self-checks (LOCMM_CHECK aborts on engine disagreement), and
# pipefail + explicit exit-status propagation below make sure an abort fails
# this script instead of leaving a truncated JSON behind.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build
BUILD_DIR_SET=""
SMOKE=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE="--smoke" ;;
    -*)
      echo "usage: bench/run_bench.sh [build-dir] [--smoke]" >&2
      echo "unknown option: $arg" >&2
      exit 2
      ;;
    *)
      if [ -n "$BUILD_DIR_SET" ]; then
        echo "usage: bench/run_bench.sh [build-dir] [--smoke]" >&2
        echo "unexpected second build dir: $arg (already have $BUILD_DIR)" >&2
        exit 2
      fi
      BUILD_DIR="$arg"
      BUILD_DIR_SET=1
      ;;
  esac
done

if [ ! -x "$BUILD_DIR/bench_dp_engine" ] || [ ! -x "$BUILD_DIR/bench_engines" ] \
    || [ ! -x "$BUILD_DIR/bench_dynamics" ] || [ ! -x "$BUILD_DIR/bench_faults" ] \
    || [ ! -x "$BUILD_DIR/bench_serve" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target bench_dp_engine bench_engines \
    bench_dynamics bench_faults bench_serve
fi

"$BUILD_DIR/bench_dp_engine" BENCH_dp_engine.json
"$BUILD_DIR/bench_dynamics" BENCH_dynamics.json ${SMOKE:+"$SMOKE"}
"$BUILD_DIR/bench_faults" BENCH_faults.json ${SMOKE:+"$SMOKE"}
"$BUILD_DIR/bench_serve" BENCH_serve.json ${SMOKE:+"$SMOKE"}

# bench_engines prints self-checking tables (it aborts if the engines ever
# disagree); wrap its output as JSON lines so the artifact upload picks up
# the engine-ablation trajectory alongside the structured benches.
ENGINES_TMP=$(mktemp)
trap 'rm -f "$ENGINES_TMP"' EXIT
# No pipe here: a pipeline would take tee's exit status and let a
# self-check abort slip past `set -e` with a truncated JSON written.
"$BUILD_DIR/bench_engines" > "$ENGINES_TMP"
cat "$ENGINES_TMP"
{
  printf '{\n  "bench": "engines",\n  "output": [\n'
  sed -e 's/\\/\\\\/g; s/"/\\"/g; s/^/    "/; s/$/",/' "$ENGINES_TMP" \
    | sed '$ s/,$//'
  printf '  ]\n}\n'
} > BENCH_engines.json
rm -f "$ENGINES_TMP"
echo "wrote BENCH_engines.json"
