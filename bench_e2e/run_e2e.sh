#!/usr/bin/env bash
# Builds bench_e2e from source, runs its self-test, then the benchmark.
#
#   bench_e2e/run_e2e.sh --workload W [--seed S] [--seconds N] [--trace 0|1]
#       one run of one workload; the last line of stdout is its JSON result
#   bench_e2e/run_e2e.sh [--seed S] [--seconds N] [--trace 0|1]
#                        [--runs R] [--out DIR]
#       every workload (R runs each, results under DIR/run<i>/), each run in
#       a fresh process so peak RSS is per workload
#   bench_e2e/run_e2e.sh --smoke
#       all four workloads at 1/20 size, traced, every check on
#
# Run it from anywhere; it works at the repository root. Builds, temporary
# index files and results all stay under .bench_build/ there. The exit
# status is non-zero on a build or self-test failure and on any wrong
# answer.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run_e2e.sh: the repository sources are missing; nothing to build" >&2
  exit 2
fi

build=.bench_build
workload=""
runs=1
out="$build/bench_out"
smoke=0
pass=()
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --seed | --seconds | --trace) pass+=("$1" "$2"); shift 2 ;;
    *) echo "run_e2e.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
log="$build/build.log"
jobs="$(nproc 2>/dev/null || echo 2)"
((jobs > 4)) && jobs=4
if ! { cmake -S bench_e2e -B "$build/cmake" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build/cmake" --target bench_e2e bench_e2e_selftest \
         -j "$jobs"; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run_e2e.sh: build failed (full log in $log)" >&2
  exit 3
fi
if ! "$build/cmake/bench_e2e_selftest"; then
  echo "run_e2e.sh: self-test failed" >&2
  exit 4
fi

bin="$build/cmake/bench_e2e"
sha=unknown
if [[ -e .git ]]; then
  sha="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi
common=(--work "$build/work" --git-sha "$sha")

if ((smoke)); then
  exec "$bin" --smoke --out "$out" "${common[@]}"
fi
if [[ -n "$workload" && "$runs" == 1 ]]; then
  exec "$bin" --workload "$workload" "${pass[@]}" --out "$out" "${common[@]}"
fi
status=0
for ((r = 1; r <= runs; r++)); do
  dir="$out"
  ((runs > 1)) && dir="$out/run$r"
  for w in ${workload:-warm-search topk-sharded wire-openloop live-lake}; do
    "$bin" --workload "$w" "${pass[@]}" --out "$dir" "${common[@]}" || status=1
  done
done
exit "$status"
