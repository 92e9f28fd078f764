#!/usr/bin/env bash
# Tier-1 verification, exactly as CI runs it.
#
# Pass 1 (the tier-1 gate): Release, PEXESO_NATIVE_ARCH off — portable
# codegen plus the runtime-dispatched SIMD kernels, i.e. what a shipped
# binary runs. Builds everything (library, CLI, examples, benches, tests),
# runs the whole ctest suite, then regenerates the BENCH_*.json baselines
# and gates their work counts against the committed copies.
#
# Pass 2: Debug with Address+UB sanitizers, sanitizer-friendly flags
# (frame pointers, no march tuning). The kernels must be correct under
# both, so the kernel/vector suites rerun here; set PEXESO_CI_SANITIZE=0
# to skip the pass (e.g. on toolchains without libasan).
#
# Pass 3: Debug with ThreadSanitizer over the concurrency-heavy suites —
# the staged verification pipeline (column shards on TaskGroups), the
# batch runner (batch-major x intra-query composition) and the serving
# layer. Set PEXESO_CI_TSAN=0 to skip (e.g. toolchains without libtsan).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}" \
  -DPEXESO_NATIVE_ARCH=OFF \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Bench baselines and the counter gate. Each bench rewrites its
# BENCH_<name>.json in the repo root through the one writer in
# bench/bench_common.h and exits non-zero on a parity failure. The gate then
# compares every row's "counts" with the committed copy set aside first; a
# changed count fails unless the same change regenerates the JSON and
# explains it in CHANGES.md (tools/bench_gate.py -h). The counts are
# measured at the default scale, so PEXESO_BENCH_SCALE/QUERIES are unset.
# bench_micro needs Google Benchmark; without it BENCH_kernels.json (rates
# only, nothing gated) keeps its committed copy.
BENCH_BASELINE="$(mktemp -d)"
cp BENCH_*.json "$BENCH_BASELINE/"
for bench in bench_micro bench_pipeline bench_topk bench_snapshot bench_shard \
    bench_fig6 bench_fig9; do
  bench_args=()
  if [[ "$bench" == bench_micro ]]; then
    [[ -x "$BUILD_DIR/bench/bench_micro" ]] || continue
    bench_args=(--benchmark_filter='^$')  # the JSON only, no timing loops
  fi
  env -u PEXESO_BENCH_SCALE -u PEXESO_BENCH_QUERIES \
    "$BUILD_DIR/bench/$bench" "${bench_args[@]}"
done
python3 tools/bench_gate.py "$BENCH_BASELINE" .
# The gate must bite: a baseline that is the fresh BENCH_topk.json with one
# count bumped fails it. Copying the fresh file keeps the headers equal, so
# the check holds on every simd_level.
python3 - BENCH_topk.json "$BENCH_BASELINE/BENCH_topk.json" <<'EOF_BUMP'
import json, sys
doc = json.load(open(sys.argv[1]))
counts = doc["rows"][0]["counts"]
counts[next(iter(counts))] += 1
json.dump(doc, open(sys.argv[2], "w"))
EOF_BUMP
if python3 tools/bench_gate.py "$BENCH_BASELINE" . \
    > "$BENCH_BASELINE/bite.txt"; then
  echo "bench gate: a bumped count in BENCH_topk.json went unnoticed" >&2
  exit 1
fi
grep "FAIL BENCH_topk.json" "$BENCH_BASELINE/bite.txt"
rm -rf "$BENCH_BASELINE"

# Loopback smoke: a real pexeso_server process on an ephemeral port, a real
# pexeso_cli client, and byte-parity between the socket round-trip and the
# in-process search of the same partitioned index. This is the one stage
# that exercises the shipped binaries end-to-end rather than the library.
SMOKE_DIR="$(mktemp -d)"
smoke_cleanup() {
  [[ -n "${SMOKE_SERVER_PID:-}" ]] && kill "$SMOKE_SERVER_PID" 2>/dev/null
  [[ -n "${SMOKE_SHARD0_PID:-}" ]] && kill "$SMOKE_SHARD0_PID" 2>/dev/null
  [[ -n "${SMOKE_SHARD1_PID:-}" ]] && kill "$SMOKE_SHARD1_PID" 2>/dev/null
  [[ -n "${SMOKE_COORD_PID:-}" ]] && kill "$SMOKE_COORD_PID" 2>/dev/null
  rm -rf "$SMOKE_DIR"
}
trap smoke_cleanup EXIT
mkdir -p "$SMOKE_DIR/tables"
cat > "$SMOKE_DIR/tables/countries.csv" <<'EOF'
country,code
United States,US
Germany,DE
France,FR
Japan,JP
Brazil,BR
Canada,CA
Australia,AU
Spain,ES
Italy,IT
Norway,NO
EOF
cat > "$SMOKE_DIR/tables/nations.csv" <<'EOF'
nation,capital
United States,Washington
Germany,Berlin
France,Paris
Japan,Tokyo
Brazil,Brasilia
Mexico,Mexico City
Chile,Santiago
Peru,Lima
EOF
cat > "$SMOKE_DIR/tables/cities.csv" <<'EOF'
city,pop
Berlin,3
Paris,2
Tokyo,13
Lima,9
Quito,1
Oslo,0
Madrid,3
Rome,2
EOF
cat > "$SMOKE_DIR/query.csv" <<'EOF'
place
United States
Germany
France
Japan
Brazil
Norway
EOF
"$BUILD_DIR/pexeso_cli" index --input "$SMOKE_DIR/tables" \
  --output "$SMOKE_DIR/parts" --partitions 2
"$BUILD_DIR/pexeso_server" --index "$SMOKE_DIR/parts" --port 0 \
  > "$SMOKE_DIR/server.log" 2>&1 &
SMOKE_SERVER_PID=$!
SMOKE_PORT=""
for _ in $(seq 1 100); do
  SMOKE_PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
    "$SMOKE_DIR/server.log")"
  [[ -n "$SMOKE_PORT" ]] && break
  sleep 0.1
done
if [[ -z "$SMOKE_PORT" ]]; then
  echo "loopback smoke: server never came up" >&2
  cat "$SMOKE_DIR/server.log" >&2
  exit 1
fi
"$BUILD_DIR/pexeso_cli" search --index "$SMOKE_DIR/parts" \
  --query "$SMOKE_DIR/query.csv" | grep "global column" \
  > "$SMOKE_DIR/local.txt"
"$BUILD_DIR/pexeso_cli" query --connect "127.0.0.1:$SMOKE_PORT" \
  --query "$SMOKE_DIR/query.csv" | grep "global column" \
  > "$SMOKE_DIR/remote.txt"
if ! diff -u "$SMOKE_DIR/local.txt" "$SMOKE_DIR/remote.txt"; then
  echo "loopback smoke: socket results differ from in-process search" >&2
  exit 1
fi
if [[ ! -s "$SMOKE_DIR/local.txt" ]]; then
  echo "loopback smoke: no results — a vacuous parity check" >&2
  exit 1
fi
"$BUILD_DIR/pexeso_cli" stats --connect "127.0.0.1:$SMOKE_PORT" \
  > "$SMOKE_DIR/stats.txt"
for field in queries_completed admission_inflight search_distance_computations \
    search_quant_tile_skips cache_hits cache_misses cache_bytes_mapped; do
  if ! grep -q "$field" "$SMOKE_DIR/stats.txt"; then
    echo "loopback smoke: STATS lacks $field" >&2
    exit 1
  fi
done
kill "$SMOKE_SERVER_PID" && wait "$SMOKE_SERVER_PID" 2>/dev/null || true
SMOKE_SERVER_PID=""
echo "loopback smoke: OK ($(wc -l < "$SMOKE_DIR/local.txt") result lines byte-identical over the wire)"

# Shard smoke: the same partitioned index split across two REAL shard
# executor processes, a coordinator process scatter-gathering over them,
# and byte-parity between the sharded round-trip and the in-process search
# above (local.txt). This exercises the shipped binaries' whole scale-out
# story: shard metadata handshake, scatter, floor frames, gather, merge.
smoke_scrape_port() {
  local log="$1" port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$log")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "shard smoke: server behind $log never came up" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$port"
}
"$BUILD_DIR/pexeso_server" --index "$SMOKE_DIR/parts" --shards 2 \
  --shard-of 0 --port 0 > "$SMOKE_DIR/shard0.log" 2>&1 &
SMOKE_SHARD0_PID=$!
"$BUILD_DIR/pexeso_server" --index "$SMOKE_DIR/parts" --shards 2 \
  --shard-of 1 --port 0 > "$SMOKE_DIR/shard1.log" 2>&1 &
SMOKE_SHARD1_PID=$!
SHARD0_PORT="$(smoke_scrape_port "$SMOKE_DIR/shard0.log")"
SHARD1_PORT="$(smoke_scrape_port "$SMOKE_DIR/shard1.log")"
"$BUILD_DIR/pexeso_server" \
  --coordinator "127.0.0.1:$SHARD0_PORT,127.0.0.1:$SHARD1_PORT" --port 0 \
  > "$SMOKE_DIR/coord.log" 2>&1 &
SMOKE_COORD_PID=$!
COORD_PORT="$(smoke_scrape_port "$SMOKE_DIR/coord.log")"
"$BUILD_DIR/pexeso_cli" query --connect "127.0.0.1:$COORD_PORT" \
  --query "$SMOKE_DIR/query.csv" | grep "global column" \
  > "$SMOKE_DIR/sharded.txt"
if ! diff -u "$SMOKE_DIR/local.txt" "$SMOKE_DIR/sharded.txt"; then
  echo "shard smoke: coordinator results differ from in-process search" >&2
  exit 1
fi
"$BUILD_DIR/pexeso_cli" stats --connect "127.0.0.1:$COORD_PORT" \
  > "$SMOKE_DIR/coord_stats.txt"
for field in search_shard_scatters search_floor_updates_sent \
    search_hedged_requests search_failovers search_shards_degraded \
    search_shard_bytes_moved; do
  if ! grep -q "$field" "$SMOKE_DIR/coord_stats.txt"; then
    echo "shard smoke: coordinator STATS lacks $field" >&2
    exit 1
  fi
done
# An engine counter only the shards produce reaches the coordinator's totals
# through the tagged stats block of each shard's DONE frame.
if ! grep -Eq '^search_candidate_pairs [1-9]' "$SMOKE_DIR/coord_stats.txt"; then
  echo "shard smoke: coordinator STATS lacks a nonzero search_candidate_pairs" >&2
  exit 1
fi
for pid in "$SMOKE_COORD_PID" "$SMOKE_SHARD0_PID" "$SMOKE_SHARD1_PID"; do
  kill "$pid" && wait "$pid" 2>/dev/null || true
done
SMOKE_COORD_PID="" SMOKE_SHARD0_PID="" SMOKE_SHARD1_PID=""
echo "shard smoke: OK ($(wc -l < "$SMOKE_DIR/sharded.txt") result lines byte-identical through the coordinator)"

# End-to-end smoke: all four bench_e2e workloads at 1/20 size over a real
# loopback server, every answer checked against a reference — the mapping
# queries of wire-openloop included. Builds its own Release tree under
# .bench_build/ and exits non-zero on any wrong answer.
bash bench_e2e/run_e2e.sh --smoke

if [[ "${PEXESO_CI_SANITIZE:-1}" == "1" ]]; then
  SAN_DIR="${SAN_BUILD_DIR:-build-asan}"
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake -B "$SAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPEXESO_NATIVE_ARCH=OFF \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
  # serve_test and the TaskGroup half of common_test join the kernel/vector
  # suites here: cache eviction and concurrent streaming sessions are
  # exactly where object-lifetime and data-race bugs hide. topk_test joins
  # for the query-API controls (shared TopKBound, cancellation paths), and
  # lake_test for snapshot/merge lifetimes (shared_ptr-published snapshots,
  # generation-keyed cache entries outliving merges). fault_test joins
  # with failpoints compiled in: the corrupted-bytes corpus and the
  # injected-fault serving paths are where an over-read of mangled input
  # would hide, and ASan is what turns "read past a truncated buffer" from
  # silent garbage into a hard failure. net_test joins for the wire
  # protocol: the bit-flip/truncation corpus and the malformed-frame
  # server paths are exactly where a length-prefix over-read would live.
  # snapshot_test joins for the mmap load path: section-table validation
  # over the corruption corpus is where an out-of-bounds view binding
  # would hide, and the quant tier's int8 kernels run under UBSan here.
  # shard_test joins for the coordinator: hedge losers are cancelled and
  # joined while the winner's outcome is being moved out — exactly where a
  # use-after-scope on the attempt frame would live. part_conformance_test
  # joins for the truncated-snapshot matrix driven through every
  # partitioned entry point, wire and shard paths included.
  # core_search_test joins for stage 1's per-column arrays: exactness
  # against the naive searcher under every lemma ablation (match cells on
  # and off), appended and deleted columns and save/load are every input
  # shape the candidate scatter's column stamps and cursors index.
  cmake --build "$SAN_DIR" -j "$JOBS" \
    --target kernel_test vec_test serve_test common_test pipeline_test \
    topk_test lake_test fault_test net_test snapshot_test shard_test \
    part_conformance_test core_search_test
  ctest --test-dir "$SAN_DIR" --output-on-failure --timeout 600 \
    -R '^(kernel_test|vec_test|serve_test|common_test|pipeline_test|topk_test|lake_test|fault_test|net_test|snapshot_test|shard_test|part_conformance_test|core_search_test)$'
fi

if [[ "${PEXESO_CI_TSAN:-1}" == "1" ]]; then
  TSAN_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPEXESO_NATIVE_ARCH=OFF \
    -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
  # The suites where a pipeline/runner/session data race would live: shard
  # fan-out over shared match_map slices, TaskGroup completion tracking,
  # intra-pool sharing across concurrent searches, streaming sessions, and
  # the kTopK shared bound + cancellation tokens (topk_test), and the live
  # lake's merge-vs-search races (lake_test: background merges republish
  # snapshots while a searcher thread reads them). The explicit --timeout
  # turns a TSan-slowed deadlock into a fast failure. net_test joins for
  # the server's cross-thread choreography: loop-thread connection state
  # vs pool-thread result callbacks vs metrics reads from client threads.
  # snapshot_test joins for mapped-snapshot sharing: one mmapped index read
  # by concurrent verification shards, and the cache's mapped-bytes gauges
  # updated across shard locks. shard_test joins for the scatter-gather
  # choreography: the CAS-max floor cell raised from every shard at once,
  # racing replica attempts committing to one HedgeState, and the gather
  # loop's cancellation fan-out. part_conformance_test joins for the
  # PartRunner's shared per-query state: part tasks seeding and raising the
  # kTopK bound concurrently and the stop flag read across pool threads.
  cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target pipeline_test batch_runner_test serve_test common_test \
    topk_test lake_test net_test snapshot_test shard_test \
    part_conformance_test
  ctest --test-dir "$TSAN_DIR" --output-on-failure --timeout 600 \
    -R '^(pipeline_test|batch_runner_test|serve_test|common_test|topk_test|lake_test|net_test|snapshot_test|shard_test|part_conformance_test)$'
fi
