#!/usr/bin/env bash
# Run the substrate microbenchmarks and record the perf trajectory.
#
# Builds (if needed) and runs bench_micro twice — serial (JACEPP_THREADS=1)
# and parallel (JACEPP_THREADS=$THREADS, default 4) — and merges both
# google-benchmark JSON documents into $OUT so speedups are recorded
# side by side. Then runs bench_checkpoint once and writes $CKPT_OUT with the
# full-vs-delta frame sizes and timings (the incremental-checkpoint payoff).
#
# Also runs bench_comm (the staleness-aware comm path ablation, $COMM_OUT),
# bench_hotpath (the fused/early-send/pool iteration hot-path ablation,
# $HOTPATH_OUT) and bench_scale (the daemon-count x shard-count sweep of the
# sharded scheduler, $SCALE_OUT). Every BENCH_*.json is stamped with a `meta`
# object recording
# the git SHA, the machine's hardware thread count, the JACEPP_THREADS
# setting, the CPU's vector ISA flags and the SIMD dispatch level the binary
# selects, so recorded numbers stay attributable to a revision and a machine.
# After writing, scripts/bench_guard.sh compares each file against the
# committed baseline and prints warn-only regression notices.
#
# Usage:
#   bench/run_bench.sh      # writes BENCH_micro/checkpoint/comm/hotpath/scale.json
#   THREADS=8 OUT=/tmp/b.json bench/run_bench.sh
#   BENCH_FILTER='BM_SpMV|BM_ConjugateGradient' bench/run_bench.sh
#   COMM_ARGS=--smoke HOTPATH_ARGS=--smoke SCALE_ARGS=--smoke bench/run_bench.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
OUT="${OUT:-${REPO_ROOT}/BENCH_micro.json}"
CKPT_OUT="${CKPT_OUT:-${REPO_ROOT}/BENCH_checkpoint.json}"
COMM_OUT="${COMM_OUT:-${REPO_ROOT}/BENCH_comm.json}"
HOTPATH_OUT="${HOTPATH_OUT:-${REPO_ROOT}/BENCH_hotpath.json}"
SCALE_OUT="${SCALE_OUT:-${REPO_ROOT}/BENCH_scale.json}"
THREADS="${THREADS:-4}"
BENCH_FILTER="${BENCH_FILTER:-.}"
COMM_ARGS="${COMM_ARGS:-}"
HOTPATH_ARGS="${HOTPATH_ARGS:-}"
SCALE_ARGS="${SCALE_ARGS:-}"

GIT_SHA="$(git -C "${REPO_ROOT}" rev-parse HEAD 2>/dev/null || echo unknown)"
HW_THREADS="$(nproc 2>/dev/null || echo 0)"

# ISA provenance: which vector extensions the machine advertises, and which
# level the runtime dispatcher actually selects (bench_hotpath --simd-level
# prints the CPUID-detected tier). SIMD rows are meaningless without these.
cpu_isa() {
  local flags isa=""
  flags="$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true)"
  for f in sse2 avx avx2 avx512f fma; do
    if grep -qw "$f" <<< "${flags}"; then isa="${isa:+${isa},}${f}"; fi
  done
  echo "${isa:-unknown}"
}
CPU_ISA="$(cpu_isa)"
SIMD_LEVEL="unknown"

# stamp FILE JACEPP_THREADS_VALUE — fold provenance into the JSON in place.
stamp() {
  local file="$1" jacepp_threads="$2" tmp
  tmp="$(mktemp)"
  jq --arg sha "${GIT_SHA}" \
     --argjson hw "${HW_THREADS}" \
     --arg jt "${jacepp_threads}" \
     --arg isa "${CPU_ISA}" \
     --arg simd "${SIMD_LEVEL}" \
     '. + {meta: {git_sha: $sha, hardware_threads: $hw, jacepp_threads: $jt,
                  cpu_isa: $isa, simd_dispatch: $simd}}' \
     "${file}" > "${tmp}" && mv "${tmp}" "${file}"
}

if [[ ! -x "${BUILD_DIR}/bench/bench_micro" || ! -x "${BUILD_DIR}/bench/bench_checkpoint" \
      || ! -x "${BUILD_DIR}/bench/bench_comm" || ! -x "${BUILD_DIR}/bench/bench_hotpath" \
      || ! -x "${BUILD_DIR}/bench/bench_scale" ]]; then
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
  cmake --build "${BUILD_DIR}" --target bench_micro bench_checkpoint bench_comm bench_hotpath bench_scale -j
fi

SIMD_LEVEL="$("${BUILD_DIR}/bench/bench_hotpath" --simd-level 2>/dev/null || echo unknown)"

serial_json="$(mktemp)"
parallel_json="$(mktemp)"
trap 'rm -f "${serial_json}" "${parallel_json}"' EXIT

echo "== bench_micro serial (JACEPP_THREADS=1) =="
JACEPP_THREADS=1 "${BUILD_DIR}/bench/bench_micro" \
  --benchmark_filter="${BENCH_FILTER}" \
  --benchmark_format=json > "${serial_json}"

echo "== bench_micro parallel (JACEPP_THREADS=${THREADS}) =="
JACEPP_THREADS="${THREADS}" "${BUILD_DIR}/bench/bench_micro" \
  --benchmark_filter="${BENCH_FILTER}" \
  --benchmark_format=json > "${parallel_json}"

jq -n \
  --slurpfile serial "${serial_json}" \
  --slurpfile parallel "${parallel_json}" \
  --argjson threads "${THREADS}" \
  '{threads: $threads, serial: $serial[0], parallel: $parallel[0]}' > "${OUT}"

stamp "${OUT}" "1,${THREADS}"
# Label the ablation pairs so BENCH_micro.json is readable
# without the source: each entry is (optimized row, baseline row).
tmp="$(mktemp)"
jq '.meta.ablation_pairs = {
      lookahead: ["BM_LookaheadCached", "BM_LookaheadRescan"],
      outbox_merge: ["BM_OutboxKWayMerge", "BM_ShardOutboxMerge"],
      heartbeat_period: ["BM_HeartbeatPeriodIndex", "BM_HeartbeatPeriodLinear"]
    }' "${OUT}" > "${tmp}" && mv "${tmp}" "${OUT}"
echo "wrote ${OUT}"
jq -r '
  ((.serial.benchmarks // []) | map({(.name): .real_time}) | add // {}) as $s |
  ((.parallel.benchmarks // []) | map({(.name): .real_time}) | add // {}) as $p |
  $s | keys[] | select($p[.] != null) |
  "\(.): serial \($s[.] | floor)ns  parallel \($p[.] | floor)ns  speedup \(($s[.] / $p[.] * 100 | floor) / 100)x"
' "${OUT}"

echo "== bench_checkpoint (full vs delta frames) =="
"${BUILD_DIR}/bench/bench_checkpoint" \
  --benchmark_format=json > "${CKPT_OUT}"

stamp "${CKPT_OUT}" "${JACEPP_THREADS:-default}"
echo "wrote ${CKPT_OUT}"
jq -r '
  .benchmarks[] |
  if (.frame_bytes != null and .full_bytes != null) then
    "\(.name): \(.real_time | floor)ns  frame \(.frame_bytes | floor)B  full \(.full_bytes | floor)B  ratio \((.frame_bytes / .full_bytes * 1000 | floor) / 1000)"
  else
    "\(.name): \(.real_time | floor)ns" + (if .frame_bytes != null then "  frame \(.frame_bytes | floor)B" else "" end)
  end
' "${CKPT_OUT}"

echo "== bench_comm (coalescing off vs on${COMM_ARGS:+, ${COMM_ARGS}}) =="
# The deployment sim is single-threaded; record the effective setting anyway.
"${BUILD_DIR}/bench/bench_comm" ${COMM_ARGS} > "${COMM_OUT}"

stamp "${COMM_OUT}" "${JACEPP_THREADS:-default}"
echo "wrote ${COMM_OUT}"
jq -r '
  "slow-consumer : data msgs -\(.slow_consumer.data_message_reduction * 100 | floor)%  bytes -\(.slow_consumer.wire_byte_reduction * 100 | floor)%",
  "flaky-consumer: data msgs -\(.flaky_consumer.data_message_reduction * 100 | floor)%  bytes -\(.flaky_consumer.wire_byte_reduction * 100 | floor)%",
  "parity        : replay_bitwise \(.parity.replay_bitwise)  ok \(.parity.ok)"
' "${COMM_OUT}"

echo "== bench_hotpath (fused / early-send / pool ablation${HOTPATH_ARGS:+, ${HOTPATH_ARGS}}) =="
"${BUILD_DIR}/bench/bench_hotpath" ${HOTPATH_ARGS} > "${HOTPATH_OUT}"

stamp "${HOTPATH_OUT}" "${JACEPP_THREADS:-default}"
echo "wrote ${HOTPATH_OUT}"
jq -r '
  "fused     : residual \(.fused.kernels.spmv_residual_norm2.speedup)x  dot \(.fused.kernels.spmv_dot.speedup)x  axpy \(.fused.kernels.axpy_norm2.speedup)x  cg \(.fused.cg.speedup)x  bit-identical \(.fused.ok)",
  "early-send: exec \(.early_send.runs.off.execution_time_s)s -> \(.early_send.runs.on.execution_time_s)s  replay_bitwise \(.early_send.replay_bitwise)  ok \(.early_send.ok)",
  "pool      : encode \(.pool.encode.speedup)x  deployment reuse_rate \(.pool.deployment.reuse_rate)"
' "${HOTPATH_OUT}"

echo "== bench_scale (daemons x shards sweep${SCALE_ARGS:+, ${SCALE_ARGS}})  =="
# Exits non-zero if any shard count diverges from the shards=1 counters — the
# sweep doubles as a determinism gate (set -e stops the script on that).
"${BUILD_DIR}/bench/bench_scale" ${SCALE_ARGS} > "${SCALE_OUT}"

stamp "${SCALE_OUT}" "${JACEPP_THREADS:-default}"
echo "wrote ${SCALE_OUT}"
jq -r '
  (.cases[] |
    "daemons \(.daemons)  shards \(.shards): \(.events_per_sec | floor) ev/s  wall \((.wall_s * 1000 | floor) / 1000)s  cross \((.cross_shard_fraction * 100 | floor))%"),
  "floor: sharded/single at \(.floor.daemons) daemons = \(.floor.ratio)x (best: \(.floor.best_shards) shards)"
' "${SCALE_OUT}"

echo "== bench-guard (warn-only, vs committed baseline) =="
"${REPO_ROOT}/scripts/bench_guard.sh" "${OUT}" "${CKPT_OUT}" "${COMM_OUT}" "${HOTPATH_OUT}" "${SCALE_OUT}"
