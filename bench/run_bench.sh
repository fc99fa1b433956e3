#!/usr/bin/env bash
# Run the substrate microbenchmarks and record the perf trajectory.
#
# Builds (if needed) and runs bench_micro once and writes its
# google-benchmark JSON to $OUT. Then runs bench_checkpoint once and writes
# $CKPT_OUT with the checkpoint path's timings (CRC by the picked kernel and
# by slicing-by-8, frame encode and decode, materialize).
#
# Also runs bench_comm (the staleness-aware comm path ablation, $COMM_OUT),
# bench_hotpath (fused kernels and the fused CG against their unfused CSR
# sequences, $HOTPATH_OUT) and bench_scale (the daemon-count x shard-count
# sweep of the sharded scheduler, $SCALE_OUT). Every BENCH_*.json is stamped
# with a `meta` object recording the git SHA, the machine's hardware thread
# count and the CPU's vector ISA flags, so recorded numbers stay attributable
# to a revision and a machine. After writing, scripts/bench_guard.sh compares
# each file against the committed baseline and prints warn-only regression
# notices.
#
# Usage:
#   bench/run_bench.sh      # writes BENCH_micro/checkpoint/comm/hotpath/scale.json
#   OUT=/tmp/b.json bench/run_bench.sh
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
BENCH_FILTER="${BENCH_FILTER:-.}"
COMM_ARGS="${COMM_ARGS:-}"
HOTPATH_ARGS="${HOTPATH_ARGS:-}"
SCALE_ARGS="${SCALE_ARGS:-}"

GIT_SHA="$(git -C "${REPO_ROOT}" rev-parse HEAD 2>/dev/null || echo unknown)"
HW_THREADS="$(nproc 2>/dev/null || echo 0)"

# ISA provenance: which vector extensions the machine advertises.
cpu_isa() {
  local flags isa=""
  flags="$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true)"
  for f in sse2 avx avx2 avx512f fma; do
    if grep -qw "$f" <<< "${flags}"; then isa="${isa:+${isa},}${f}"; fi
  done
  echo "${isa:-unknown}"
}
CPU_ISA="$(cpu_isa)"

# stamp FILE — fold provenance into the JSON in place.
stamp() {
  local file="$1" tmp
  tmp="$(mktemp)"
  jq --arg sha "${GIT_SHA}" \
     --argjson hw "${HW_THREADS}" \
     --arg isa "${CPU_ISA}" \
     '. + {meta: {git_sha: $sha, hardware_threads: $hw, cpu_isa: $isa}}' \
     "${file}" > "${tmp}" && mv "${tmp}" "${file}"
}

if [[ ! -x "${BUILD_DIR}/bench/bench_micro" || ! -x "${BUILD_DIR}/bench/bench_checkpoint" \
      || ! -x "${BUILD_DIR}/bench/bench_comm" || ! -x "${BUILD_DIR}/bench/bench_hotpath" \
      || ! -x "${BUILD_DIR}/bench/bench_scale" ]]; then
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
  cmake --build "${BUILD_DIR}" --target bench_micro bench_checkpoint bench_comm bench_hotpath bench_scale -j
fi

echo "== bench_micro =="
"${BUILD_DIR}/bench/bench_micro" \
  --benchmark_filter="${BENCH_FILTER}" \
  --benchmark_format=json > "${OUT}"

stamp "${OUT}"
# Label the ablation pairs so BENCH_micro.json is readable
# without the source: each entry is (optimized row, baseline row).
tmp="$(mktemp)"
jq '.meta.ablation_pairs = {
      outbox_merge: ["BM_OutboxKWayMerge", "BM_ShardOutboxMerge"],
      heartbeat_period: ["BM_HeartbeatPeriodIndex", "BM_HeartbeatPeriodLinear"]
    }' "${OUT}" > "${tmp}" && mv "${tmp}" "${OUT}"
echo "wrote ${OUT}"
jq -r '.benchmarks[] | "\(.name): \(.real_time | floor)\(.time_unit)"' "${OUT}"

echo "== bench_checkpoint (CRC, frame encode/decode, materialize) =="
"${BUILD_DIR}/bench/bench_checkpoint" \
  --benchmark_format=json > "${CKPT_OUT}"

stamp "${CKPT_OUT}"
# BM_Crc32 runs the kernel picked at start-up (.context.crc32_kernel),
# BM_Crc32Portable slicing-by-8 on the same bytes.
tmp="$(mktemp)"
jq '.meta.ablation_pairs = {crc32_fold: ["BM_Crc32", "BM_Crc32Portable"]}' \
  "${CKPT_OUT}" > "${tmp}" && mv "${tmp}" "${CKPT_OUT}"
echo "wrote ${CKPT_OUT}"
jq -r '
  .benchmarks[] |
  "\(.name): \(.real_time | floor)ns" + (if .frame_bytes != null then "  frame \(.frame_bytes | floor)B" else "" end)
' "${CKPT_OUT}"

echo "== bench_comm (coalescing off vs on${COMM_ARGS:+, ${COMM_ARGS}}) =="
"${BUILD_DIR}/bench/bench_comm" ${COMM_ARGS} > "${COMM_OUT}"

stamp "${COMM_OUT}"
echo "wrote ${COMM_OUT}"
jq -r '
  "slow-consumer : data msgs -\(.slow_consumer.data_message_reduction * 100 | floor)%  bytes -\(.slow_consumer.wire_byte_reduction * 100 | floor)%",
  "flaky-consumer: data msgs -\(.flaky_consumer.data_message_reduction * 100 | floor)%  bytes -\(.flaky_consumer.wire_byte_reduction * 100 | floor)%",
  "parity        : replay_bitwise \(.parity.replay_bitwise)  ok \(.parity.ok)"
' "${COMM_OUT}"

echo "== bench_hotpath (fused vs unfused kernels${HOTPATH_ARGS:+, ${HOTPATH_ARGS}}) =="
"${BUILD_DIR}/bench/bench_hotpath" ${HOTPATH_ARGS} > "${HOTPATH_OUT}"

stamp "${HOTPATH_OUT}"
echo "wrote ${HOTPATH_OUT}"
jq -r '
  "fused: residual \(.fused.kernels.spmv_residual_norm2.speedup)x  dot \(.fused.kernels.spmv_dot.speedup)x  update \(.fused.kernels.cg_update.speedup)x  cg \(.fused.cg.speedup)x  bit-identical \(.fused.ok)"
' "${HOTPATH_OUT}"

echo "== bench_scale (daemons x shards sweep${SCALE_ARGS:+, ${SCALE_ARGS}})  =="
# Exits non-zero if any shard count diverges from the shards=1 counters — the
# sweep doubles as a determinism gate (set -e stops the script on that).
"${BUILD_DIR}/bench/bench_scale" ${SCALE_ARGS} > "${SCALE_OUT}"

stamp "${SCALE_OUT}"
echo "wrote ${SCALE_OUT}"
jq -r '
  (.cases[] |
    "daemons \(.daemons)  shards \(.shards): \(.events_per_sec | floor) ev/s  wall \((.wall_s * 1000 | floor) / 1000)s  cross \((.cross_shard_fraction * 100 | floor))%"),
  "floor: sharded/single at \(.floor.daemons) daemons = \(.floor.ratio)x (best: \(.floor.best_shards) shards)"
' "${SCALE_OUT}"

echo "== bench-guard (warn-only, vs committed baseline) =="
"${REPO_ROOT}/scripts/bench_guard.sh" "${OUT}" "${CKPT_OUT}" "${COMM_OUT}" "${HOTPATH_OUT}" "${SCALE_OUT}"
