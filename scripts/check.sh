#!/usr/bin/env bash
# One-command gate: tier-1 build + ctest, then the same suite under
# ThreadSanitizer, AddressSanitizer and UndefinedBehaviorSanitizer (separate
# build trees, so the plain build stays incremental).
#
# `native` mirrors CI's native job instead: a Release -DJACEPP_NATIVE=ON
# (-O3 -march=native) build whose kernel, CG and checkpoint-byte goldens must
# hold as in the portable build, then the fused-CG floor.
#
# `digests` builds perfbench's untraced driver in Release (build-digests/)
# and prints, on standard output only, one line per workload and seed
# 201-210: the run's digest and its simulated outputs. Run it in two trees
# and diff the outputs to see whether a change moved any simulated result.
# `digests-check` does the same and fails on any difference from the pinned
# lines in tests/golden/perfbench_digests.txt; a change that means to move
# a simulated output re-pins them with
#   scripts/check.sh digests > tests/golden/perfbench_digests.txt
#
# Usage:
#   scripts/check.sh            # plain + tsan + asan + ubsan
#   scripts/check.sh plain      # just the tier-1 build + ctest
#   scripts/check.sh tsan asan  # just those sanitizer configs
#   scripts/check.sh native     # the native CI job
#   scripts/check.sh digests > digests.txt
#   scripts/check.sh digests-check
#   JOBS=8 scripts/check.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-4}"
CONFIGS=("$@")
if [[ ${#CONFIGS[@]} -eq 0 ]]; then
  CONFIGS=(plain tsan asan ubsan)
fi

run_native() {
  local build_dir="${REPO_ROOT}/build-native"
  echo "== native: configure + build (${build_dir}) =="
  cmake -B "${build_dir}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release \
    -DJACEPP_NATIVE=ON
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target test_linalg test_poisson test_core bench_hotpath
  echo "== native: goldens =="
  "${build_dir}/tests/test_linalg"
  "${build_dir}/tests/test_poisson"
  "${build_dir}/tests/test_core" --gtest_filter='GenericTask.*'
  echo "== native: fused-CG floor =="
  local report
  report="$(mktemp)"
  "${build_dir}/bench/bench_hotpath" --smoke > "${report}"
  BENCH_GUARD_STRICT=1 BENCH_GUARD_SKIP_BASELINE=1 \
    "${REPO_ROOT}/scripts/bench_guard.sh" "${report}"
  rm -f "${report}"
}

run_digests() {
  local build_dir="${REPO_ROOT}/build-digests"
  echo "== digests: configure + build (${build_dir}) ==" >&2
  cmake -B "${build_dir}" -S "${REPO_ROOT}/perfbench" \
    -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "${build_dir}" -j "${JOBS}" --target perfbench >&2
  local workload seed
  for workload in fig7-churn solve-large cp-100k; do
    for seed in $(seq 201 210); do
      "${build_dir}/perfbench" --workload "${workload}" --seed "${seed}" \
          --reps 1 |
        jq -r --arg w "${workload}" --arg s "${seed}" \
          'select(.type == "rep") | "\($w) \($s) digest \(.digest)"
           + " sim_exec_s \(.sim.sim_exec_s) events \(.sim.events)"
           + " outer_iterations \(.sim.outer_iterations)"
           + " restores \(.sim.restores_from_backup)"
           + " restarts \(.sim.restarts_from_zero)"
           + " residual \(.sim.residual)"
           + " net_bytes_sent \(.sim.net_bytes_sent)"'
    done
  done
}

run_digests_check() {
  local golden="${REPO_ROOT}/tests/golden/perfbench_digests.txt"
  local current
  current="$(mktemp)"
  run_digests > "${current}"
  echo "== digests-check: diff against ${golden} ==" >&2
  if ! diff -u "${golden}" "${current}" >&2; then
    rm -f "${current}"
    echo "perfbench digests differ from the pin (see the diff above)" >&2
    return 1
  fi
  rm -f "${current}"
}

run_config() {
  local name="$1" build_dir sanitize
  case "${name}" in
    native) run_native; return ;;
    digests) run_digests; return ;;
    digests-check) run_digests_check; return ;;
    plain) build_dir="${REPO_ROOT}/build"      sanitize="" ;;
    tsan)  build_dir="${REPO_ROOT}/build-tsan" sanitize="thread" ;;
    asan)  build_dir="${REPO_ROOT}/build-asan" sanitize="address" ;;
    ubsan) build_dir="${REPO_ROOT}/build-ubsan" sanitize="undefined" ;;
    *) echo "unknown config '${name}' (want plain|tsan|asan|ubsan|native|digests|digests-check)" >&2; return 1 ;;
  esac
  echo "== ${name}: configure + build (${build_dir}) =="
  cmake -B "${build_dir}" -S "${REPO_ROOT}" -DJACEPP_SANITIZE="${sanitize}"
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "== ${name}: ctest =="
  ctest --test-dir "${build_dir}" --output-on-failure
}

for config in "${CONFIGS[@]}"; do
  run_config "${config}"
done
echo "== all configs passed: ${CONFIGS[*]} ==" >&2
