#!/usr/bin/env bash
# One-command gate: tier-1 build + ctest, then the same suite under
# ThreadSanitizer, AddressSanitizer and UndefinedBehaviorSanitizer (separate
# build trees, so the plain build stays incremental).
#
# Usage:
#   scripts/check.sh            # plain + tsan + asan + ubsan
#   scripts/check.sh plain      # just the tier-1 build + ctest
#   scripts/check.sh tsan asan  # just those sanitizer configs
#   JOBS=8 scripts/check.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-4}"
CONFIGS=("$@")
if [[ ${#CONFIGS[@]} -eq 0 ]]; then
  CONFIGS=(plain tsan asan ubsan)
fi

run_config() {
  local name="$1" build_dir sanitize
  case "${name}" in
    plain) build_dir="${REPO_ROOT}/build"      sanitize="" ;;
    tsan)  build_dir="${REPO_ROOT}/build-tsan" sanitize="thread" ;;
    asan)  build_dir="${REPO_ROOT}/build-asan" sanitize="address" ;;
    ubsan) build_dir="${REPO_ROOT}/build-ubsan" sanitize="undefined" ;;
    *) echo "unknown config '${name}' (want plain|tsan|asan|ubsan)" >&2; return 1 ;;
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
echo "== all configs passed: ${CONFIGS[*]} =="
