#!/usr/bin/env bash
# Perf-regression guard: compare freshly written BENCH_*.json files against
# the committed baseline (git HEAD) and flag every lower-is-better metric that
# got more than BENCH_GUARD_TOL (default 30%) worse.
#
# Default mode is warn-only (always exits 0) because bench numbers move with
# the machine; the point is to make a perf cliff visible in the run log.
# BENCH_GUARD_STRICT=1 makes violations FAIL (non-zero exit) — used by the CI
# release job.
#
# Kinds of checks:
#  1. Baseline timings — fresh lower-is-better numbers vs the committed
#     BENCH_*.json at git HEAD. Only meaningful when the fresh run used the
#     same machine class and bench scale as the committed one, so strict CI
#     runs (different runner, --smoke scale) skip them via
#     BENCH_GUARD_SKIP_BASELINE=1. BENCH_scale.json's per-case rounds counts
#     feed this comparison as cliff detectors: a lookahead regression shows
#     up as a rounds blow-up long before it shows up in 1-core wall time.
#  2. Sharded-scheduler floor — inside BENCH_scale.json, best sharded
#     events/sec at the 1k-daemon tier vs single-queue, measured within one
#     run. The floor is 1.0x with the guard tolerance applied (passes while
#     ratio >= 1 - BENCH_GUARD_TOL): on a 1-core runner sharding is
#     parity-at-best (smaller heaps vs round overhead) and the measured ratio
#     hovers around 1.0 with scheduler noise, so this is a cliff detector for
#     bugs like an accidentally serializing round barrier, not a speedup
#     target. The real speedup lives at the 10k tier (see EXPERIMENTS.md).
#  3. Control-plane floors — also inside BENCH_scale.json and also within-run
#     counters, so machine-portable. Two hard gates from DESIGN.md §13:
#     (a) with N super-peers no single one may serve more than
#         share_bound (1/N + tolerance) of reservation traffic,
#     (b) the decentralized plane must replay bit-identically across
#         scheduler shard counts (cp_determinism.ok).
#  4. Churn / voting floors (DESIGN.md §14) — also inside BENCH_scale.json.
#     All sim-time counters on a pinned seed, so deterministic and
#     machine-portable:
#     (a) reputation-aware placement must not increase the replacement count
#         vs random placement on the committed churn ablation, and must not
#         increase sim execution time beyond the recorded tolerance,
#     (b) redundant-execution voting (rep.redundancy=3) must flag exactly the
#         injected liars — every liar caught, zero false positives.
#  5. Heartbeat per-period floor (DESIGN.md §13) — inside a bench_micro JSON
#     (BENCH_micro.json, a google-benchmark document): at every fleet size,
#     BM_HeartbeatPeriodIndex must take less time per heartbeat period than
#     BM_HeartbeatPeriodLinear, the full-scan reference it replaced. Both
#     rows come from one run on one machine, so the ratio is
#     machine-portable; no tolerance knob. A file
#     with no such rows fails the check.
#  6. Fused CG floor (DESIGN.md §9) — inside BENCH_hotpath.json: the fused
#     CG solve (banded row sums, three passes per iteration) must run at
#     least 1.8x faster than the unfused CSR oracle. Both
#     solves run in one process on one matrix, so the ratio is
#     machine-portable. Measured at 2.5-3.8x on a 4-vCPU Xeon VM (160² and
#     64² grids; RelWithDebInfo, Release and -march=native builds); before
#     the banded row sums it read 1.35x. A file without the row fails the
#     check.
#  7. CRC-32 fold floor (DESIGN.md §7) — inside a bench_checkpoint JSON
#     (BENCH_checkpoint.json): where the JSON context's crc32_kernel is
#     "fold", BM_Crc32/3072 (the kernel picked at start-up) must run at least
#     3x faster than BM_Crc32Portable/3072 (slicing-by-8 on the same bytes).
#     Both rows come from one run, so the ratio is machine-portable; measured
#     at 6.4x on a 4-vCPU AMD EPYC VM. On a host without PCLMULQDQ the check
#     prints a skip. A file without either row, or without the context,
#     fails the check.
#
# Usage: scripts/bench_guard.sh BENCH_micro.json [BENCH_hotpath.json ...]
#        BENCH_GUARD_STRICT=1 BENCH_GUARD_SKIP_BASELINE=1 scripts/bench_guard.sh BENCH_hotpath.json
set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TOL="${BENCH_GUARD_TOL:-0.30}"
STRICT="${BENCH_GUARD_STRICT:-0}"
SKIP_BASELINE="${BENCH_GUARD_SKIP_BASELINE:-0}"

# Emit "metric value" lines for the lower-is-better timings of a bench file.
metrics_for() {
  local file="$1"
  case "$(basename "${file}")" in
    BENCH_micro.json|BENCH_checkpoint.json)
      jq -r '(.benchmarks // [])[] | "\(.name) \(.real_time)"' "${file}" ;;
    BENCH_comm.json)
      jq -r '
        ((.slow_consumer.runs // {}) | to_entries[]
          | "slow/\(.key)/exec_s \(.value.execution_time_s)"),
        ((.flaky_consumer.runs // {}) | to_entries[]
          | "flaky/\(.key)/exec_s \(.value.execution_time_s)")
      ' "${file}" ;;
    BENCH_hotpath.json)
      jq -r '
        ((.fused.kernels // {}) | to_entries[]
          | "fused/\(.key)_ns \(.value.fused_ns)"),
        "fused/cg_ms \(.fused.cg.fused_ms)"
      ' "${file}" ;;
    BENCH_scale.json)
      jq -r '
        ((.cases // [])[] | "scale/d\(.daemons)/s\(.shards)/wall_s \(.wall_s)"),
        ((.cases // [])[] | "scale/d\(.daemons)/s\(.shards)/rounds \(.rounds)")
      ' "${file}" ;;
    *) ;;
  esac
}

# Control-plane floors (see header, check 3). All within-run counters, no
# tolerance knob: the bounds are already baked into the bench output.
cp_floor_checks() {
  local file="$1"
  jq -r '
    ((.cp_floor // empty)
      | select(.max_share > .share_bound)
      | "bench-guard: FLOOR cp/reservation_share@\(.daemons)d/\(.super_peers)sp: \(.max_share * 1000 | floor / 1000) above bound \(.share_bound)"),
    ((.cp_determinism // empty)
      | select(.ok != true)
      | "bench-guard: FLOOR cp/shard_determinism: digest \(.shards1_digest) (shards=1) != \(.shards4_digest) (shards=4)")
  ' "${file}" 2>/dev/null
}

# Churn / voting floors (see header, check 4). Pinned-seed sim-time counters,
# so deterministic across machines; no tolerance knob beyond the recorded one.
churn_floor_checks() {
  local file="$1"
  jq -r '
    ((.churn_floor // empty)
      | select(.rep_replacements > .random_replacements)
      | "bench-guard: FLOOR churn/replacements: reputation placement \(.rep_replacements) above random \(.random_replacements)"),
    ((.churn_floor // empty)
      | select(.rep_exec_s > .random_exec_s * .exec_tolerance)
      | "bench-guard: FLOOR churn/exec_time: reputation \(.rep_exec_s)s above random \(.random_exec_s)s x \(.exec_tolerance)"),
    ((.voting_floor // empty)
      | select(.ok != true)
      | "bench-guard: FLOOR voting/detection: redundancy-\(.redundancy) voting did not flag exactly the injected liars")
  ' "${file}" 2>/dev/null
}

# Fused CG floor (see header, check 6). Within-run ratio, no tolerance knob.
fused_cg_floor_checks() {
  local file="$1"
  jq -r --argjson floor 1.8 '
    if (.fused.cg.speedup // null) == null then
      "bench-guard: FLOOR fused/cg: no fused.cg.speedup row"
    else
      .fused.cg | select(.speedup < $floor)
      | "bench-guard: FLOOR fused/cg: \(.speedup)x below floor \($floor)x (fused \(.fused_ms) ms, unfused \(.unfused_ms) ms)"
    end
  ' "${file}" 2>/dev/null
}

# CRC-32 fold floor (see header, check 7). Within-run ratio, no tolerance
# knob; the kernel name gates it.
crc_fold_floor_checks() {
  local file="$1"
  jq -r --argjson floor 3 '
    .context.crc32_kernel as $kernel
    | (.benchmarks // []) | map({key: .name, value: .real_time}) | from_entries
    | .["BM_Crc32/3072"] as $picked | .["BM_Crc32Portable/3072"] as $portable
    | if $picked == null or $portable == null then
        "bench-guard: FLOOR crc32/fold: no BM_Crc32/3072 or BM_Crc32Portable/3072 row"
      elif $kernel == null then
        "bench-guard: FLOOR crc32/fold: no crc32_kernel in the JSON context"
      elif $kernel == "fold" and $portable < $floor * $picked then
        "bench-guard: FLOOR crc32/fold: \($portable / $picked)x below floor \($floor)x (fold \($picked) ns, slicing-by-8 \($portable) ns)"
      else empty end
  ' "${file}" 2>/dev/null
}

# Heartbeat per-period floor (see header, check 5).
heartbeat_floor_checks() {
  local file="$1"
  jq -r '
    (.benchmarks // [])
    | map(select(.name | startswith("BM_HeartbeatPeriod"))
          | {key: (.name | sub("^BM_HeartbeatPeriod"; "")), value: .real_time})
    | from_entries as $t
    | if ($t | length) == 0 then
        "bench-guard: FLOOR heartbeat/period: no BM_HeartbeatPeriod rows"
      else
        $t | keys[] | select(startswith("Index/")) | sub("^Index/"; "") as $n
        | select($t["Linear/" + $n] == null or $t["Index/" + $n] >= $t["Linear/" + $n])
        | "bench-guard: FLOOR heartbeat/period@\($n): index \($t["Index/" + $n]) not below linear \($t["Linear/" + $n])"
      end
  ' "${file}" 2>/dev/null
}

# Sharded-scheduler floor (see header, check 2). Within-run ratio, so it is
# machine-portable; tolerance-adjusted because the 1k tier sits at parity.
scale_floor_checks() {
  local file="$1"
  jq -r --argjson tol "${TOL}" '
    (.floor // empty) |
    select(.single_eps > 0) |
    select(.ratio < 1.0 - $tol) |
    "bench-guard: FLOOR scale/sharded_vs_single@\(.daemons): \(.ratio)x below floor 1.0x (tolerance \($tol * 100 | floor)%)"
  ' "${file}" 2>/dev/null
}

total_warnings=0
for file in "$@"; do
  name="$(basename "${file}")"
  if [[ ! -f "${file}" ]]; then
    echo "bench-guard: ${name}: missing, skipped"
    continue
  fi

  if [[ "${name}" == "BENCH_hotpath.json" ]]; then
    fused_violations="$(fused_cg_floor_checks "${file}")"
    if [[ -n "${fused_violations}" ]]; then
      echo "${fused_violations}"
      total_warnings=$((total_warnings + $(echo "${fused_violations}" | wc -l)))
    else
      echo "bench-guard: ${name}: fused CG floor holds"
    fi
  fi

  if [[ "${name}" == "BENCH_checkpoint.json" ]]; then
    crc_violations="$(crc_fold_floor_checks "${file}")"
    crc_kernel="$(jq -r '.context.crc32_kernel // "none"' "${file}" 2>/dev/null)"
    if [[ -n "${crc_violations}" ]]; then
      echo "${crc_violations}"
      total_warnings=$((total_warnings + $(echo "${crc_violations}" | wc -l)))
    elif [[ "${crc_kernel}" == "fold" ]]; then
      echo "bench-guard: ${name}: CRC-32 fold floor holds"
    else
      echo "bench-guard: ${name}: CRC-32 fold floor skipped (kernel ${crc_kernel}: this host has no PCLMULQDQ fold)"
    fi
  fi

  if [[ "${name}" == "BENCH_micro.json" ]]; then
    heartbeat_violations="$(heartbeat_floor_checks "${file}")"
    if [[ -n "${heartbeat_violations}" ]]; then
      echo "${heartbeat_violations}"
      total_warnings=$((total_warnings + $(echo "${heartbeat_violations}" | wc -l)))
    else
      echo "bench-guard: ${name}: heartbeat per-period floor holds"
    fi
  fi

  if [[ "${name}" == "BENCH_scale.json" ]]; then
    scale_violations="$(scale_floor_checks "${file}")"
    if [[ -n "${scale_violations}" ]]; then
      echo "${scale_violations}"
      total_warnings=$((total_warnings + $(echo "${scale_violations}" | wc -l)))
    else
      echo "bench-guard: ${name}: sharded throughput floor holds"
    fi
    cp_violations="$(cp_floor_checks "${file}")"
    if [[ -n "${cp_violations}" ]]; then
      echo "${cp_violations}"
      total_warnings=$((total_warnings + $(echo "${cp_violations}" | wc -l)))
    else
      echo "bench-guard: ${name}: control-plane floors hold"
    fi
    churn_violations="$(churn_floor_checks "${file}")"
    if [[ -n "${churn_violations}" ]]; then
      echo "${churn_violations}"
      total_warnings=$((total_warnings + $(echo "${churn_violations}" | wc -l)))
    else
      echo "bench-guard: ${name}: churn placement and voting floors hold"
    fi
  fi

  if [[ "${SKIP_BASELINE}" == "1" ]]; then
    continue
  fi
  baseline="$(mktemp)"
  if ! git -C "${REPO_ROOT}" show "HEAD:${name}" > "${baseline}" 2>/dev/null; then
    echo "bench-guard: ${name}: no committed baseline, skipped"
    rm -f "${baseline}"
    continue
  fi

  fresh_metrics="$(metrics_for "${file}")"
  base_metrics="$(metrics_for "${baseline}")"
  rm -f "${baseline}"

  warnings="$(awk -v tol="${TOL}" -v file="${name}" '
    NR == FNR { base[$1] = $2; next }
    ($1 in base) && base[$1] > 0 && $2 > base[$1] * (1 + tol) {
      printf "bench-guard: WARNING %s %s: %.0f -> %.0f (+%.0f%%, tolerance %.0f%%)\n",
             file, $1, base[$1], $2, ($2 / base[$1] - 1) * 100, tol * 100
      n++
    }
    END { exit n > 0 ? 1 : 0 }
  ' <(echo "${base_metrics}") <(echo "${fresh_metrics}"))" && status=0 || status=1

  if [[ ${status} -ne 0 ]]; then
    echo "${warnings}"
    total_warnings=$((total_warnings + $(echo "${warnings}" | wc -l)))
  else
    echo "bench-guard: ${name}: within ${TOL} of committed baseline"
  fi
done

if [[ ${total_warnings} -gt 0 ]]; then
  if [[ "${STRICT}" == "1" ]]; then
    echo "bench-guard: FAIL — ${total_warnings} check(s) violated (BENCH_GUARD_STRICT=1)"
    exit 1
  fi
  echo "bench-guard: ${total_warnings} check(s) violated (warn-only, not failing)"
fi
exit 0
