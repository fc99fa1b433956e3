#!/usr/bin/env python3
"""jacepp end-to-end benchmark.

Builds the benchmark drivers from source (CMake, into .bench_build/ at the
repository root), runs one workload for about --seconds seconds, checks its
outputs and prints, as the last line of standard output, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 the run replays its repetitions in the traced
driver and reports the per-layer split. The line before it is a detail
record: simulated outputs, per-repetition wall-time quartiles and build
metadata. --seconds sets how many repetitions a run makes
(metrics.rep_count).

  python3 perfbench/run.py --workload fig7-churn --seed 1 --seconds 32 --trace 0

Exits non-zero on a failed output check or a failed build.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TARGETS = ("perfbench", "perfbench_traced", "perfbench_span_test")

# Share of --seconds planned for the untraced pass of a traced run; the
# traced replay of the same repetitions takes the rest.
TRACE_UNTRACED_SHARE = 0.45
# Set-up-only samples: a burst of SETUP_BURST_S before each repetition (the
# driver takes at least 5 samples per burst, for cp-100k's slow set-up).
SETUP_BURST_S = 0.25


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def clean_env():
    """The process environment minus every JACEPP_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("JACEPP_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"jacepp sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=clean_env())
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS],
                   check=True, stdout=sys.stderr, env=clean_env())


def run_driver(binary, args):
    """Run a driver to completion; returns (rep records, summary record)."""
    proc = subprocess.run([str(BUILD / binary), *args], stdout=subprocess.PIPE,
                          env=clean_env(), text=True, check=False)
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    reps = [r for r in records if r.get("type") == "rep"]
    summaries = [r for r in records if r.get("type") == "summary"]
    if not summaries or not reps:
        raise RuntimeError(f"{binary} exited with {proc.returncode} and no result")
    return reps, summaries[-1]


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt", ".py"}:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return proc.stdout.strip() or "none"


def sim_detail(reps):
    """Simulated outputs of a run: medians over its repetitions."""
    keys = ("sim_exec_s", "outer_iterations", "residual", "events",
            "reserve_p50_ms", "reserve_p95_ms", "max_sp_share")
    units = {"sim_exec_s": "sim s", "reserve_p50_ms": "sim ms",
             "reserve_p95_ms": "sim ms", "residual": "ratio",
             "max_sp_share": "ratio"}
    return {k: {"value": metrics.summarize([r["sim"][k] for r in reps])["median"],
                "unit": units.get(k, "count")} for k in keys}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.trace == 0:
        count = metrics.rep_count(args.workload, args.seconds, 2)
    else:
        count = metrics.rep_count(args.workload, args.seconds * TRACE_UNTRACED_SHARE, 1)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--reps", str(count)]
    failures = []
    mismatched = 0
    try:
        if args.trace == 0:
            reps, summary = run_driver("perfbench", common + [
                "--setup-burst", str(SETUP_BURST_S)])
            result_metrics = metrics.end_to_end(reps, summary)
            checked = reps
        else:
            reps, summary = run_driver("perfbench", common)
            traced, _ = run_driver("perfbench_traced", common)
            if len(traced) != len(reps):
                raise RuntimeError("traced replay ran a different number of repetitions")
            for u, t in zip(reps, traced):
                bad = False
                if metrics.sim_outputs(u) != metrics.sim_outputs(t):
                    failures.append(f"rep {u['rep']}: traced outputs differ from untraced")
                    bad = True
                excess = metrics.self_time_excess(t)
                if excess > metrics.SELF_TIME_SLACK_S:
                    failures.append(f"rep {u['rep']}: layer self times exceed "
                                    f"the run by {excess:.6f} s")
                    bad = True
                mismatched += bad and t["ok"]
            result_metrics = metrics.per_layer(traced, reps)
            checked = reps + traced
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"run failed: {e}")
        return 1

    for r in checked:
        if not r["ok"]:
            failures.append(f"rep {r['rep']} seed {r['seed']}: {r['failure']}")
    attempted = len(checked)
    failed = sum(1 for r in checked if not r["ok"]) + mismatched
    for f in failures:
        log(f"check failed: {f}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reps": len(reps),
        "rep_wall_s": metrics.summarize([r["wall_s"] for r in reps]),
        "fail_ratio": failed / attempted,
        "sim": sim_detail(reps),
        "meta": {
            "git_sha": git_sha(),
            "source_digest": source_digest(),
            "build_type": summary["build_type"],
            "compiler": summary["compiler"],
            "nproc": os.cpu_count(),
            "hardware_threads": summary["hardware_threads"],
            "simd_detected": summary["simd_detected"],
            "simd_active": summary["simd_active"],
        },
    }
    print(json.dumps(detail))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
