#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py --runs times per workload, each with another seed, and
prints for every end-to-end metric its median and its interquartile distance
as a share of the median, next to the bound BENCHMARK.json allows.

  python3 perfbench/spread.py --runs 10 --first-seed 100
  python3 perfbench/spread.py --runs 5 --workloads cp-100k
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402
import run  # noqa: E402


def main():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=doc["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=list(metrics.WORKLOADS),
                        choices=metrics.WORKLOADS)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
        for name, bound in bounds.items():
            if not values[name]:
                continue
            spread = metrics.relative_spread(values[name])
            median = metrics.summarize(values[name])["median"]
            print(json.dumps({"workload": workload, "metric": name, "runs": len(values[name]),
                              "median": median, "spread": round(spread, 4),
                              "bound": bound, "within_third": spread < bound / 3}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
