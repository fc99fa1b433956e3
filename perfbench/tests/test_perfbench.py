#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/tests/test_perfbench.py

- quartile and median computation (metrics.summarize);
- every metric name the benchmark emits matches [A-Za-z0-9_.-]+ and is
  declared in BENCHMARK.json with the same unit, checked on the records of a
  real untraced and traced solve-large repetition (which must agree bit for
  bit on their simulated outputs);
- span self-time arithmetic on nested wraps (perfbench_span_test, which
  checks store_frame containing decode_frame on the real wrapped symbols).

The last two build the drivers first (perfbench/run.py's build step).
"""

import json
import re
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))
import metrics  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SummarizeTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [9.1, 8.7, 9.4, 10.2, 8.9, 9.0, 9.8, 9.3, 8.8, 9.6]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        s = metrics.summarize(values)
        self.assertAlmostEqual(s["q1"], q1)
        self.assertAlmostEqual(s["q3"], q3)
        self.assertAlmostEqual(s["median"], q2)
        self.assertEqual(s["n"], 10)

    def test_known_values(self):
        s = metrics.summarize([1, 2, 3, 4, 5, 6, 7, 8])
        self.assertEqual(s["median"], 4.5)
        self.assertEqual(s["q1"], 2.25)
        self.assertEqual(s["q3"], 6.75)
        self.assertEqual(metrics.summarize([3, 1, 2])["median"], 2)

    def test_single_sample(self):
        s = metrics.summarize([4.0])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]), (4.0, 4.0, 4.0, 1))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.summarize([])

    def test_relative_spread(self):
        values = [10.0, 10.0, 11.0, 9.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.relative_spread(values), (q3 - q1) / 10.0)


class FilteredWallTest(unittest.TestCase):
    def test_fastest_repeat_per_step(self):
        reps = [{"seed": 1, "step_wall_s": [1.0, 5.0, 2.0]},
                {"seed": 1, "step_wall_s": [3.0, 1.0, 2.5]},
                {"seed": 1, "step_wall_s": [2.0, 4.0, 1.5]}]
        self.assertEqual(metrics.filtered_wall_s(reps), 1.0 + 1.0 + 1.5)

    def test_unstepped_workload_takes_the_fastest_repeat(self):
        reps = [{"seed": 7, "step_wall_s": [w]} for w in (16.4, 15.9, 17.2)]
        self.assertEqual(metrics.filtered_wall_s(reps), 15.9)

    def test_repeats_must_do_the_same_work(self):
        with self.assertRaises(ValueError):
            metrics.filtered_wall_s([{"seed": 1, "step_wall_s": [1.0, 2.0]},
                                     {"seed": 1, "step_wall_s": [1.0]}])
        with self.assertRaises(ValueError):
            metrics.filtered_wall_s([{"seed": 1, "step_wall_s": [1.0]},
                                     {"seed": 2, "step_wall_s": [1.0]}])

    def test_rep_count_depends_on_seconds_only(self):
        self.assertEqual(metrics.rep_count("fig7-churn", 40, 2), 4)
        self.assertEqual(metrics.rep_count("fig7-churn", 18, 1), 1)
        self.assertEqual(metrics.rep_count("cp-100k", 40, 2), 2)
        self.assertEqual(metrics.rep_count("cp-100k", 5, 2), 2)


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        doc = benchmark_json()
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        names += [w["name"] for w in doc["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(metrics.WORKLOADS))


class EmittedMetricsTest(unittest.TestCase):
    """One real repetition of solve-large, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        run.build()
        args = ["--workload", "solve-large", "--seed", "3"]
        cls.reps, cls.summary = run.run_driver("perfbench", args + [
            "--reps", "1", "--setup-burst", "0.01"])
        cls.traced, _ = run.run_driver("perfbench_traced", args + ["--reps", "1"])

    def check_declared(self, emitted, declared):
        self.assertEqual(set(emitted), set(declared))
        for name, value in emitted.items():
            self.assertRegex(name, NAME)
            self.assertEqual(value["unit"], declared[name])

    def test_end_to_end_names(self):
        declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
        emitted = metrics.end_to_end(self.reps, self.summary)
        self.check_declared(emitted, declared)
        for value in emitted.values():
            self.assertGreater(value["value"], 0)

    def test_per_layer_names(self):
        declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
        self.check_declared(metrics.per_layer(self.traced, self.reps), declared)

    def test_traced_replay_is_bit_identical(self):
        self.assertTrue(self.reps[0]["ok"], self.reps[0]["failure"])
        self.assertEqual(metrics.sim_outputs(self.reps[0]),
                         metrics.sim_outputs(self.traced[0]))

    def test_self_times_fit_in_the_run(self):
        traced = self.traced[0]
        spans = traced["spans"]
        self.assertLessEqual(abs(metrics.self_time_excess(traced)),
                             metrics.SELF_TIME_SLACK_S)
        self.assertGreaterEqual(spans["run"]["self_s"], 0)
        self.assertGreater(spans["linalg.cg"]["calls"], 0)
        self.assertGreater(spans["link.enqueue"]["calls"], 0)
        self.assertEqual(spans["setup.add_node"]["calls"], 0)
        self.assertGreater(traced["setup_spans"]["setup.add_node"]["calls"], 0)

    def test_self_time_excess_catches_a_double_count(self):
        traced = json.loads(json.dumps(self.traced[0]))
        cg = traced["spans"]["linalg.cg"]
        cg["self_s"] += cg["total_s"]
        self.assertGreater(metrics.self_time_excess(traced), metrics.SELF_TIME_SLACK_S)


class SpanArithmeticTest(unittest.TestCase):
    def test_span_test_binary(self):
        run.build()
        proc = subprocess.run([str(run.BUILD / "perfbench_span_test")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
