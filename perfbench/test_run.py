#!/usr/bin/env python3
"""The benchmark's own tests: a tiny run of each workload prints every metric
named in BENCHMARK.json with its unit, answers every request correctly, and
gives a quality_pct_of_oracle that repeats exactly for the same seed.

    python3 perfbench/test_run.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=900,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check(self, report: dict, metrics: list) -> None:
        self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(report["correct"], True)
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(report["failed"], 0)
        self.assertEqual(set(report["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = report["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # A metric nothing measured must fail the run, never read as
            # a huge number.
            self.assertLess(abs(got["value"]), 1e300, m["name"])

    def test_end_to_end_metrics_and_exact_quality(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = run(workload, 7, 0), run(workload, 7, 0)
                for report in (first, second):
                    self.check(report, SPEC["end_to_end"])
                    self.assertEqual(report["metrics"]["ok_ratio"]["value"], 1.0)
                    for name, metric in report["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)
                self.assertEqual(
                    first["metrics"]["quality_pct_of_oracle"]["value"],
                    second["metrics"]["quality_pct_of_oracle"]["value"],
                )

    def test_traced_run_prints_every_layer_metric(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(run(workload, 7, 1), SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
