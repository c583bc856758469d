#!/usr/bin/env python3
"""Runs one benchmark run of the loopback tuning fleet.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness in `perfbench/` (release profile, offline), then runs it
as several separate processes with the same seed, each measuring an equal
share of `--seconds`, and prints the median of each metric over them as the
last line of standard output. Identical runs vary more between processes
than within one, and now and then a process runs slow throughout, so every
metric is a median over processes, set-up and latency percentiles included.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
per-layer ones from a traced run (spans go to `perfbench/out/`).

Exits non-zero, printing no result, when the build or any process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROCESSES = 8
PROCESS_TIMEOUT_S = 60


def build() -> Path:
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        check=True,
        stdout=sys.stderr,
    )
    # Cargo reads a relative CARGO_TARGET_DIR against the working directory.
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    return target.resolve() / "release" / "perfbench"


def run_process(binary: Path, args, index: int) -> tuple[list[str], dict]:
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", repr(args.seconds / PROCESSES),
        "--trace", args.trace,
        "--process", str(index),
        "--out", str(HERE / "out"),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"process {index} exited with {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def aggregate(reports: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {}
    for name, first in reports[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    if "ok_ratio" in metrics:
        # Every failure counts, not the median process's.
        metrics["ok_ratio"]["value"] = (attempted - failed) / attempted
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_unique", "hot_skewed", "churn_restart"])
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        binary = build()
        outputs = [run_process(binary, args, i) for i in range(PROCESSES)]
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    notes, reports = zip(*outputs)
    for line in notes[0]:
        print(line)
    samples = [r["samples"] for r in reports]
    print(f"metrics are medians over {PROCESSES} processes, ok_ratio over all "
          f"{sum(r['attempted'] for r in reports)} requests")
    if args.trace == "0":
        print(f"each process's latency percentiles rest on {min(samples)} to "
              f"{max(samples)} samples")
    print(json.dumps(aggregate(list(reports))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
