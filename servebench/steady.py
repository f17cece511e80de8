"""Steadiness check: run one workload k times and report each metric's spread.

    python3 servebench/steady.py --workload docqa-dipr --runs 10 --first-seed 1

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...), one at a
time, and measures for ``BENCHMARK.json``'s ``run_seconds``.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 − q1) / median`` and that spread as a share of the metric's bound from
``BENCHMARK.json``.  Exits 1 when a run fails, a spread exceeds its bound, or
the share of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    values: dict[str, list[float]] = {}
    failed_shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {summary}", flush=True)

    steady = True
    print(f"\n{args.workload}: {args.runs} runs of {spec['run_seconds']}s")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'share':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        series = values[name]
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else float("inf")
        share = spread / metric["bound"]
        if share > 1.0:
            steady = False
        print(f"{name:24} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{metric['bound']:6.2f} {share:6.2f}")
    print(f"failed share per run: {sorted(set(failed_shares))}")
    return 0 if steady and len(set(failed_shares)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
