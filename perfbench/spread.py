"""Repeat workloads in fresh processes and report each metric's spread.

    python3 perfbench/spread.py --workload maze-batch

Run from the root of a source checkout.  It runs each workload once with
each of SEEDS, one run after another, for the run_seconds of
BENCHMARK.json.  For every metric it prints the
median, the first and third quartiles (as statistics.quantiles(values,
n=4) gives them) and the spread, which is the distance between the
quartiles as a share of the median, plus the share of failed operations of
every run.  The last line of stdout is the same report as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
#: One run per seed.
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    report = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        report[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": spread,
        }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description="metric spread over repeated runs")
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args()
    out = {}
    for workload in args.workload:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, SECONDS))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
        report = summarize(runs)
        print(f"{workload}: {len(runs)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}")
        print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}")
        for name, m in report.items():
            print(
                f"  {name:<28}{m['median']:>14.6g}{m['q1']:>14.6g}{m['q3']:>14.6g}"
                f"{m['spread']:>9.4f}  {m['unit']}"
            )
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"  correct in every run: {correct}; failed shares: {shares}")
        out[workload] = {"metrics": report, "failed_shares": shares, "correct": correct}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
