"""Spread report: repeat a workload with fresh seeds and summarise each metric.

    python3 pathbench/spread.py --workload session-uniform --runs 10
    python3 pathbench/spread.py --workload service-mixed --runs 10 --sets 2

For every end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread (interquartile distance
over the median) and the largest deviation from the median, next to the
metric's bound in ``BENCHMARK.json``.  A spread passes when it is below a
third of the bound (``setup_s`` is exempt).  With ``--sets 2`` it runs a
second set on new seeds and also checks that no median worsened by more than
the bound.  Runs go one after another; the last line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "pathbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "max_dev": max(abs(value - median) for value in values) / median,
    }


def run_set(workload: str, seeds: range, seconds: int, metrics: list[dict]) -> dict:
    values: dict[str, list[float]] = {metric["name"]: [] for metric in metrics}
    for seed in seeds:
        result = one_run(workload, seed, seconds)
        if not result["correct"]:
            raise RuntimeError(f"seed {seed}: a reply failed its checks")
        for metric in metrics:
            values[metric["name"]].append(result["metrics"][metric["name"]]["value"])
        row = "  ".join(f"{name}={series[-1]:.6g}" for name, series in values.items())
        print(f"seed {seed}: failed={result['failed']}  {row}", flush=True)
    return {name: summarise(series) for name, series in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    sets = []
    for index in range(args.sets):
        first = args.first_seed + index * args.runs
        sets.append(run_set(args.workload, range(first, first + args.runs), seconds, metrics))

    passed = True
    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s) of {seconds}s")
    print(f"{'metric':14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'max_dev':>7} {'bound':>6}  verdict")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        for index, summaries in enumerate(sets):
            summary = summaries[name]
            steady = name == "setup_s" or summary["spread"] <= bound / 3
            verdict = "ok" if steady else "too noisy"
            if index == 1:
                first, second = sets[0][name]["median"], summary["median"]
                worse = (second - first) / first if metric["better"] == "lower" else (
                    (first - second) / first
                )
                if worse > bound:
                    verdict += f", median worse by {worse:.3f}"
                    steady = False
            passed &= steady
            print(
                f"{name:14} {index + 1:>3} {summary['median']:>12.6g} {summary['q1']:>12.6g} "
                f"{summary['q3']:>12.6g} {summary['spread']:>7.4f} {summary['max_dev']:>7.4f} "
                f"{bound:>6}  {verdict}"
            )
    print(json.dumps({"workload": args.workload, "passed": passed, "sets": sets}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
