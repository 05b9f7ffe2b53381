"""Record one change's benchmark numbers into a committed ``BENCH_<n>.json``.

    python3 benchmarks/record.py --output benchmarks/BENCH_17.json \\
        --parent ../parent-checkout --seeds 111,112,113,114,115,116,117,118,119,120
    python3 benchmarks/record.py --output benchmarks/BENCH_17.json --label change

Runs ``pathbench/run.py`` of a checkout on every workload its
``BENCHMARK.json`` declares: one run per ``--seeds`` seed (default
``1,2,3``) with ``--trace 0`` (the end-to-end metrics) and one ``--trace 1``
run on the first seed (the per-layer metrics), at the benchmark's own run
length.  Each run gives one row: its ``record`` line and its result line.
The rows are aggregated into the per-workload medians of the end-to-end
metrics and the traced run's per-layer metrics, and stored as one *set*
under ``--label`` in the output file, next to the sets already there.  With
``--parent`` every run is made on both checkouts, parent and change
alternating which goes first, and stored as the ``parent`` and the
``--label`` set.  When the file holds a ``parent`` and a ``change`` set, it
also compares them: both medians against each metric's bound, the parent's
quartiles, on how many seeds the change was the better run, and whether
that makes a gain.  ``--checkout`` defaults to the checkout holding this
script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from pathbench.spread import summarise  # noqa: E402

#: A gain needs at least this many pairs, the change better in at least
#: this share of them (ties count for neither side), and the medians further
#: apart than the parent's interquartile range.
GAIN_MIN_PAIRS = 10
GAIN_MIN_WIN_SHARE = 0.9


def parse_run(stdout: str) -> dict:
    """The ``record`` line and the result line of one ``pathbench/run.py`` run."""
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    records = [line for line in lines if line.startswith("record ")]
    if not records:
        raise ValueError("the run printed no record line")
    return {
        "record": json.loads(records[-1][len("record ") :]),
        "result": json.loads(lines[-1]),
    }


def aggregate(rows: list[dict], benchmark: dict) -> dict:
    """Medians of the end-to-end metrics and the per-layer metrics, per workload.

    ``rows`` are :func:`parse_run` outputs; untraced rows feed the medians
    and the traced row of each workload its per-layer metrics.  Every run's
    correctness and failure counts are summed per workload.
    """
    end_to_end = [metric["name"] for metric in benchmark["end_to_end"]]
    per_layer = [metric["name"] for metric in benchmark["per_layer"]]
    workloads: dict[str, dict] = {}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        mine = [row for row in rows if row["record"]["workload"] == workload]
        if not mine:
            continue
        untraced = [row for row in mine if not row["record"]["trace"]]
        traced = [row for row in mine if row["record"]["trace"]]
        values = {
            name: [row["result"]["metrics"][name]["value"] for row in untraced]
            for name in end_to_end
        }
        workloads[workload] = {
            "runs": len(mine),
            "correct": all(row["result"]["correct"] for row in mine),
            "attempted": sum(row["result"]["attempted"] for row in mine),
            "failed": sum(row["result"]["failed"] for row in mine),
            "seeds": [row["record"]["seed"] for row in untraced],
            "values": values,
            "medians": {
                name: statistics.median(series) for name, series in values.items() if series
            },
            "per_layer": (
                {name: traced[-1]["result"]["metrics"][name]["value"] for name in per_layer}
                if traced
                else {}
            ),
        }
    return workloads


def compare(parent: dict, change: dict, benchmark: dict) -> dict:
    """Per workload and end-to-end metric: parent against change.

    ``worse`` is the relative change of the medians in the metric's bad
    direction (positive when the change is worse); ``within_bound`` says
    whether it stays inside the metric's ``BENCHMARK.json`` bound.  ``wins``
    counts the seeds, of the ``pairs`` both sets ran, on which the change
    was strictly better; ``parent_q1``/``parent_q3`` are the parent's
    quartiles (:func:`pathbench.spread.summarise`).  ``gain`` applies the
    rule of :data:`GAIN_MIN_PAIRS` and :data:`GAIN_MIN_WIN_SHARE`.
    """
    out: dict[str, dict] = {}
    for workload, head in change["workloads"].items():
        base = parent["workloads"].get(workload)
        if base is None:
            continue
        rows = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            before, after = base["medians"][name], head["medians"][name]
            if before == 0:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (after - before) / before
            theirs = dict(zip(base["seeds"], base["values"][name]))
            ours = dict(zip(head["seeds"], head["values"][name]))
            paired = [seed for seed in ours if seed in theirs]
            wins = sum(sign * (ours[seed] - theirs[seed]) < 0 for seed in paired)
            rows[name] = {
                "parent": before,
                "change": after,
                "ratio": after / before,
                "worse": worse,
                "bound": metric["bound"],
                "within_bound": worse <= metric["bound"],
                "pairs": len(paired),
                "wins": wins,
                "gain": False,
            }
            if len(base["values"][name]) >= 2:
                spread = summarise(base["values"][name])
                rows[name].update(
                    parent_q1=spread["q1"],
                    parent_q3=spread["q3"],
                    gain=(
                        len(paired) >= GAIN_MIN_PAIRS
                        and wins >= GAIN_MIN_WIN_SHARE * len(paired)
                        and sign * (before - after) > spread["q3"] - spread["q1"]
                    ),
                )
        out[workload] = rows
    return out


def one_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(checkout / "pathbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=1_800
    )
    # Exit code 1 is a run whose replies failed a check: it is recorded.
    if completed.returncode not in (0, 1):
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return parse_run(completed.stdout)


def worktree_state(checkout: Path) -> dict:
    """The checkout's HEAD and whether its tracked files differ from it."""
    def git(*args: str) -> str:
        completed = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return completed.stdout.strip() if completed.returncode == 0 else ""

    return {
        "head": git("rev-parse", "HEAD") or "unknown",
        "modified": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--label", default="change", help="name of the set (default: change)")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument(
        "--parent", type=Path, help="also record this checkout as `parent`, alternating runs"
    )
    parser.add_argument(
        "--seeds", default="1,2,3",
        help="comma-separated seeds of the untraced runs; the first also seeds the traced run",
    )
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]

    sides = {args.label: args.checkout.resolve()}
    if args.parent is not None:
        sides = {"parent": args.parent.resolve(), **sides}
    benchmark = json.loads((sides[args.label] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = [
        (workload, seed, trace)
        for workload in (entry["name"] for entry in benchmark["workloads"])
        for seed, trace in [(seed, 0) for seed in seeds] + [(seeds[0], 1)]
    ]
    rows: dict[str, list[dict]] = {label: [] for label in sides}
    for index, (workload, seed, trace) in enumerate(runs):
        order = list(sides) if index % 2 == 0 else list(sides)[::-1]
        for label in order:
            row = one_run(sides[label], workload, seed, seconds, trace)
            rows[label].append(row)
            correct = row["result"]["correct"]
            print(f"{label} {workload} seed={seed} trace={trace} correct={correct}", flush=True)

    document = json.loads(args.output.read_text()) if args.output.exists() else {"sets": {}}
    for label, checkout in sides.items():
        document["sets"][label] = {
            "commit": rows[label][0]["record"]["commit"],
            "worktree": worktree_state(checkout),
            "runtime_meta": rows[label][0]["record"]["runtime"],
            "seconds": seconds,
            "alternated_with": next((other for other in sides if other != label), None),
            "rows": rows[label],
            "workloads": aggregate(rows[label], benchmark),
        }
    sets = document["sets"]
    if "parent" in sets and "change" in sets:
        document["change_vs_parent"] = compare(sets["parent"], sets["change"], benchmark)
    args.output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0 if all(row["result"]["correct"] for side in rows.values() for row in side) else 1


if __name__ == "__main__":
    sys.exit(main())
