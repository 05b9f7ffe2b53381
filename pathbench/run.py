"""Benchmark of the program's three user paths, end to end or layer by layer.

    python3 pathbench/run.py --workload oneshot-skewed --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, drives the program through
its public entry points, checks every reply, and prints one JSON object as
the last line of standard output::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (tracing
off); ``--trace 1`` wraps each layer's calls and reports the per-layer
metrics instead.  The line before it records the environment and inputs.
The exit code is 1 when a reply failed a check.  ``--scale smoke``
runs the same workload and checks on small inputs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside a clone)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--corrupt", type=int, default=0, help="corrupt this many replies (tests the checks)"
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("error: run from a checkout holding src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads(spec_path.read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    from pathbench.tracing import install
    from pathbench.workloads import SIZES, WORKLOADS, Run
    from repro.kernels import runtime_meta

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=SIZES[args.workload][args.scale],
        scale=args.scale,
        workdir=workdir,
        corrupt=args.corrupt,
    )
    # The service workload's tracer lives in its server process.
    if args.trace and args.workload != "service-mixed":
        install(run.tracer)
    started = time.perf_counter()
    try:
        values = WORKLOADS[args.workload](run)
    finally:
        run.tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [metric["name"] for metric in expected if metric["name"] not in values]
    if missing:
        raise RuntimeError(f"the workload did not measure {missing}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "wall_s": time.perf_counter() - started,
        "inputs": run.record,
        "runtime": runtime_meta(),
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }
    failures = run.checker.failures if run.checker is not None else []
    for failure in failures[:10]:
        print(f"check failed: {failure}", file=sys.stderr)
    # Refused or failed operations count in "failed"; a reply that fails a
    # check makes the run incorrect.
    correct = not failures
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failures,
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in expected
        },
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
