"""One cold BBST query at the paper's scale, on a parent and a change checkout.

    python3 benchmarks/paper_scale.py --output benchmarks/BENCH_19.json \\
        --parent ../parent-checkout

Runs one cold ``sample(t)`` of the BBST sampler on the NYC hotspot proxy at
``n = m`` (default ``10^7``, ``l = 100``, ``t = 10^5``, seed 1) in a fresh
process per checkout, the parent first.  Each run prints one JSON row:
seconds, the GM / UB / sampling split, iterations, the SHA-256 of the drawn
index pairs, peak RSS, and the RSS high-water mark at the end of each phase.  Every child runs under an
address-space limit (``ulimit -v``, ``--limit-mb``), so an overrun raises
``MemoryError`` in the child instead of waking the OOM killer.  The rows go
under ``paper_scale`` in ``--output``, beside what ``record.py`` stores
there.  Run it alone: a run takes up to a minute and several GB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Pairs drawn by the query, and the seed of its R/S split and its draws.
T = 100_000
SEED = 1

#: The query one child runs; ``{n}``, ``{t}`` and ``{seed}`` are filled in.
CHILD = """
import hashlib, json, resource, time
import numpy as np
from repro import JoinSpec, create_sampler, split_r_s
from repro.datasets import nyc_proxy

def hwm_mb():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM"))
    return int(line.split()[1]) / 1024.0

points = nyc_proxy(2 * {n})
r_points, s_points = split_r_s(points, np.random.default_rng({seed}))
del points
spec = JoinSpec(r_points=r_points, s_points=s_points, half_extent=100.0)
sampler = create_sampler("bbst", spec)
sampler.preprocess()
marks = {{"input": hwm_mb()}}
build, count = sampler._build, sampler._count

def timed_build():
    build()
    marks["gm"] = hwm_mb()

def timed_count():
    state = count()
    marks["ub"] = hwm_mb()
    return state

sampler._build, sampler._count = timed_build, timed_count
start = time.perf_counter()
result = sampler.sample({t}, seed={seed})
seconds = time.perf_counter() - start
marks["sampling"] = hwm_mb()
timings = result.timings
print("row " + json.dumps({{
    "n": spec.n, "m": spec.m, "t": {t}, "seed": {seed},
    "seconds": seconds,
    "gm_s": timings.build_seconds,
    "ub_s": timings.count_seconds,
    "sampling_s": timings.sample_seconds,
    "iterations": result.iterations,
    "pairs_digest": hashlib.sha256(result.index_pairs().tobytes()).hexdigest(),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "hwm_mb": marks,
}}))
"""


def parse_row(stdout: str) -> dict:
    """The JSON row of one child run (its last ``row`` line)."""
    rows = [line for line in stdout.splitlines() if line.startswith("row ")]
    if not rows:
        raise ValueError("the run printed no row line")
    return json.loads(rows[-1][len("row ") :])


def one_run(checkout: Path, n: int, limit_mb: int) -> dict:
    """Run the query in a fresh process on ``checkout``'s sources."""
    limit = limit_mb * 1024 * 1024

    def cap_address_space() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    completed = subprocess.run(
        [sys.executable, "-c", CHILD.format(n=n, t=T, seed=SEED)],
        cwd=checkout,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True,
        text=True,
        timeout=3_600,
        preexec_fn=cap_address_space,
    )
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": tail[0], "returncode": completed.returncode}
    return parse_row(completed.stdout)


def summary(rows: dict[str, dict]) -> dict:
    """Change against parent: peak RSS and seconds ratios, and whether the pairs match."""
    parent, change = rows["parent"], rows["change"]
    if "error" in parent or "error" in change:
        return {}
    return {
        "peak_rss_ratio": change["peak_rss_mb"] / parent["peak_rss_mb"],
        "seconds_ratio": change["seconds"] / parent["seconds"],
        "same_pairs": change["pairs_digest"] == parent["pairs_digest"]
        and change["iterations"] == parent["iterations"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--n", type=int, default=10_000_000, help="n = m (default 10^7)")
    parser.add_argument("--limit-mb", type=int, default=6_144, help="address-space cap per run")
    args = parser.parse_args(argv)

    rows: dict[str, dict] = {}
    for label, checkout in (("parent", args.parent), ("change", args.checkout)):
        rows[label] = one_run(checkout.resolve(), args.n, args.limit_mb)
        print(f"{label} " + json.dumps(rows[label]), flush=True)

    document = json.loads(args.output.read_text()) if args.output.exists() else {"sets": {}}
    document["paper_scale"] = {
        "query": {"dataset": "nyc", "n": args.n, "m": args.n, "l": 100.0, "t": T,
                  "seed": SEED, "limit_mb": args.limit_mb},
        "rows": rows,
        "summary": summary(rows),
    }
    args.output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0 if all("error" not in row for row in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
