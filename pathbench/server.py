"""The service process of the ``service-mixed`` workload.

Binds one tenant over the saved input snapshot on a manager whose artifact
directory holds the tenant's prepared state, so the first request attaches
it instead of building.  Prints ``port <n>`` once it listens, serves until
SIGTERM, then writes its peak resident set (and, when traced, its spans) to
``--out``.  A traced server toggles tracing on SIGUSR1.

    python3 pathbench/server.py --artifact DIR --tenant NAME --points DIR \\
        --half-extent 100 --out FILE --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Threads serving blocking sampler calls: no more than the cores.
EXECUTOR_THREADS = min(2, os.cpu_count() or 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", type=Path, required=True)
    parser.add_argument("--tenant", required=True)
    parser.add_argument("--points", type=Path, required=True)
    parser.add_argument("--half-extent", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from pathbench.tracing import Tracer, install
    from repro import ServiceConfig, ServiceCore, SessionManager, run_server
    from repro.datasets import load_points_npy

    tracer = Tracer()
    if args.trace:
        install(tracer, service=True)
        tracer.enabled = True
    r_points = load_points_npy(args.points / "r.npy", name=f"{args.tenant}-R")
    s_points = load_points_npy(args.points / "s.npy", name=f"{args.tenant}-S")
    manager = SessionManager(artifact_dir=args.artifact, name="pathbench")
    core = ServiceCore(
        manager, ServiceConfig(executor_threads=EXECUTOR_THREADS), own_manager=True
    )
    try:
        core.bind(args.tenant, r_points, s_points, args.half_extent, algorithm="bbst")

        def on_ready(server: object) -> None:
            if args.trace:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGUSR1, lambda: setattr(tracer, "enabled", not tracer.enabled)
                )
            print(f"port {server.port}", flush=True)

        asyncio.run(run_server(core, host="127.0.0.1", port=0, on_ready=on_ready))
    finally:
        core.close()
    tracer.enabled = False
    record = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": [span.row() for span in tracer.spans],
    }
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
