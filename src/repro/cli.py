"""Command-line interface.

``repro-spatial-join-sampling`` exposes the library to the shell:

* ``list`` - show the available experiments, dataset proxies and algorithms.
* ``experiment <id>`` - run one table/figure reproduction and print its rows.
* ``all`` - run every experiment and optionally write a markdown report.
* ``sample`` - serve sampling requests from a dataset proxy through a
  :class:`~repro.api.session.SamplingSession` (repeat requests reuse the
  cached structures) and print the pairs (or write them to CSV); with
  ``--artifact`` the session warm-starts from a ``build`` directory.
* ``build`` - run the prepare phase once and persist the result as a
  versioned artifact directory (:mod:`repro.artifacts`): manifest JSON
  plus raw array blobs, alongside exact binary snapshots of the input
  points.  ``sample``/``serve`` attach the blobs via ``np.memmap``
  instead of rebuilding, with bit-identical draws.
* ``plan`` - show which algorithm ``--algorithm auto`` would pick for a
  workload, and why (``--update-heavy`` restricts it to maintainable ones).
* ``update`` - stream rounds of point insertions/deletions through
  ``SamplingSession.update`` (the dynamic-update engine) while serving
  draws, printing the per-round update throughput.
* ``manage`` - serve several dataset proxies as tenants of one
  :class:`~repro.manager.SessionManager` under an optional memory budget,
  printing per-tenant draw times and the manager's eviction/pool stats.
* ``serve`` - expose dataset proxies over HTTP through the async sampling
  service (:mod:`repro.service`): concurrent draw requests are coalesced
  into bit-identical batches, admission control sheds overload with 503,
  and ``GET /v1/stats`` exports JSON or Prometheus metrics.

Algorithms are resolved from the sampler registry
(:mod:`repro.core.registry`), so a sampler registered with
``@register_sampler`` is immediately available to ``--algorithm``.

Examples
--------
.. code-block:: console

   $ repro-spatial-join-sampling list
   $ repro-spatial-join-sampling experiment table3 --scale smoke
   $ repro-spatial-join-sampling sample --dataset nyc --algorithm auto -t 1000
   $ repro-spatial-join-sampling sample --dataset nyc --repeat 5 -t 10000
   $ repro-spatial-join-sampling build --dataset castreet --artifact ./warm
   $ repro-spatial-join-sampling sample --dataset castreet --artifact ./warm
   $ repro-spatial-join-sampling plan --dataset castreet --half-extent 100
   $ repro-spatial-join-sampling manage --datasets castreet foursquare nyc \
       --budget-mb 2 --rounds 3 -t 1000
   $ repro-spatial-join-sampling serve --dataset castreet foursquare \
       --port 8723 --window-ms 2 --max-in-flight 256
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.api.session import SamplingSession
from repro.bench.reporting import format_table, rows_to_csv
from repro.bench.runner import EXPERIMENTS, run_all_experiments, run_experiment
from repro.bench.workloads import DEFAULT_HALF_EXTENT, ExperimentScale
from repro.core.registry import sampler_entries, sampler_names
from repro.datasets.partition import split_r_s
from repro.datasets.real_proxies import DATASET_NAMES, DEFAULT_PROXY_SIZES, load_proxy

__all__ = ["main", "build_parser"]


def _algorithm_choices() -> list[str]:
    """``auto`` plus every registered sampler name (the registry is the truth)."""
    return ["auto", *sampler_names()]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-spatial-join-sampling",
        description="Random sampling over spatial range joins (ICDE 2025) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiments, datasets and algorithms")

    experiment = subparsers.add_parser("experiment", help="run one experiment by id")
    experiment.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--scale", choices=[s.value for s in ExperimentScale], default="smoke"
    )
    experiment.add_argument("--datasets", nargs="*", default=None)
    experiment.add_argument("--csv", type=Path, default=None, help="write rows as CSV")

    run_all = subparsers.add_parser("all", help="run every experiment")
    run_all.add_argument(
        "--scale", choices=[s.value for s in ExperimentScale], default="smoke"
    )
    run_all.add_argument("--datasets", nargs="*", default=None)
    run_all.add_argument("--output", type=Path, default=None, help="markdown report path")
    run_all.add_argument(
        "--experiments",
        nargs="*",
        choices=sorted(EXPERIMENTS),
        default=None,
        help="subset of experiment ids to run (default: all)",
    )

    sample = subparsers.add_parser(
        "sample",
        help="serve sampling requests from a dataset proxy via a SamplingSession",
    )
    sample.add_argument("--dataset", choices=DATASET_NAMES, default="castreet")
    sample.add_argument("--size", type=int, default=None, help="proxy size (points)")
    sample.add_argument("--algorithm", choices=_algorithm_choices(), default="bbst")
    sample.add_argument("-t", "--num-samples", type=int, default=1000)
    sample.add_argument("--half-extent", type=float, default=DEFAULT_HALF_EXTENT)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker/shard count for the parallel engine "
        "(>= 2 shards the build/count phases across processes, "
        "0 lets the planner pick, default: serial)",
    )
    sample.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve this many draw requests on one session (shows amortisation)",
    )
    sample.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="stream each request in chunks of this many pairs",
    )
    sample.add_argument(
        "--kernel-backend",
        choices=["numpy", "numba", "auto"],
        default=None,
        help="kernel backend for the hot loops (numpy = reference twin, "
        "numba = compiled, auto = numba when available; draws are "
        "bit-identical either way; default: REPRO_KERNEL_BACKEND or auto)",
    )
    sample.add_argument(
        "--profile",
        action="store_true",
        help="print the session's phase seconds (prepare, or load when "
        "attached from --artifact, and sample) after the requests",
    )
    sample.add_argument("--output", type=Path, default=None, help="write pairs as CSV")
    sample.add_argument(
        "--artifact",
        type=Path,
        default=None,
        help="warm-start from a `build` artifact root: the points and the "
        "prepared structures are attached from <root>/<dataset> (blobs are "
        "memory-mapped, draws are bit-identical to a fresh build)",
    )

    build = subparsers.add_parser(
        "build",
        help="run the prepare phase once and persist it as a warm-start "
        "artifact directory (sample/serve attach it with --artifact)",
    )
    build.add_argument("--dataset", choices=DATASET_NAMES, default="castreet")
    build.add_argument("--size", type=int, default=None, help="proxy size (points)")
    build.add_argument("--algorithm", choices=_algorithm_choices(), default="bbst")
    build.add_argument("--half-extent", type=float, default=DEFAULT_HALF_EXTENT)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker/shard count for the parallel engine (the artifact "
        "records the shard layout; >= 2 builds across processes, 0 lets "
        "the planner pick, default: serial)",
    )
    build.add_argument(
        "--kernel-backend",
        choices=["numpy", "numba", "auto"],
        default=None,
        help="kernel backend for the build (not pinned in the artifact: "
        "attaching re-resolves the backend on the loading host)",
    )
    build.add_argument(
        "--profile",
        action="store_true",
        help="print the prepare phase seconds after the build",
    )
    build.add_argument(
        "--artifact",
        type=Path,
        required=True,
        help="artifact root; this build writes <root>/<dataset>",
    )

    plan = subparsers.add_parser(
        "plan", help="explain which algorithm `auto` picks for a workload"
    )
    plan.add_argument("--dataset", choices=DATASET_NAMES, default="castreet")
    plan.add_argument("--size", type=int, default=None, help="proxy size (points)")
    plan.add_argument("--half-extent", type=float, default=DEFAULT_HALF_EXTENT)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument(
        "--update-heavy",
        action="store_true",
        help="plan for a workload that mutates (R, S) between requests "
        "(restricts the choice to incrementally maintainable algorithms)",
    )
    plan.add_argument(
        "--kernel-backend",
        choices=["numpy", "numba", "auto"],
        default=None,
        help="kernel backend the report records (default: "
        "REPRO_KERNEL_BACKEND or auto)",
    )

    update = subparsers.add_parser(
        "update",
        help="serve draws while streaming point insertions/deletions through "
        "SamplingSession.update (the dynamic-update engine)",
    )
    update.add_argument("--dataset", choices=DATASET_NAMES, default="castreet")
    update.add_argument("--size", type=int, default=None, help="proxy size (points)")
    update.add_argument(
        "--algorithm",
        choices=_algorithm_choices(),
        default="bbst",
        help="algorithm to maintain (maintainable ones keep their structures; "
        "others are rebuilt per round)",
    )
    update.add_argument("--half-extent", type=float, default=DEFAULT_HALF_EXTENT)
    update.add_argument("--seed", type=int, default=0)
    update.add_argument(
        "--rounds", type=int, default=5, help="number of update+draw rounds"
    )
    update.add_argument(
        "--batch",
        type=int,
        default=200,
        help="points inserted and deleted per round (alternating R/S sides)",
    )
    update.add_argument("-t", "--num-samples", type=int, default=1_000)

    manage = subparsers.add_parser(
        "manage",
        help="serve several dataset proxies as tenants of one SessionManager "
        "under an optional memory budget",
    )
    manage.add_argument(
        "--datasets",
        nargs="+",
        choices=DATASET_NAMES,
        default=["castreet", "foursquare"],
        help="one tenant is opened per dataset proxy",
    )
    manage.add_argument("--size", type=int, default=None, help="proxy size (points)")
    manage.add_argument("--algorithm", choices=_algorithm_choices(), default="auto")
    manage.add_argument("--half-extent", type=float, default=DEFAULT_HALF_EXTENT)
    manage.add_argument("--seed", type=int, default=0)
    manage.add_argument("-t", "--num-samples", type=int, default=1_000)
    manage.add_argument(
        "--rounds", type=int, default=3, help="draw rounds over all tenants"
    )
    manage.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="memory budget (MiB) across every tenant's prepared structures; "
        "the manager evicts cost-aware-LRU entries to stay under it "
        "(default: unlimited)",
    )
    manage.add_argument(
        "--workers",
        type=int,
        default=None,
        help="capacity of the shared worker pool all tenants lease from",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve dataset proxies over HTTP: coalesced draws, admission "
        "control, /v1/stats metrics (stdlib asyncio, graceful SIGTERM drain)",
    )
    serve.add_argument(
        "--dataset",
        dest="datasets",
        nargs="+",
        choices=DATASET_NAMES,
        default=["castreet"],
        help="one tenant is bound per dataset proxy (tenant id = dataset name)",
    )
    serve.add_argument("--size", type=int, default=None, help="proxy size (points)")
    serve.add_argument("--algorithm", choices=_algorithm_choices(), default="auto")
    serve.add_argument("--half-extent", type=float, default=DEFAULT_HALF_EXTENT)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8723, help="listen port (0 picks a free one)"
    )
    serve.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="manager memory budget (MiB) across all tenants (default: unlimited)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="capacity of the worker pool the tenants lease from",
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="coalescing window: concurrent same-entry draws arriving within "
        "this many milliseconds are served as one batch",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="a pending coalesce batch flushes immediately at this size",
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=256,
        help="admitted requests executing at once; more wait in the queue",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=1024,
        help="requests allowed to wait for admission; beyond this the "
        "service fast-fails with 503 + Retry-After",
    )
    serve.add_argument(
        "--quota",
        type=int,
        default=None,
        help="per-tenant cap on admitted in-flight requests (default: none)",
    )
    serve.add_argument(
        "--exit-after",
        type=float,
        default=None,
        help="serve for this many seconds, then drain and exit (smoke tests; "
        "default: run until SIGTERM/SIGINT)",
    )
    serve.add_argument(
        "--artifact",
        type=Path,
        default=None,
        help="artifact root for warm starts: each tenant attaches prepared "
        "state from <root>/<tenant> when present (and saved point snapshots "
        "are preferred over regenerating the proxy); evicted or expired "
        "entries are saved back before being dropped",
    )

    return parser


def _session_jobs(args: argparse.Namespace) -> int | None:
    return getattr(args, "jobs", None)


def _command_list() -> int:
    print("Experiments:")
    for key, (title, _runner) in EXPERIMENTS.items():
        print(f"  {key:12s} {title}")
    print("\nDataset proxies (default sizes):")
    for name in DATASET_NAMES:
        print(f"  {name:12s} {DEFAULT_PROXY_SIZES[name]} points")
    print("\nAlgorithms (auto picks one of these per workload):")
    for entry in sampler_entries():
        print(f"  {entry.name:18s} {entry.summary}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    rows = run_experiment(
        args.experiment_id,
        scale=ExperimentScale(args.scale),
        datasets=args.datasets,
    )
    title = EXPERIMENTS[args.experiment_id][0]
    print(format_table(rows, title=title))
    if args.csv is not None:
        args.csv.write_text(rows_to_csv(rows))
        print(f"\nwrote {args.csv}")
    return 0


def _command_all(args: argparse.Namespace) -> int:
    run_all_experiments(
        scale=ExperimentScale(args.scale),
        datasets=args.datasets,
        output_path=args.output,
        echo=True,
        experiment_ids=args.experiments,
    )
    if args.output is not None:
        print(f"wrote {args.output}")
    return 0


def _open_session(args: argparse.Namespace) -> SamplingSession:
    rng = np.random.default_rng(args.seed)
    points = load_proxy(args.dataset, size=args.size)
    r_points, s_points = split_r_s(points, rng)
    return SamplingSession(  # repro-lint: disable=RL004 (CLI one-shot: session lifecycle ends with the process)
        r_points,
        s_points,
        half_extent=args.half_extent,
        algorithm=args.algorithm,
        jobs=_session_jobs(args),
        eager=False,
        backend=getattr(args, "kernel_backend", None),
    )


def _load_artifact_points(session_dir: Path, dataset: str):
    """The exact input snapshot a ``build`` run saved next to its artifact."""
    from repro.datasets.loaders import load_points_npy

    r_points = load_points_npy(session_dir / "points_r.npy", name=f"{dataset}-R")
    s_points = load_points_npy(session_dir / "points_s.npy", name=f"{dataset}-S")
    return r_points, s_points


def _open_warm_session(args: argparse.Namespace) -> SamplingSession:
    """Attach a session to a ``build`` artifact instead of rebuilding."""
    session_dir = Path(args.artifact) / args.dataset
    r_points, s_points = _load_artifact_points(session_dir, args.dataset)
    return SamplingSession.load(
        session_dir,
        r_points,
        s_points,
        half_extent=args.half_extent,
        algorithm=args.algorithm,
        jobs=_session_jobs(args),
        eager=False,
        backend=getattr(args, "kernel_backend", None),
    )


def _print_profile(session: SamplingSession) -> None:
    """Phase seconds from the session's stats (``load`` after an artifact attach)."""
    stats = session.stats
    print("profile (seconds per phase):")
    if stats.warm_loads:
        print(f"  load     {stats.prepare_seconds:.6f}s (artifact attach, no rebuild)")
    else:
        print(f"  prepare  {stats.prepare_seconds:.6f}s (offline + build + count)")
    if stats.requests:
        print(f"  sample   {stats.sample_seconds:.6f}s over {stats.requests} requests")


def _command_sample(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        print("error: --repeat must be at least 1", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 0:
        print("error: --jobs must be >= 0", file=sys.stderr)
        return 2
    from repro.errors import ArtifactError, KernelBackendError

    try:
        if args.artifact is not None:
            session = _open_warm_session(args)
            print(f"artifact: attached {session.artifact_dir}")
        else:
            session = _open_session(args)
    except KernelBackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, OSError, ValueError) as exc:
        print(f"error: --artifact: {exc}", file=sys.stderr)
        return 2
    if args.kernel_backend is not None or args.profile:
        print(f"kernel backend: {session.kernel_backend}")
    if args.algorithm == "auto":
        report = session.plan()
        print(f"auto planner picked {report.algorithm} (rule: {report.rule})")
    if args.jobs == 0:
        print(f"auto planner recommends jobs={session.plan().jobs}")
    elif args.jobs is not None and args.jobs > 1:
        print(f"shard-parallel engine enabled (jobs={args.jobs})")

    result = None
    for request in range(args.repeat):
        seed = args.seed + request
        if args.chunk_size is not None:
            # The last request streams into the CSV when --output is given;
            # chunks are never accumulated, so memory stays O(chunk_size).
            sink = None
            if args.output is not None and request == args.repeat - 1:
                sink = args.output.open("w")
                sink.write("r_id,s_id\n")
            total = 0
            for chunk in session.stream(
                args.num_samples, chunk_size=args.chunk_size, seed=seed
            ):
                total += len(chunk)
                if sink is not None:
                    sink.writelines(f"{p.r_id},{p.s_id}\n" for p in chunk)
            if sink is not None:
                sink.close()
                print(f"wrote {args.output}")
            sampler = session.resolve()
            print(
                f"request {request + 1}: {sampler.name}: {total} samples "
                f"streamed in chunks of {args.chunk_size}"
            )
        else:
            result = session.draw(args.num_samples, seed=seed)
            timings = result.timings
            print(
                f"request {request + 1}: {result.sampler_name}: {len(result)} samples "
                f"in {timings.total_seconds:.3f}s "
                f"(build {timings.build_seconds:.3f}s, count {timings.count_seconds:.3f}s, "
                f"sample {timings.sample_seconds:.3f}s, "
                f"acceptance rate {result.acceptance_rate:.3f})"
            )
    if args.repeat > 1:
        stats = session.stats
        print(
            f"session: {stats.requests} requests, {stats.pairs_drawn} pairs, "
            f"prepare {stats.prepare_seconds:.3f}s (paid once), "
            f"sampling {stats.sample_seconds:.3f}s"
        )
    if args.artifact is not None:
        print(
            f"warm start: {session.stats.warm_loads} prepared "
            f"entries attached from disk (no rebuild)"
        )
    if args.profile:
        _print_profile(session)
    if result is None:
        return 0
    if args.output is not None:
        lines = ["r_id,s_id"] + [f"{r},{s}" for r, s in result.id_pairs()]
        args.output.write_text("\n".join(lines) + "\n")
        print(f"wrote {args.output}")
    else:
        preview = result.id_pairs()[:10]
        for r_id, s_id in preview:
            print(f"  ({r_id}, {s_id})")
        if len(result) > len(preview):
            print(f"  ... {len(result) - len(preview)} more pairs")
    return 0


def _command_build(args: argparse.Namespace) -> int:
    import time

    from repro.datasets.loaders import save_points_npy
    from repro.errors import ArtifactError, KernelBackendError

    if args.jobs is not None and args.jobs < 0:
        print("error: --jobs must be >= 0", file=sys.stderr)
        return 2
    try:
        session = _open_session(args)
    except KernelBackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.algorithm == "auto":
            report = session.plan()
            print(f"auto planner picked {report.algorithm} (rule: {report.rule})")
        if args.jobs is not None and args.jobs > 1:
            print(f"shard-parallel engine enabled (jobs={args.jobs})")
        start = time.perf_counter()
        sampler = session.prepare()
        prepare_seconds = time.perf_counter() - start
        session_dir = Path(args.artifact) / args.dataset
        start = time.perf_counter()
        try:
            target = session.save(session_dir)
        except (ArtifactError, OSError) as exc:
            print(f"error: could not write artifact: {exc}", file=sys.stderr)
            return 2
        save_points_npy(session.r_points, session_dir / "points_r.npy")
        save_points_npy(session.s_points, session_dir / "points_s.npy")
        save_seconds = time.perf_counter() - start
        print(
            f"built {sampler.name} over {args.dataset} "
            f"(n={session.n:,}, m={session.m:,}) in {prepare_seconds:.3f}s"
        )
        print(
            f"artifact: {target} "
            f"({sampler.index_nbytes() / 1024 / 1024:.2f} MiB prepared state, "
            f"written in {save_seconds:.3f}s)"
        )
        print(
            "attach it with: sample/serve --dataset "
            f"{args.dataset} --artifact {args.artifact}"
        )
        if args.profile:
            _print_profile(session)
    finally:
        session.close()
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    points = load_proxy(args.dataset, size=args.size)
    r_points, s_points = split_r_s(points, rng)
    if args.update_heavy:
        from repro.api.planner import plan_algorithm
        from repro.core.config import JoinSpec

        spec = JoinSpec(
            r_points=r_points, s_points=s_points, half_extent=args.half_extent
        )
        print(f"dataset: {args.dataset} (n={spec.n:,}, m={spec.m:,}, update-heavy)")
        print(
            plan_algorithm(
                spec, update_heavy=True, kernel_backend=args.kernel_backend
            ).explain()
        )
        return 0
    session = SamplingSession(  # repro-lint: disable=RL004 (CLI one-shot: session lifecycle ends with the process)
        r_points,
        s_points,
        half_extent=args.half_extent,
        eager=False,
        backend=args.kernel_backend,
    )
    print(f"dataset: {args.dataset} (n={session.n:,}, m={session.m:,})")
    print(session.plan().explain())
    return 0


def _command_update(args: argparse.Namespace) -> int:
    import time

    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return 2
    if args.batch < 2:
        print("error: --batch must be at least 2", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    session = _open_session(args)
    first = session.draw(args.num_samples, seed=args.seed)
    print(
        f"opened: {first.sampler_name}: {len(first)} samples in "
        f"{first.timings.total_seconds:.3f}s (build+count paid once)"
    )
    changed = 0
    for round_index in range(args.rounds):
        side = "s" if round_index % 2 == 0 else "r"
        points = session.s_points if side == "s" else session.r_points
        deletions = min(args.batch // 2, max(0, len(points) - 1))
        insertions = args.batch - deletions
        delete_ids = rng.choice(points.ids, size=deletions, replace=False)
        ins_xs = rng.uniform(0.0, 10_000.0, size=insertions)
        ins_ys = rng.uniform(0.0, 10_000.0, size=insertions)
        start = time.perf_counter()
        report = session.update(side, insert=(ins_xs, ins_ys), delete=delete_ids)
        update_seconds = time.perf_counter() - start
        changed += insertions + deletions
        result = session.draw(args.num_samples, seed=args.seed + round_index + 1)
        print(
            f"round {round_index + 1}: {side.upper()} +{report['inserted']} "
            f"-{report['deleted']} in {update_seconds * 1e3:.1f}ms "
            f"({(insertions + deletions) / max(update_seconds, 1e-9):,.0f} updates/s), "
            f"then {len(result)} draws in {result.timings.sample_seconds * 1e3:.1f}ms "
            f"(maintained {len(report['maintained'])}, "
            f"resharded {len(report['resharded'])}, "
            f"dropped {len(report['dropped'])} engines)"
        )
    stats = session.stats
    print(
        f"session: {stats.updates} update batches ({changed} points changed) in "
        f"{stats.update_seconds:.3f}s, {stats.requests} draw requests, "
        f"n={session.n:,} m={session.m:,}"
    )
    return 0


def _command_manage(args: argparse.Namespace) -> int:
    import time

    from repro.manager import SessionManager

    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return 2
    if args.budget_mb is not None and args.budget_mb <= 0:
        print("error: --budget-mb must be positive", file=sys.stderr)
        return 2
    budget = (
        int(args.budget_mb * 1024 * 1024) if args.budget_mb is not None else None
    )
    manager = SessionManager(
        memory_budget=budget, max_workers=args.workers, name="cli"
    )
    try:
        handles = {}
        for index, dataset in enumerate(args.datasets):
            rng = np.random.default_rng(args.seed + index)
            points = load_proxy(dataset, size=args.size)
            r_points, s_points = split_r_s(points, rng)
            handles[dataset] = manager.open(
                dataset,
                r_points,
                s_points,
                args.half_extent,
                algorithm=args.algorithm,
            )
            print(
                f"opened tenant {dataset!r} (n={len(r_points):,}, m={len(s_points):,})"
            )
        for round_index in range(args.rounds):
            for index, (dataset, handle) in enumerate(handles.items()):
                start = time.perf_counter()
                result = handle.draw(
                    args.num_samples, seed=args.seed + 97 * round_index + index
                )
                seconds = time.perf_counter() - start
                print(
                    f"round {round_index + 1}: {dataset}: {len(result)} samples "
                    f"via {result.sampler_name} in {seconds:.3f}s "
                    f"(tracked {manager.tracked_nbytes() / 1024 / 1024:.2f} MiB)"
                )
        stats = manager.stats()
        budget_text = (
            f"{stats['memory_budget'] / 1024 / 1024:.2f} MiB"
            if stats["memory_budget"] is not None
            else "unlimited"
        )
        print(
            f"manager: budget {budget_text}, "
            f"peak tracked {stats['peak_tracked_nbytes'] / 1024 / 1024:.2f} MiB, "
            f"{stats['manager_evictions']} evictions, "
            f"{stats['prepare_hits']} prepare hits / "
            f"{stats['prepare_misses']} misses"
        )
        pool = stats["pool"]
        print(
            f"pool: capacity {pool['capacity']}, peak leased {pool['peak_leased']}, "
            f"{pool['granted']} leases granted / {pool['denied']} denied"
        )
        for tenant_id, tenant in sorted(stats["tenants"].items()):
            print(
                f"  tenant {tenant_id}: {tenant['bytes'] / 1024 / 1024:.2f} MiB cached, "
                f"{len(tenant['cached_keys'])} entries, "
                f"{tenant['stats'].get('requests', 0)} requests"
            )
    finally:
        manager.close()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import InvalidSpecError
    from repro.manager import SessionManager
    from repro.service import ServiceConfig, ServiceCore, run_server

    if args.budget_mb is not None and args.budget_mb <= 0:
        print("error: --budget-mb must be positive", file=sys.stderr)
        return 2
    budget = (
        int(args.budget_mb * 1024 * 1024) if args.budget_mb is not None else None
    )
    try:
        config = ServiceConfig(
            coalesce_window=args.window_ms / 1e3,
            coalesce_max_batch=args.max_batch,
            max_in_flight=args.max_in_flight,
            max_queued=args.max_queued,
            per_tenant_in_flight=args.quota,
        )
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manager = SessionManager(
        memory_budget=budget,
        max_workers=args.workers,
        name="serve",
        artifact_dir=args.artifact,
    )
    core = ServiceCore(manager, config, own_manager=True)
    try:
        from repro.errors import ArtifactError

        if args.artifact is not None:
            print(f"warm-start artifacts: {args.artifact}")
        for index, dataset in enumerate(args.datasets):
            source = "proxy"
            r_points = s_points = None
            if args.artifact is not None:
                session_dir = Path(args.artifact) / dataset
                if (session_dir / "points_r.npy").exists():
                    try:
                        r_points, s_points = _load_artifact_points(
                            session_dir, dataset
                        )
                        source = "artifact snapshot"
                    except (OSError, ValueError) as exc:
                        print(f"error: --artifact: {exc}", file=sys.stderr)
                        return 2
            if r_points is None:
                rng = np.random.default_rng(args.seed + index)
                points = load_proxy(dataset, size=args.size)
                r_points, s_points = split_r_s(points, rng)
            try:
                core.bind(
                    dataset, r_points, s_points, args.half_extent,
                    algorithm=args.algorithm,
                )
            except ArtifactError as exc:
                print(
                    f"error: stale/corrupt artifact for tenant {dataset!r}: "
                    f"{exc}",
                    file=sys.stderr,
                )
                return 2
            print(
                f"bound tenant {dataset!r} (n={len(r_points):,}, "
                f"m={len(s_points):,}, algorithm={args.algorithm}, "
                f"points from {source})"
            )

        def on_ready(server: object) -> None:
            print(
                f"serving on http://{server.host}:{server.port} "
                f"(window {args.window_ms:g}ms, max batch {args.max_batch}, "
                f"{args.max_in_flight} in flight / {args.max_queued} queued)"
            )
            print("endpoints: POST /v1/draw /v1/draw_distinct /v1/update /v1/plan; "
                  "GET /v1/stats /healthz")
            sys.stdout.flush()

        asyncio.run(
            run_server(
                core,
                host=args.host,
                port=args.port,
                exit_after=args.exit_after,
                on_ready=on_ready,
            )
        )
        stats = core.stats()["service"]
        print(
            f"drained: {stats['requests_total']} requests, "
            f"{stats['coalesced_batches_total']} batches "
            f"(ratio {stats['coalescing_ratio']:.2f}), "
            f"{stats['rejections_total']} rejected"
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C before loop
        pass
    finally:
        core.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "all":
        return _command_all(args)
    if args.command == "sample":
        return _command_sample(args)
    if args.command == "build":
        return _command_build(args)
    if args.command == "plan":
        return _command_plan(args)
    if args.command == "update":
        return _command_update(args)
    if args.command == "manage":
        return _command_manage(args)
    if args.command == "serve":
        return _command_serve(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
