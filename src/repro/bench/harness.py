"""One ``run_*`` function per table / figure of the paper's evaluation.

Every function returns a list of flat row dictionaries; the CLI and
:mod:`repro.bench.runner` render them with :mod:`repro.bench.reporting`.
The mapping to the paper is:

========================================  ==========================
function                                  paper artefact
========================================  ==========================
:func:`run_table2_preprocessing`          Table II
:func:`run_fig4_memory`                   Fig. 4
:func:`run_accuracy_experiment`           Section V-B accuracy text
:func:`run_table3_decomposed_times`       Table III
:func:`run_table4_sampling`               Table IV
:func:`run_fig5_range_size`               Fig. 5
:func:`run_fig6_num_samples`              Fig. 6
:func:`run_fig7_dataset_size`             Fig. 7
:func:`run_fig8_size_ratio`               Fig. 8
:func:`run_fig9_bbst_vs_cell_kdtree`      Fig. 9
:func:`run_bucket_capacity_ablation`      Definition 3 bucket size (extra)
:func:`run_join_then_sample_crossover`    Section I motivation (extra)
:func:`run_uniformity_experiment`         correctness (extra)
========================================  ==========================
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.api.session import SamplingSession
from repro.errors import InvalidSpecError
from repro.manager import SessionManager
from repro.bench.workloads import (
    ExperimentScale,
    WorkloadConfig,
    build_join_spec,
    default_workloads,
)
from repro.core.base import JoinSampler, JoinSampleResult
from repro.core.config import JoinSpec
from repro.core.full_join import join_size, spatial_range_join
from repro.core.registry import create_sampler, get_sampler, sampler_names
from repro.datasets.partition import split_r_s
from repro.datasets.synthetic import uniform_points
from repro.dynamic.sampler import DynamicSampler
from repro.parallel.sharded import ShardedSampler
from repro.stats.accuracy import counting_accuracy_report
from repro.stats.uniformity import uniformity_report

__all__ = [
    "run_table2_preprocessing",
    "run_table3_decomposed_times",
    "run_table4_sampling",
    "run_vectorization_speedup",
    "run_session_reuse",
    "run_kernel_speedup",
    "run_parallel_speedup",
    "run_update_throughput",
    "run_manager_multitenancy",
    "run_baseline_comparison",
    "run_fig4_memory",
    "run_fig5_range_size",
    "run_fig6_num_samples",
    "run_fig7_dataset_size",
    "run_fig8_size_ratio",
    "run_fig9_bbst_vs_cell_kdtree",
    "run_bucket_capacity_ablation",
    "run_join_then_sample_crossover",
    "run_accuracy_experiment",
    "run_uniformity_experiment",
]

Row = dict[str, Any]


def _comparison_factories() -> tuple[Callable[[JoinSpec], JoinSampler], ...]:
    """The algorithms the paper compares in most experiments (Tables III/IV).

    Resolved from the sampler registry by tag so that the harness, the CLI and
    the CI gate all share one algorithm table.
    """
    return tuple(get_sampler(name).factory for name in sampler_names(tag="comparison"))


def _workloads_or_default(
    workloads: Sequence[WorkloadConfig] | None,
    scale: ExperimentScale,
    datasets: Sequence[str] | None,
) -> list[WorkloadConfig]:
    if workloads is not None:
        return list(workloads)
    return default_workloads(scale, datasets)


def _run_sampler(
    factory: Callable[[JoinSpec], JoinSampler],
    spec: JoinSpec,
    num_samples: int,
    seed: int,
) -> tuple[JoinSampler, JoinSampleResult]:
    sampler = factory(spec)
    result = sampler.sample(num_samples, seed=seed)
    return sampler, result


# ----------------------------------------------------------------------
# Table II - pre-processing time
# ----------------------------------------------------------------------
def run_table2_preprocessing(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
) -> list[Row]:
    """Offline preprocessing seconds: kd-tree build (KDS) vs x-sort (BBST)."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        spec = build_join_spec(config)
        kds = create_sampler("kds", spec)
        bbst = create_sampler("bbst", spec)
        rows.append(
            {
                "dataset": config.dataset,
                "n": spec.n,
                "m": spec.m,
                "kds_preprocess_seconds": kds.preprocess(),
                "bbst_preprocess_seconds": bbst.preprocess(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Tables III and IV - total / decomposed times and sampling statistics
# ----------------------------------------------------------------------
def run_baseline_comparison(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
    seed: int = 11,
) -> list[Row]:
    """Full comparison rows shared by Table III and Table IV."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        spec = build_join_spec(config)
        t = config.num_samples if num_samples is None else num_samples
        for factory in _comparison_factories():
            sampler, result = _run_sampler(factory, spec, t, seed)
            timings = result.timings
            rows.append(
                {
                    "dataset": config.dataset,
                    "algorithm": sampler.name,
                    "n": spec.n,
                    "m": spec.m,
                    "t": t,
                    "total_seconds": timings.total_seconds,
                    "gm_seconds": timings.build_seconds,
                    "ub_seconds": timings.count_seconds,
                    "sampling_seconds": timings.sample_seconds,
                    "iterations": result.iterations,
                    "accepted": len(result),
                    "acceptance_rate": result.acceptance_rate,
                }
            )
    return rows


def run_table3_decomposed_times(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
) -> list[Row]:
    """Table III: total, grid-mapping and upper-bounding seconds per algorithm."""
    rows = run_baseline_comparison(workloads, scale, datasets, num_samples)
    return [
        {
            "dataset": row["dataset"],
            "algorithm": row["algorithm"],
            "total_seconds": row["total_seconds"],
            "gm_seconds": row["gm_seconds"],
            "ub_seconds": row["ub_seconds"],
        }
        for row in rows
    ]


def run_table4_sampling(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
) -> list[Row]:
    """Table IV: sampling seconds and number of sampling iterations."""
    rows = run_baseline_comparison(workloads, scale, datasets, num_samples)
    return [
        {
            "dataset": row["dataset"],
            "algorithm": row["algorithm"],
            "t": row["t"],
            "sampling_seconds": row["sampling_seconds"],
            "iterations": row["iterations"],
        }
        for row in rows
    ]


# ----------------------------------------------------------------------
# Batch engine - sampling-phase speedup of the vectorised paths
# ----------------------------------------------------------------------
def run_vectorization_speedup(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
    seed: int = 37,
) -> list[Row]:
    """Sampling-phase wall-clock of the vectorised engine vs the scalar path.

    The scalar reference runs the same pre-drawn variate schedule with
    ``batch_size=1`` and ``vectorized=False`` - the one-attempt-at-a-time
    processing the batch engine replaced.  Only the rejection-based samplers
    are compared (BBST and KDS-rejection); their sampling phases are the
    paper's headline online cost.
    """
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        spec = build_join_spec(config)
        t = config.num_samples if num_samples is None else num_samples
        for name in ("bbst", "kds-rejection"):
            vectorized = create_sampler(name, spec).sample(t, seed=seed)
            scalar = create_sampler(
                name, spec, batch_size=1, vectorized=False
            ).sample(t, seed=seed)
            vec_seconds = vectorized.timings.sample_seconds
            scalar_seconds = scalar.timings.sample_seconds
            rows.append(
                {
                    "dataset": config.dataset,
                    "algorithm": vectorized.sampler_name,
                    "n": spec.n,
                    "m": spec.m,
                    "t": t,
                    "vectorized_sampling_seconds": vec_seconds,
                    "scalar_sampling_seconds": scalar_seconds,
                    "sampling_speedup": scalar_seconds / max(vec_seconds, 1e-9),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Session API - amortisation of the build/count phases across requests
# ----------------------------------------------------------------------
def run_session_reuse(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
    requests: int = 6,
    seed: int = 41,
) -> list[Row]:
    """N ``draw()`` requests on one session vs N one-shot ``sample()`` calls.

    The one-shot path constructs a fresh sampler per request and therefore
    pays the offline + build + count phases every time; the session prepares
    them once and serves every later request from the cache.  The row also
    records the build/count timings of the *last* session request, which must
    be ~0 once the ``(algorithm, half_extent)`` key is cached.
    """
    if requests < 2:
        raise InvalidSpecError("requests must be at least 2 to show any reuse")
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        spec = build_join_spec(config)
        t = config.num_samples if num_samples is None else num_samples
        for name in sampler_names(tag="comparison"):
            session = SamplingSession.from_spec(spec, algorithm=name, eager=False)
            start = time.perf_counter()
            for request in range(requests):
                last = session.draw(t, seed=seed + request)
            session_seconds = time.perf_counter() - start

            start = time.perf_counter()
            for request in range(requests):
                create_sampler(name, spec).sample(t, seed=seed + request)
            oneshot_seconds = time.perf_counter() - start

            rows.append(
                {
                    "dataset": config.dataset,
                    "algorithm": name,
                    "n": spec.n,
                    "m": spec.m,
                    "t": t,
                    "requests": requests,
                    "session_seconds": session_seconds,
                    "oneshot_seconds": oneshot_seconds,
                    "speedup": oneshot_seconds / max(session_seconds, 1e-9),
                    "cached_build_seconds": last.timings.build_seconds,
                    "cached_count_seconds": last.timings.count_seconds,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Kernels - compiled backend sampling-phase speedup over the numpy twin
# ----------------------------------------------------------------------

#: ``n = m`` sizes of the kernel experiment per scale (the PAPER sweep is the
#: issue's committed ladder up to the first 10^7-point run).
_KERNEL_SCALE_SIZES: dict[ExperimentScale, tuple[int, ...]] = {
    ExperimentScale.SMOKE: (20_000,),
    ExperimentScale.PAPER: (100_000, 1_000_000, 10_000_000),
}

#: Window half-extent of the kernel experiment (the paper's default l=100).
KERNEL_HALF_EXTENT = 100.0


def run_kernel_speedup(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    sizes: Sequence[int] | None = None,
    num_samples: int | None = None,
    seed: int = 59,
    algorithms: Sequence[str] = ("bbst", "kds-rejection"),
) -> list[Row]:
    """Sampling-phase wall-clock of the numba kernels vs their numpy twins.

    Both backends run the *same* prepared sampler configuration on the same
    pinned uniform instance with the same seeds, so the numba side must
    return **bit-identical** pairs (``match``) - the speedup can never be
    bought with a different draw stream.  Each side pays one small warm-up
    draw first (which is where the numba side JIT-compiles), then the
    measured draw; ``sampling_seconds`` is the measured draw's sampling
    phase only (build/count are cached by ``prepare()``).

    When numba is not installed the numpy side still runs (so the experiment
    reports a baseline) and the numba columns are zeroed with
    ``numba_available = False`` - the CI gate skips the section explicitly
    instead of calling this.  The workload is pinned (``workloads`` /
    ``datasets`` accepted for registry uniformity and ignored); ``sizes``
    overrides the per-scale ``n = m`` ladder.
    """
    del workloads, datasets  # pinned workload; see docstring
    from repro.kernels import numba_available

    chosen = tuple(sizes) if sizes is not None else _KERNEL_SCALE_SIZES[scale]
    have_numba = numba_available()

    def timed_run(name: str, spec: JoinSpec, t: int, backend: str):
        sampler = create_sampler(name, spec, backend=backend)
        sampler.prepare()
        # Warm-up draw: JIT compilation on the numba side; mirrored on the
        # numpy side so both backends enter the measured draw equally warm.
        sampler.sample(min(t, 1_000), seed=seed + 1)
        return sampler.sample(t, seed=seed)

    rows: list[Row] = []
    for size in chosen:
        rng = np.random.default_rng(seed)
        points = uniform_points(2 * size, rng, name=f"uniform-{size // 1_000}k")
        r_points, s_points = split_r_s(points, rng)
        spec = JoinSpec(
            r_points=r_points, s_points=s_points, half_extent=KERNEL_HALF_EXTENT
        )
        dataset = f"uniform-{spec.n // 1_000}k"
        t = (
            (2_000 if scale is ExperimentScale.SMOKE else 100_000)
            if num_samples is None
            else num_samples
        )
        for name in algorithms:
            numpy_result = timed_run(name, spec, t, "numpy")
            numpy_seconds = numpy_result.timings.sample_seconds
            row: Row = {
                "dataset": dataset,
                "algorithm": name,
                "n": spec.n,
                "m": spec.m,
                "t": t,
                "numba_available": have_numba,
                "numpy_sampling_seconds": numpy_seconds,
                "numba_sampling_seconds": 0.0,
                "speedup": 0.0,
                "match": False,
            }
            if have_numba:
                numba_result = timed_run(name, spec, t, "numba")
                numba_seconds = numba_result.timings.sample_seconds
                row["numba_sampling_seconds"] = numba_seconds
                row["speedup"] = numpy_seconds / max(numba_seconds, 1e-9)
                row["match"] = [
                    p.as_index_tuple() for p in numba_result.pairs
                ] == [p.as_index_tuple() for p in numpy_result.pairs]
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Parallel engine - shard-parallel build/count speedup over the serial path
# ----------------------------------------------------------------------

#: Synthetic point budgets of the parallel experiment (before the R/S split).
_PARALLEL_SCALE_POINTS: dict[ExperimentScale, int] = {
    ExperimentScale.SMOKE: 40_000,  # n = m = 20,000: seconds-level
    ExperimentScale.PAPER: 200_000,  # n = m = 100,000: the committed floor's config
}

#: Window half-extent of the parallel experiment (the paper's default l=100).
PARALLEL_HALF_EXTENT = 100.0


def run_parallel_speedup(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
    jobs: int = 4,
    total_points: int | None = None,
    algorithms: Sequence[str] = ("bbst",),
    seed: int = 43,
) -> list[Row]:
    """End-to-end wall-clock of the sharded engine vs the serial one-shot path.

    Both sides pay the full pipeline - offline step, online build, counting
    and ``t`` draws - from a cold start on the same synthetic uniform
    instance (``workloads``/``datasets`` are ignored: the experiment pins its
    own workload so the committed CI floor cannot drift with the proxy
    catalogue).  The sharded side additionally verifies that its per-shard
    exact weights sum bit-identically to the serial exact join size
    (``totals_match``), so the speedup can never be bought with a wrong
    distribution.
    """
    del workloads, datasets  # pinned workload; see docstring
    points_budget = (
        int(total_points)
        if total_points is not None
        else _PARALLEL_SCALE_POINTS[scale]
    )
    t = (2_000 if scale is ExperimentScale.SMOKE else 10_000) if num_samples is None else num_samples
    rng = np.random.default_rng(seed)
    points = uniform_points(points_budget, rng, name=f"uniform-{points_budget // 2_000}k")
    r_points, s_points = split_r_s(points, rng)
    spec = JoinSpec(
        r_points=r_points, s_points=s_points, half_extent=PARALLEL_HALF_EXTENT
    )
    dataset = f"uniform-{spec.n // 1_000}k"
    exact_total = join_size(spec)

    rows: list[Row] = []
    for name in algorithms:
        start = time.perf_counter()
        serial = create_sampler(name, spec)
        serial_result = serial.sample(t, seed=seed)
        serial_seconds = time.perf_counter() - start

        start = time.perf_counter()
        sharded = ShardedSampler(spec, algorithm=name, jobs=jobs)
        sharded_result = sharded.sample(t, seed=seed)
        sharded_seconds = time.perf_counter() - start

        rows.append(
            {
                "dataset": dataset,
                "algorithm": name,
                "n": spec.n,
                "m": spec.m,
                "t": t,
                "jobs": jobs,
                "join_size": exact_total,
                "totals_match": bool(sharded.total_weight == exact_total),
                "serial_seconds": serial_seconds,
                "sharded_seconds": sharded_seconds,
                "speedup": serial_seconds / max(sharded_seconds, 1e-9),
                "serial_pairs": len(serial_result),
                "sharded_pairs": len(sharded_result),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Dynamic engine - incremental update throughput vs full rebuild
# ----------------------------------------------------------------------

#: Synthetic point budgets of the dynamic experiment (before the R/S split).
_DYNAMIC_SCALE_POINTS: dict[ExperimentScale, int] = {
    ExperimentScale.SMOKE: 40_000,  # n = m = 20,000
    ExperimentScale.PAPER: 200_000,  # n = m = 100,000
}

#: Window half-extent of the dynamic experiment (the paper's default l=100).
DYNAMIC_HALF_EXTENT = 100.0


def run_update_throughput(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
    rounds: int = 5,
    batch: int = 500,
    total_points: int | None = None,
    algorithms: Sequence[str] = ("bbst",),
    rebuild_threshold: float = 0.1,
    seed: int = 47,
) -> list[Row]:
    """Incremental insert/delete maintenance versus full rebuild per change.

    Each round deletes ``batch // 2`` random points from one side, inserts
    ``batch - batch // 2`` fresh uniform points into it (sides alternate,
    so both R-row and S-cell maintenance paths are exercised) and then draws
    ``t`` samples.  The incremental side applies the rounds through
    :class:`~repro.dynamic.DynamicSampler`; the rebuild baseline pays a full
    fresh ``prepare()`` (offline + build + count) per round, which is what a
    static-only deployment would do after every change.

    The workload is pinned (uniform synthetic points, the paper's ``l``), so
    the committed CI floor cannot drift with the proxy catalogue
    (``workloads`` / ``datasets`` are accepted for registry uniformity and
    ignored).  Every row also records ``state_match``: after the final
    round, the maintained bound matrix and ``sum_mu`` must equal a freshly
    built sampler's *bit for bit* - the gate scores a mismatching row 0.0 so
    the speedup can never be bought with a drifted distribution.
    """
    del workloads, datasets  # pinned workload; see docstring
    if rounds < 1:
        raise InvalidSpecError("rounds must be at least 1")
    if batch < 2:
        raise InvalidSpecError("batch must be at least 2")
    points_budget = (
        int(total_points)
        if total_points is not None
        else _DYNAMIC_SCALE_POINTS[scale]
    )
    t = (2_000 if scale is ExperimentScale.SMOKE else 10_000) if num_samples is None else num_samples
    rng = np.random.default_rng(seed)
    points = uniform_points(points_budget, rng, name=f"uniform-{points_budget // 2_000}k")
    r_points, s_points = split_r_s(points, rng)
    spec = JoinSpec(
        r_points=r_points, s_points=s_points, half_extent=DYNAMIC_HALF_EXTENT
    )
    dataset = f"uniform-{spec.n // 1_000}k"

    rows: list[Row] = []
    for name in algorithms:
        dynamic = DynamicSampler(
            spec, algorithm=name, rebuild_threshold=rebuild_threshold
        )
        dynamic.prepare()
        update_rng = np.random.default_rng(seed + 1)
        update_seconds = 0.0
        draw_seconds = 0.0
        changed = 0
        for round_index in range(rounds):
            side = "s" if round_index % 2 == 0 else "r"
            live = dynamic.s_points if side == "s" else dynamic.r_points
            deletions = min(batch // 2, max(0, len(live) - 1))
            insertions = batch - deletions
            delete_ids = update_rng.choice(live.ids, size=deletions, replace=False)
            ins_xs = update_rng.uniform(0.0, 10_000.0, size=insertions)
            ins_ys = update_rng.uniform(0.0, 10_000.0, size=insertions)
            start = time.perf_counter()
            dynamic.update(side, insert=(ins_xs, ins_ys), delete=delete_ids)
            update_seconds += time.perf_counter() - start
            changed += insertions + deletions
            start = time.perf_counter()
            result = dynamic.sample(t, seed=seed + round_index)
            draw_seconds += time.perf_counter() - start
            assert len(result) == t

        final_spec = JoinSpec(
            r_points=dynamic.r_points,
            s_points=dynamic.s_points,
            half_extent=DYNAMIC_HALF_EXTENT,
        )
        fresh = create_sampler(name, final_spec)
        fresh_timings = fresh.prepare()
        rebuild_once = (
            fresh_timings.preprocess_seconds + fresh_timings.total_seconds
        )
        rebuild_seconds = rebuild_once * rounds

        dynamic.flush()
        fresh_runtime = getattr(fresh, "runtime", None)
        dynamic_runtime = dynamic.inner.runtime
        state_match = bool(
            fresh_runtime is not None
            and dynamic_runtime is not None
            and dynamic_runtime.sum_mu == fresh_runtime.sum_mu
            and np.array_equal(dynamic_runtime.bounds, fresh_runtime.bounds)
        )

        rows.append(
            {
                "dataset": dataset,
                "algorithm": name,
                "n": final_spec.n,
                "m": final_spec.m,
                "t": t,
                "rounds": rounds,
                "batch": batch,
                "points_changed": changed,
                "state_match": state_match,
                "update_seconds": update_seconds,
                "updates_per_second": changed / max(update_seconds, 1e-9),
                "rebuild_seconds": rebuild_seconds,
                "speedup": rebuild_seconds / max(update_seconds, 1e-9),
                "post_update_draw_seconds": draw_seconds / rounds,
                "alias_rebuilds": dynamic.alias_rebuilds,
                "cumulative_rebuilds": dynamic.cumulative_rebuilds,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Manager - multi-tenant serving under a fixed memory budget
# ----------------------------------------------------------------------

#: Per-tenant synthetic point budgets (before the R/S split).
_MANAGER_SCALE_POINTS: dict[ExperimentScale, int] = {
    ExperimentScale.SMOKE: 6_000,  # 8 tenants x n = m = 3,000
    ExperimentScale.PAPER: 40_000,  # 8 tenants x n = m = 20,000
}

#: Window half-extent of the manager experiment (the paper's default l=100).
MANAGER_HALF_EXTENT = 100.0

#: Fraction of the tenants' total prepared bytes granted as the budget, so
#: roughly half the tenants' structures must be evicted at any time.
MANAGER_BUDGET_FRACTION = 0.5


def run_manager_multitenancy(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    tenants: int = 8,
    rounds: int = 3,
    num_samples: int | None = None,
    update_batch: int = 100,
    budget_fraction: float = MANAGER_BUDGET_FRACTION,
    algorithm: str = "bbst",
    seed: int = 53,
) -> list[Row]:
    """T tenants of mixed draw/update traffic under ~50% of their total bytes.

    Every tenant gets its own synthetic uniform instance and an *un-managed*
    twin :class:`~repro.api.session.SamplingSession`; the managed side serves
    the identical request schedule through one
    :class:`~repro.manager.SessionManager` whose ``memory_budget`` is
    ``budget_fraction`` of the twins' total prepared bytes, so the manager
    must keep evicting prepared entries to stay under budget while all
    tenants stay live.  Each round every tenant draws ``t`` samples (pinned
    per-(tenant, round) seeds) and one tenant (round-robin) applies an
    insert/delete batch - mirrored onto its twin, so the two sides' data
    stay equal.

    Three boolean columns make the committed CI floors:

    * ``budget_adherence`` - the tracked bytes, sampled after every single
      operation, never exceeded the budget;
    * ``eviction_bit_identity`` - every managed draw (including every draw
      served by a transparently re-prepared entry after an eviction) returned
      **bit-identical** pairs to its never-evicted twin;
    * ``eviction_exercised`` - the run actually evicted (a budget this tight
      cannot be served without evictions; a 1.0 here proves the other two
      columns were earned, not vacuous).

    The workload is pinned (``workloads`` / ``datasets`` accepted for
    registry uniformity and ignored) so the committed floors cannot drift
    with the proxy catalogue.
    """
    del workloads, datasets  # pinned workload; see docstring
    if tenants < 1:
        raise InvalidSpecError("tenants must be at least 1")
    if rounds < 1:
        raise InvalidSpecError("rounds must be at least 1")
    points_budget = _MANAGER_SCALE_POINTS[scale]
    t = (500 if scale is ExperimentScale.SMOKE else 2_000) if num_samples is None else num_samples

    tenant_specs: list[JoinSpec] = []
    for index in range(tenants):
        rng = np.random.default_rng(seed + index)
        points = uniform_points(points_budget, rng, name=f"tenant-{index}")
        r_points, s_points = split_r_s(points, rng)
        tenant_specs.append(
            JoinSpec(
                r_points=r_points, s_points=s_points, half_extent=MANAGER_HALF_EXTENT
            )
        )

    # The never-evicted twins: one plain session per tenant, prepared up
    # front so their summed bytes define the budget.
    twins = [
        SamplingSession(  # repro-lint: disable=RL004 (unmanaged differential twin; budget bench owns its lifecycle)
            spec.r_points,
            spec.s_points,
            MANAGER_HALF_EXTENT,
            algorithm=algorithm,
            eager=True,
        )
        for spec in tenant_specs
    ]
    total_prepared = sum(twin.cached_nbytes() for twin in twins)
    budget = max(1, int(total_prepared * budget_fraction))

    manager = SessionManager(memory_budget=budget, name="bench")
    start = time.perf_counter()
    handles = [
        manager.open(
            f"tenant-{index}",
            spec.r_points,
            spec.s_points,
            MANAGER_HALF_EXTENT,
            algorithm=algorithm,
        )
        for index, spec in enumerate(tenant_specs)
    ]

    draws = 0
    updates = 0
    peak_tracked = 0
    bit_identical = True
    update_rng = np.random.default_rng(seed + 1_000)
    try:
        for round_index in range(rounds):
            for index, handle in enumerate(handles):
                draw_seed = seed + 97 * round_index + index
                managed = handle.draw(t, seed=draw_seed)
                reference = twins[index].draw(t, seed=draw_seed)
                draws += 1
                peak_tracked = max(peak_tracked, manager.tracked_nbytes())
                if [p.as_index_tuple() for p in managed.pairs] != [
                    p.as_index_tuple() for p in reference.pairs
                ]:
                    bit_identical = False

            # One tenant's data changes per round; its twin mirrors the
            # exact same batch so later draw comparisons stay meaningful.
            victim = round_index % tenants
            side = "s" if round_index % 2 == 0 else "r"
            live = (
                twins[victim].s_points if side == "s" else twins[victim].r_points
            )
            deletions = min(update_batch // 2, max(0, len(live) - 1))
            insertions = update_batch - deletions
            delete_ids = update_rng.choice(live.ids, size=deletions, replace=False)
            ins_xs = update_rng.uniform(0.0, 10_000.0, size=insertions)
            ins_ys = update_rng.uniform(0.0, 10_000.0, size=insertions)
            handles[victim].update(
                side, insert=(ins_xs, ins_ys), delete=delete_ids
            )
            twins[victim].update(side, insert=(ins_xs, ins_ys), delete=delete_ids)
            updates += 1
            peak_tracked = max(peak_tracked, manager.tracked_nbytes())

        managed_seconds = time.perf_counter() - start
        stats = manager.stats()
    finally:
        manager.close()
        for twin in twins:
            twin.close()

    return [
        {
            "tenants": tenants,
            "rounds": rounds,
            "t": t,
            "algorithm": algorithm,
            "draws": draws,
            "updates": updates,
            "total_prepared_bytes": total_prepared,
            "budget_bytes": budget,
            "peak_tracked_bytes": peak_tracked,
            "budget_adherence": float(peak_tracked <= budget),
            "eviction_bit_identity": float(bit_identical),
            "eviction_exercised": float(stats["manager_evictions"] > 0),
            "evictions": stats["manager_evictions"],
            "prepare_misses": stats["prepare_misses"],
            "prepare_hits": stats["prepare_hits"],
            "managed_seconds": managed_seconds,
        }
    ]


# ----------------------------------------------------------------------
# Fig. 4 - memory usage vs dataset size
# ----------------------------------------------------------------------
def run_fig4_memory(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    fractions: Sequence[float] | None = None,
) -> list[Row]:
    """Structural index bytes of each algorithm while the dataset grows."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        sweep = tuple(fractions) if fractions is not None else tuple(config.scale_sweep)
        for fraction in sweep:
            spec = build_join_spec(config, scale_fraction=fraction)
            kds, _ = _run_sampler(get_sampler("kds").factory, spec, 0, seed=0)
            rejection, _ = _run_sampler(get_sampler("kds-rejection").factory, spec, 0, seed=0)
            bbst, _ = _run_sampler(get_sampler("bbst").factory, spec, 0, seed=0)
            rows.append(
                {
                    "dataset": config.dataset,
                    "fraction": fraction,
                    "m": spec.m,
                    "kds_bytes": kds.index_nbytes(),
                    "kds_rejection_bytes": rejection.index_nbytes(),
                    "bbst_bytes": bbst.index_nbytes(),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Section V-B text - accuracy of the approximate range counting
# ----------------------------------------------------------------------
def run_accuracy_experiment(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
) -> list[Row]:
    """``sum_r mu(r) / |J|`` per dataset (1.04-1.19 in the paper)."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        spec = build_join_spec(config)
        report = counting_accuracy_report(spec, dataset=config.dataset)
        rows.append(
            {
                "dataset": config.dataset,
                "m": spec.m,
                "join_size": report.join_size,
                "sum_mu": report.sum_mu,
                "ratio": report.ratio,
                "relative_error": report.relative_error,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 5 - impact of the range (window) size
# ----------------------------------------------------------------------
def run_fig5_range_size(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    ranges: Sequence[float] | None = None,
    num_samples: int | None = None,
    seed: int = 13,
) -> list[Row]:
    """Total running time of every algorithm while the window grows."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        sweep = tuple(ranges) if ranges is not None else tuple(config.range_sweep)
        t = config.num_samples if num_samples is None else num_samples
        for half_extent in sweep:
            spec = build_join_spec(config, half_extent=half_extent)
            for factory in _comparison_factories():
                sampler, result = _run_sampler(factory, spec, t, seed)
                rows.append(
                    {
                        "dataset": config.dataset,
                        "half_extent": half_extent,
                        "algorithm": sampler.name,
                        "total_seconds": result.timings.total_seconds,
                        "iterations": result.iterations,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Fig. 6 - impact of the number of samples
# ----------------------------------------------------------------------
def run_fig6_num_samples(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    sample_counts: Sequence[int] | None = None,
    seed: int = 17,
) -> list[Row]:
    """Total running time of every algorithm while ``t`` grows."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        sweep = (
            tuple(sample_counts) if sample_counts is not None else tuple(config.samples_sweep)
        )
        spec = build_join_spec(config)
        for t in sweep:
            for factory in _comparison_factories():
                sampler, result = _run_sampler(factory, spec, t, seed)
                rows.append(
                    {
                        "dataset": config.dataset,
                        "t": t,
                        "algorithm": sampler.name,
                        "total_seconds": result.timings.total_seconds,
                        "sampling_seconds": result.timings.sample_seconds,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Fig. 7 - impact of the dataset size
# ----------------------------------------------------------------------
def run_fig7_dataset_size(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    fractions: Sequence[float] | None = None,
    num_samples: int | None = None,
    seed: int = 19,
) -> list[Row]:
    """Total running time of every algorithm while the dataset grows."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        sweep = tuple(fractions) if fractions is not None else tuple(config.scale_sweep)
        t = config.num_samples if num_samples is None else num_samples
        for fraction in sweep:
            spec = build_join_spec(config, scale_fraction=fraction)
            for factory in _comparison_factories():
                sampler, result = _run_sampler(factory, spec, t, seed)
                rows.append(
                    {
                        "dataset": config.dataset,
                        "fraction": fraction,
                        "n": spec.n,
                        "m": spec.m,
                        "algorithm": sampler.name,
                        "total_seconds": result.timings.total_seconds,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Fig. 8 - impact of the dataset size difference (n / (n + m))
# ----------------------------------------------------------------------
def run_fig8_size_ratio(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    ratios: Sequence[float] | None = None,
    num_samples: int | None = None,
    seed: int = 23,
) -> list[Row]:
    """BBST running time while the ``|R| / (|R| + |S|)`` ratio varies."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        sweep = tuple(ratios) if ratios is not None else tuple(config.ratio_sweep)
        t = config.num_samples if num_samples is None else num_samples
        for ratio in sweep:
            spec = build_join_spec(config, r_fraction=ratio)
            sampler, result = _run_sampler(get_sampler("bbst").factory, spec, t, seed)
            rows.append(
                {
                    "dataset": config.dataset,
                    "r_fraction": ratio,
                    "n": spec.n,
                    "m": spec.m,
                    "total_seconds": result.timings.total_seconds,
                    "gm_seconds": result.timings.build_seconds,
                    "ub_seconds": result.timings.count_seconds,
                    "sampling_seconds": result.timings.sample_seconds,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 9 - effectiveness of the BBST structure
# ----------------------------------------------------------------------
def run_fig9_bbst_vs_cell_kdtree(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
    seed: int = 29,
) -> list[Row]:
    """BBST vs the per-cell kd-tree variant of Algorithm 1."""
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets):
        spec = build_join_spec(config)
        t = config.num_samples if num_samples is None else num_samples
        for name in ("bbst", "cell-kdtree"):
            sampler, result = _run_sampler(get_sampler(name).factory, spec, t, seed)
            rows.append(
                {
                    "dataset": config.dataset,
                    "algorithm": sampler.name,
                    "t": t,
                    "total_seconds": result.timings.total_seconds,
                    "ub_seconds": result.timings.count_seconds,
                    "sampling_seconds": result.timings.sample_seconds,
                    "iterations": result.iterations,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Ablation - BBST bucket capacity (Definition 3)
# ----------------------------------------------------------------------

#: Bucket capacities of the ablation, as multiples of ``ceil(log2 m)``.
BUCKET_CAPACITY_FACTORS = (0.5, 1.0, 4.0)


def run_bucket_capacity_ablation(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
    seed: int = 37,
) -> list[Row]:
    """BBST with bucket capacities around the paper's ``ceil(log2 m)``.

    Tiny buckets make the upper bounds tight but the trees deep; huge
    buckets make the trees shallow but the bounds (and hence the rejection
    rate) loose.  Runs on the NYC proxy unless ``datasets`` says otherwise.
    """
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets or ("nyc",)):
        spec = build_join_spec(config)
        t = config.num_samples if num_samples is None else num_samples
        log_m = max(1, math.ceil(math.log2(spec.m)))
        for factor in BUCKET_CAPACITY_FACTORS:
            capacity = max(1, round(factor * log_m))
            sampler = create_sampler("bbst", spec, bucket_capacity=capacity)
            sampler.preprocess()
            result = sampler.sample(t, seed=seed)
            rows.append(
                {
                    "dataset": config.dataset,
                    "capacity_factor": factor,
                    "bucket_capacity": capacity,
                    "log_m": log_m,
                    "t": t,
                    "iterations": result.iterations,
                    "acceptance_rate": result.acceptance_rate,
                    "sum_mu": result.metadata["sum_mu"],
                    "total_seconds": result.timings.total_seconds,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Motivation - sampling the join vs materialising it
# ----------------------------------------------------------------------

#: Window half-extents of the crossover: a smaller and a larger |J| on one instance.
CROSSOVER_HALF_EXTENTS = (200.0, 600.0)


def run_join_then_sample_crossover(
    workloads: Sequence[WorkloadConfig] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    num_samples: int | None = None,
    seed: int = 41,
) -> list[Row]:
    """Join-then-sample vs BBST on the same instance as the window grows.

    The paper's introduction rests on this crossover: once ``|J|`` is
    large, materialising it costs far more than drawing ``t`` uniform
    samples with BBST.  Both sides pre-process outside the timed phases.
    Runs on the NYC proxy unless ``datasets`` says otherwise.
    """
    rows: list[Row] = []
    for config in _workloads_or_default(workloads, scale, datasets or ("nyc",)):
        t = config.num_samples if num_samples is None else num_samples
        for half_extent in CROSSOVER_HALF_EXTENTS:
            spec = build_join_spec(config, half_extent=half_extent)
            results: dict[str, JoinSampleResult] = {}
            for name in ("join-then-sample", "bbst"):
                sampler = create_sampler(name, spec)
                sampler.preprocess()
                results[name] = sampler.sample(t, seed=seed)
            materialise = results["join-then-sample"].timings.total_seconds
            bbst = results["bbst"].timings.total_seconds
            rows.append(
                {
                    "dataset": config.dataset,
                    "half_extent": half_extent,
                    "t": t,
                    "join_size": results["join-then-sample"].metadata["join_size"],
                    "join_then_sample_seconds": materialise,
                    "bbst_seconds": bbst,
                    "speedup": materialise / max(bbst, 1e-9),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Correctness extra - uniformity of the produced samples
# ----------------------------------------------------------------------
def run_uniformity_experiment(
    total_points: int = 1_200,
    half_extent: float = 400.0,
    num_samples: int = 30_000,
    dataset: str = "foursquare",
    seed: int = 31,
) -> list[Row]:
    """Chi-square uniformity check of every sampler on an enumerable join."""
    config = WorkloadConfig(
        dataset=dataset,
        total_points=total_points,
        half_extent=half_extent,
        num_samples=num_samples,
    )
    spec = build_join_spec(config)
    join_pairs = spatial_range_join(spec)
    rows: list[Row] = []
    for factory in (*_comparison_factories(), get_sampler("cell-kdtree").factory):
        sampler, result = _run_sampler(factory, spec, num_samples, seed)
        report = uniformity_report(result, join_pairs)
        rows.append(
            {
                "algorithm": sampler.name,
                "join_size": report.join_size,
                "samples": report.num_samples,
                "chi_square": report.chi_square,
                "p_value": report.p_value,
                "lag_correlation": report.lag_correlation,
                "looks_uniform": report.looks_uniform,
            }
        )
    return rows
