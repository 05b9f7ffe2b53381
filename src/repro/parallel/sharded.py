"""The shard-parallel execution engine: build/count per shard, compose exactly.

:class:`ShardedSampler` decomposes a join instance with a
:class:`~repro.parallel.plan.ShardPlan` and runs every shard's build and
counting phase in its own worker process.  Workers are not spawned per
sampler: each shard checks a dedicated single-worker slot out of a shared
:class:`~repro.parallel.pool.WorkerPool` (a :class:`WorkerLease`), so the
worker *keeps* the prepared structures it built and draws route back to it
without re-shipping state, while the machine-wide worker count stays bounded
and arbitrated across samplers, sessions and tenants.  A shard whose lease is
denied (pool exhausted, or fairness capped) builds in-process instead - the
bit-identical twin of the pool path - so correctness never depends on pool
capacity.  The shards are composed with a top-level
:class:`~repro.alias.walker.AliasTable` over the **exact** per-shard join
sizes ``|J_i|``:

1. every draw first picks a shard with probability ``|J_i| / |J|``;
2. the shard's own sampler then draws one uniform pair of ``J_i``.

Because the shard joins partition ``J`` (every pair belongs to exactly one
shard - the one owning its ``r``), the composed distribution is

``P(pair p) = (|J_i| / |J|) * (1 / |J_i|) = 1 / |J|``

i.e. *exactly* the uniform distribution the serial samplers produce, not an
approximation.  The exactness hinges on the top-level weights being the true
``|J_i|`` (computed with the grid-partitioned exact counter
:func:`repro.core.full_join.join_size`), which is also what makes the
composition verifiable: the per-shard weights sum bit-identically to the
serial join size, and a shard with zero points (or zero joining pairs) gets a
zero weight and is never drawn.

``use_processes=False`` runs the identical pipeline in-process.  Both modes
derive one child seed per (request, shard) from the request generator, so
they return **bit-identical** pairs for the same seed - the differential
tests pin the pool path against the in-process path with this.

Every shard is guarded by a :class:`threading.Lock`, so a session can serve
draws from many threads concurrently; two requests only contend when routed
to the same shard.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.alias.walker import AliasTable
from repro.artifacts import (
    attach_sampler_artifact,
    load_sampler_artifact,
    required_array,
    save_sampler_artifact,
    write_artifact,
)
from repro.core.base import (
    JoinSampler,
    JoinSampleResult,
    PhaseTimings,
    SamplePair,
    build_sample_pairs,
)
from repro.core.config import JoinSpec
from repro.core.full_join import join_size
from repro.core.registry import canonical_name, create_sampler
from repro.core.validation import validate_jobs
from repro.devtools.lockcheck import LockLike, make_lock
from repro.errors import (
    ArtifactCorruptError,
    ArtifactError,
    InvalidSpecError,
    SessionClosedError,
)
from repro.parallel.plan import Shard, ShardPlan
from repro.parallel.pool import WorkerLease, WorkerPool, shared_pool

__all__ = ["ShardBuildReport", "ShardedSampler"]

#: Seed space for the per-(request, shard) child seeds.
_SEED_SPACE = np.int64(2**62)


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker process needs to build one shard.

    A plain picklable dataclass: the sub-spec's point sets are numpy arrays
    and the options dict holds only primitive sampler knobs.
    """

    index: int
    algorithm: str
    spec: JoinSpec
    sampler_options: dict[str, Any]


@dataclass
class ShardBuildReport:
    """One worker's build/count outcome.

    ``weight`` is the exact shard join size ``|J_i|``.  A zero-weight shard
    (empty strip, empty halo, or simply no joining pairs) builds nothing: it
    gets a zero-weight alias entry and can never be drawn.
    """

    index: int
    weight: int
    n: int
    m: int
    count_seconds: float
    prepare_seconds: float
    #: Worker-side footprint of the prepared structures, reported back so
    #: memory introspection works even when the sampler stays resident.
    index_nbytes: int = 0


# One resident sampler per worker process (a leased worker builds exactly one
# sampler and keeps it for draws; releasing the lease clears it).
_RESIDENT_SAMPLER: JoinSampler | None = None


def _empty_report(task: _ShardTask) -> ShardBuildReport:
    """Zero-weight report for a shard that is empty by construction."""
    return ShardBuildReport(
        index=task.index,
        weight=0,
        n=task.spec.n,
        m=task.spec.m,
        count_seconds=0.0,
        prepare_seconds=0.0,
    )


def _count_and_build(task: _ShardTask) -> tuple[ShardBuildReport, JoinSampler | None]:
    """Prepare one shard's sampler and exact-count its join (both modes).

    The sampler builds first so the exact count can reuse whatever it
    prepared: samplers that count exactly anyway (KDS, join-then-sample)
    expose ``exact_join_size`` and skip the extra pass entirely, and the
    grid-decomposition samplers lend their grid to
    :func:`~repro.core.full_join.join_size` so it is not built twice.
    """
    spec = task.spec
    sampler: JoinSampler | None = None
    prepare_seconds = 0.0
    count_seconds = 0.0
    weight = 0
    if not spec.is_empty:
        sampler = create_sampler(task.algorithm, spec, **task.sampler_options)
        timings = sampler.prepare()
        prepare_seconds = timings.preprocess_seconds + timings.total_seconds
        start = time.perf_counter()
        exact = getattr(sampler, "exact_join_size", None)
        if exact is None:
            index = getattr(sampler, "index", None)
            grid = getattr(index, "grid", None)
            if grid is None:
                grid = getattr(sampler, "grid", None)
            exact = join_size(spec, grid=grid)
        weight = int(exact)
        count_seconds = time.perf_counter() - start
        if weight == 0:
            sampler = None  # zero-weight shards are never drawn
    report = ShardBuildReport(
        index=task.index,
        weight=weight,
        n=spec.n,
        m=spec.m,
        count_seconds=count_seconds,
        prepare_seconds=prepare_seconds,
        index_nbytes=sampler.index_nbytes() if sampler is not None else 0,
    )
    return report, sampler


def _resident_build(task: _ShardTask) -> ShardBuildReport:
    """Worker entry point: build the shard and keep the sampler resident.

    Module-level (not a closure) so the task and report pickle across the
    pool; only the small report travels back - the prepared structures stay
    in the worker that draws from them.
    """
    global _RESIDENT_SAMPLER
    report, sampler = _count_and_build(task)
    _RESIDENT_SAMPLER = sampler
    return report


def _attach_shard(
    task: _ShardTask, path: str, weight: int
) -> tuple[ShardBuildReport, JoinSampler]:
    """Create one shard's sampler and attach its memmapped artifact (both modes)."""
    start = time.perf_counter()
    sampler = create_sampler(task.algorithm, task.spec, **task.sampler_options)
    attach_sampler_artifact(sampler, path)
    report = ShardBuildReport(
        index=task.index,
        weight=weight,
        n=task.spec.n,
        m=task.spec.m,
        count_seconds=0.0,
        prepare_seconds=time.perf_counter() - start,
        index_nbytes=sampler.index_nbytes(),
    )
    return report, sampler


def _resident_export(path: str) -> bool:
    """Worker entry point: persist the resident shard sampler's prepared state."""
    sampler = _RESIDENT_SAMPLER
    assert sampler is not None, "export routed to a shard that was never built"
    save_sampler_artifact(sampler, path)
    return True


def _resident_attach(task: _ShardTask, path: str, weight: int) -> ShardBuildReport:
    """Worker entry point: warm-start one shard from its on-disk artifact.

    The worker maps the blobs from disk (``np.memmap``) instead of receiving
    a pickled copy of the prepared structures, so a warm attach ships only
    the tiny task across the process boundary.
    """
    global _RESIDENT_SAMPLER
    report, sampler = _attach_shard(task, path, weight)
    _RESIDENT_SAMPLER = sampler
    return report


def _resident_draw(t: int, seed: int) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Worker entry point: ``t`` draws from the resident shard sampler.

    Returns shard-local positional index arrays plus the iteration count and
    sampling seconds - a few small arrays instead of the prepared state.
    """
    sampler = _RESIDENT_SAMPLER
    assert sampler is not None, "draw routed to a shard that was never built"
    result = sampler.sample(t, seed=seed)
    pairs = result.index_pairs()
    return (
        pairs[:, 0],
        pairs[:, 1],
        result.iterations,
        result.timings.sample_seconds,
    )


@dataclass
class PreparedShards:  # repro-lint: disable=RL005 (runtime composition holding live worker leases; per-shard states persist via ArtifactSpec individually)
    """The composed, ready-to-draw state of a sharded sampler."""

    plan: ShardPlan
    weights: np.ndarray
    total: int
    alias: AliasTable | None
    reports: list[ShardBuildReport] = field(repr=False, default_factory=list)
    # Per shard, exactly one of the two is populated: a worker lease (the
    # shard's structures are resident in that worker) or a local sampler.
    local_samplers: list[JoinSampler | None] = field(repr=False, default_factory=list)
    leases: list[WorkerLease | None] = field(repr=False, default_factory=list)


class ShardedSampler(JoinSampler):
    """Exact-uniform join sampling with shard-parallel build, count and draw.

    Parameters
    ----------
    spec:
        The join instance.
    algorithm:
        Name (or alias) of the registered serial sampler to run per shard.
    jobs:
        Number of vertical shards (= worker leases requested).
    use_processes:
        When true (default) every shard asks the worker pool for a lease;
        false runs the identical pipeline in-process (the deterministic twin
        used by differential tests, and the automatic fallback when worker
        processes cannot be spawned or the pool has no slot to spare).
    pool:
        The :class:`~repro.parallel.pool.WorkerPool` to lease workers from
        (default: the process-wide :func:`~repro.parallel.pool.shared_pool`).
        A :class:`~repro.manager.SessionManager` injects its own pool here so
        every tenant's shards share one arbitrated worker set.
    owner:
        Fairness identity presented to the pool (default: a per-sampler
        token).  Sessions pass their owner ID through so all of one tenant's
        entries count against one fairness share.
    sampler_options:
        Extra keyword arguments forwarded to every shard sampler constructor.
    batch_size, vectorized:
        Batch-engine knobs forwarded to every shard sampler.

    Notes
    -----
    The composed draws are exactly uniform over the full join (see the module
    docstring) and :attr:`total_weight` equals the serial exact join size
    bit-for-bit.  For a fixed request seed the pool path and the in-process
    path return bit-identical pairs - and so does any mix of the two, which
    is why a denied lease can silently fall back to a local shard build.
    Concurrent draws from multiple threads are safe (per-shard locks) but
    interleave generator state and are therefore not reproducible run-to-run.

    A sampler holding worker leases should be closed with :meth:`close` (the
    session does this on ``close()``); closing *releases* the leases - the
    warm worker processes return to the pool for the next sampler instead of
    being torn down.  An unclosed sampler releases its leases on garbage
    collection.
    """

    def __init__(
        self,
        spec: JoinSpec,
        algorithm: str = "bbst",
        jobs: int = 2,
        use_processes: bool = True,
        sampler_options: dict[str, Any] | None = None,
        batch_size: int | None = None,
        vectorized: bool = True,
        pool: WorkerPool | None = None,
        owner: str | None = None,
    ) -> None:
        super().__init__(
            spec,
            batch_size=batch_size,
            vectorized=vectorized,
            backend=(sampler_options or {}).get("backend"),
        )
        self._algorithm = canonical_name(algorithm)
        self._jobs = validate_jobs(jobs)
        self._use_processes = bool(use_processes)
        self._pool = pool
        self._owner = owner if owner is not None else f"sampler-{id(self):x}"
        self._pool_broken = False
        # Shards whose lease was denied build locally inside _build_in_pool;
        # their (report, sampler) pairs are parked here because the method's
        # two-positional-argument signature is pinned by callers that stub it.
        self._pending_local: dict[int, tuple[ShardBuildReport, JoinSampler | None]] = {}
        # Denied-lease bookkeeping for rebalance(): which shards run
        # in-process because the pool had no fair slot for them, and the
        # pool's share_generation at denial time.  A later generation means
        # some owner released its last lease - this sampler's fair share
        # grew, so the denied shards may now claim workers after all.
        self._denied_indices: set[int] = set()
        self._denied_generation = -1
        self._sampler_options = dict(sampler_options or {})
        self._sampler_options.setdefault("batch_size", batch_size)
        self._sampler_options.setdefault("vectorized", vectorized)
        self._plan: ShardPlan | None = None
        self._built: PreparedShards | None = None
        self._build_lock = make_lock("sharded-build")
        self._shard_locks: list[LockLike] = []
        self._build_seconds = 0.0
        self._count_seconds = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"Sharded[{self._algorithm} x{self._jobs}]"

    @property
    def algorithm(self) -> str:
        """Canonical name of the per-shard algorithm."""
        return self._algorithm

    @property
    def jobs(self) -> int:
        """Number of shards (= worker leases requested from the pool)."""
        return self._jobs

    @property
    def owner(self) -> str:
        """Fairness identity presented to the worker pool."""
        return self._owner

    @property
    def plan(self) -> ShardPlan | None:
        """The shard plan (``None`` before preprocessing)."""
        return self._plan

    @property
    def total_weight(self) -> int:
        """Exact join size ``|J|`` = sum of the per-shard weights.

        Bit-identical to the serial exact count: the shard joins partition
        ``J`` and every weight is an exact integer count.
        """
        return self._ensure_built().total

    @property
    def shard_weights(self) -> np.ndarray:
        """Exact per-shard join sizes ``|J_i|`` (zero-weight shards included)."""
        return self._ensure_built().weights.copy()

    def _has_online_state(self) -> bool:
        return self._built is not None

    def index_nbytes(self) -> int:
        """Summed footprint of every shard's prepared structures.

        Taken from the build reports, so it is accurate in both modes - in
        pool mode the structures live in the leased workers, not here.
        """
        if self._built is None:
            return 0
        return sum(report.index_nbytes for report in self._built.reports)

    def _resolve_pool(self) -> WorkerPool:
        return self._pool if self._pool is not None else shared_pool()

    # ------------------------------------------------------------------
    def _preprocess_impl(self) -> None:
        # Planning is the only offline step; it is deterministic in the spec.
        self._plan = ShardPlan.for_spec(self.spec, self._jobs)

    def _ensure_built(self) -> PreparedShards:
        """Build and count every shard once - through the pool if enabled."""
        built = self._built
        if built is not None:
            return built
        with self._build_lock:
            if self._built is not None:
                return self._built
            if self._closed:
                raise SessionClosedError("the sharded sampler is closed")
            self.preprocess()
            plan = self._plan
            assert plan is not None
            start = time.perf_counter()
            tasks = [
                _ShardTask(
                    index=shard.index,
                    algorithm=self._algorithm,
                    spec=plan.subspec(self.spec, shard),
                    sampler_options=self._sampler_options,
                )
                for shard in plan.shards
            ]
            leases: list[WorkerLease | None] = [None] * len(tasks)
            local_samplers: list[JoinSampler | None] = [None] * len(tasks)
            use_pool = self._use_processes and self._jobs > 1 and not self._pool_broken
            if use_pool:
                try:
                    reports = self._build_in_pool(tasks, leases)
                    for index, (report, sampler) in self._pending_local.items():
                        local_samplers[index] = sampler
                        reports.append(report)
                    self._pending_local.clear()
                except OSError:
                    # Worker processes unavailable (restricted sandboxes):
                    # fall back to the bit-identical in-process pipeline.
                    # The broken leases must not linger in the list, or draws
                    # would route to them instead of the local samplers.
                    self._release_leases(leases, discard=True)
                    leases = [None] * len(tasks)
                    local_samplers = [None] * len(tasks)
                    self._pending_local.clear()
                    self._denied_indices.clear()
                    self._pool_broken = True
                    use_pool = False
            if not use_pool:
                reports = []
                for task in tasks:
                    report, sampler = _count_and_build(task)
                    local_samplers[task.index] = sampler
                    reports.append(report)
            reports.sort(key=lambda report: report.index)
            self._build_seconds = time.perf_counter() - start

            start = time.perf_counter()
            weights = np.array([report.weight for report in reports], dtype=np.int64)
            total = int(weights.sum())
            alias = AliasTable(weights) if total > 0 else None
            self._count_seconds = time.perf_counter() - start
            self._shard_locks = [make_lock("shard") for _ in reports]
            self._built = PreparedShards(
                plan=plan,
                weights=weights,
                total=total,
                alias=alias,
                reports=reports,
                local_samplers=local_samplers,
                leases=leases,
            )
            return self._built

    def _build_in_pool(
        self,
        tasks: list[_ShardTask],
        leases: list[WorkerLease | None],
    ) -> list[ShardBuildReport]:
        """Lease one worker per non-empty shard; builds run concurrently.

        Each leased worker keeps the sampler it built (module global), so
        draws route to it later without the prepared structures ever crossing
        a process boundary.  Shards whose sub-instance is empty by
        construction get a zero-weight report without taking a lease at all;
        shards whose lease is *denied* (pool exhausted or fairness-capped)
        build in-process while the leased workers run, and their results are
        handed back through ``_pending_local``.
        """
        pool = self._resolve_pool()
        # Captured before leasing: any owner release after this point bumps
        # the generation past it, which is what re-arms rebalance().
        self._denied_generation = pool.share_generation
        futures = []
        reports: list[ShardBuildReport] = []
        denied: list[_ShardTask] = []
        for task in tasks:
            if task.spec.is_empty:
                reports.append(_empty_report(task))
                continue
            lease = pool.lease(self._owner)
            if lease is None:
                denied.append(task)
                continue
            leases[task.index] = lease
            futures.append(lease.submit(_resident_build, task))
        for task in denied:
            self._pending_local[task.index] = _count_and_build(task)
        self._denied_indices = {task.index for task in denied}
        reports.extend(future.result() for future in futures)
        return reports

    @staticmethod
    def _release_leases(
        leases: list[WorkerLease | None], discard: bool = False
    ) -> None:
        for lease in leases:
            if lease is not None:
                lease.release(discard=discard)

    def rebalance(self) -> dict[str, Any]:
        """Promote denied-lease shards to workers freed by other owners.

        A shard whose lease was denied at build time runs in-process forever
        unless someone re-asks the pool - and the fair share that denied it
        is only recomputed at lease time, so freed capacity (an owner closing
        mid-lease) was never reclaimed.  This method closes that gap: when
        the pool's :attr:`~repro.parallel.pool.WorkerPool.share_generation`
        has advanced past the one recorded at denial time, every denied shard
        re-requests a lease and, when granted, rebuilds in the worker and
        swaps the in-process sampler out under its shard lock.  The swap is
        invisible to draws: the pool path and the in-process path are
        bit-identical for the same seed, and the shard's exact ``|J_i|``
        weight is unchanged, so the composed alias needs no rebuild.

        Cheap when nothing changed (one generation compare); the draw path
        calls it opportunistically, and a service's housekeeping may call it
        explicitly.  Returns the promoted and still-pending shard indices.
        """
        with self._build_lock:
            built = self._built
            if (
                self._closed
                or built is None
                or not self._denied_indices
                or not self._use_processes
                or self._pool_broken
            ):
                return {"promoted": [], "pending": sorted(self._denied_indices)}
            pool = self._resolve_pool()
            generation = pool.share_generation
            if generation == self._denied_generation:
                return {"promoted": [], "pending": sorted(self._denied_indices)}
            promoted: list[int] = []
            for index in sorted(self._denied_indices):
                if built.local_samplers[index] is None:
                    # Nothing resident to promote (the shard went empty or
                    # zero-weight); it stops counting as pending.
                    promoted.append(index)
                    continue
                try:
                    lease = pool.lease(self._owner)
                except SessionClosedError:
                    break  # the pool closed under us; keep serving in-process
                if lease is None:
                    break  # still capped; a later generation re-arms us
                task = _ShardTask(
                    index=index,
                    algorithm=self._algorithm,
                    spec=built.plan.subspec(self.spec, built.plan.shards[index]),
                    sampler_options=self._sampler_options,
                )
                try:
                    report = lease.submit(_resident_build, task).result()
                except OSError:
                    lease.release(discard=True)
                    self._pool_broken = True
                    break
                with self._shard_locks[index]:
                    built.leases[index] = lease
                    built.local_samplers[index] = None
                    built.reports[index] = report
                promoted.append(index)
            self._denied_indices -= set(promoted)
            # Re-arm on the generation observed *before* leasing: releases
            # racing with this pass bump past it and trigger another look.
            self._denied_generation = generation
            return {"promoted": promoted, "pending": sorted(self._denied_indices)}

    # ------------------------------------------------------------------
    def _sample_impl(self, t: int, rng: np.random.Generator) -> JoinSampleResult:
        first_build = self._built is None
        built = self._ensure_built()
        if (
            self._denied_indices
            and self._use_processes
            and not self._pool_broken
            and self._resolve_pool().share_generation != self._denied_generation
        ):
            # Some owner released its last lease since this sampler was
            # denied capacity: reclaim freed workers before drawing.
            self.rebalance()
        timings = PhaseTimings()
        if first_build:
            # The pool interleaves structure building and exact counting, so
            # the whole parallel phase is reported as the GM column and the
            # (tiny) top-level alias construction as the UB column.
            timings.build_seconds = self._build_seconds
            timings.count_seconds = self._count_seconds

        if built.alias is None and t > 0:
            raise InvalidSpecError(
                "the spatial range join is empty; no samples can be drawn"
            )

        start = time.perf_counter()
        pairs: list[SamplePair] = []
        iterations = 0
        if built.alias is not None and t > 0:
            # Two-level draw: route every sample slot to a shard by exact
            # weight, then derive one child seed per shard (in shard order,
            # from the request generator) and let each shard draw its
            # allocation.  Slot i therefore holds "a uniform pair of shard
            # routes[i]" - the serial distribution, decomposed - and the
            # schedule is identical in the pool and in-process modes.
            routes = built.alias.draw_many(t, rng)
            seeds = rng.integers(_SEED_SPACE, size=len(built.weights))
            positions_per_shard = [
                np.flatnonzero(routes == index)
                for index in range(len(built.weights))
            ]
            shard_draws = self._draw_from_shards(built, positions_per_shard, seeds)

            slot_r = np.empty(t, dtype=np.int64)
            slot_s = np.empty(t, dtype=np.int64)
            for index, positions in enumerate(positions_per_shard):
                if positions.size == 0:
                    continue
                r_local, s_local, shard_iterations, _seconds = shard_draws[index]
                shard = built.plan.shards[index]
                iterations += shard_iterations
                slot_r[positions] = shard.r_indices[r_local]
                slot_s[positions] = shard.s_indices[s_local]
            pairs = build_sample_pairs(self.spec, slot_r, slot_s)
        timings.sample_seconds = time.perf_counter() - start

        return JoinSampleResult(
            sampler_name=self.name,
            requested=t,
            pairs=pairs,
            timings=timings,
            iterations=iterations,
            metadata={
                "join_size": built.total,
                "jobs": self._jobs,
                "algorithm": self._algorithm,
                "shard_weights": built.weights.tolist(),
            },
        )

    def _draw_from_shards(
        self,
        built: PreparedShards,
        positions_per_shard: list[np.ndarray],
        seeds: np.ndarray,
    ) -> dict[int, tuple[np.ndarray, np.ndarray, int, float]]:
        """Collect each routed shard's draws (concurrently in pool mode)."""
        draws: dict[int, tuple[np.ndarray, np.ndarray, int, float]] = {}
        futures: dict[int, Any] = {}
        try:
            for index, positions in enumerate(positions_per_shard):
                if positions.size == 0:
                    continue
                lease = built.leases[index]
                count = int(positions.size)
                seed = int(seeds[index])
                if lease is not None:
                    lock = self._shard_locks[index]
                    lock.acquire()
                    try:
                        futures[index] = lease.submit(_resident_draw, count, seed)
                    except BaseException:
                        # A failed submit never reaches the result loop below,
                        # so release here or the shard deadlocks forever.
                        lock.release()
                        raise
                else:
                    sampler = built.local_samplers[index]
                    assert sampler is not None  # zero-weight shards never drawn
                    with self._shard_locks[index]:
                        result = sampler.sample(count, seed=seed)
                    index_pairs = result.index_pairs()
                    draws[index] = (
                        index_pairs[:, 0],
                        index_pairs[:, 1],
                        result.iterations,
                        result.timings.sample_seconds,
                    )
        finally:
            # Collect every submitted future and release every held lock even
            # when one worker dies (BrokenProcessPool) or a submit fails
            # mid-loop - a leaked lock would deadlock all later draws routed
            # to that shard.
            first_error: BaseException | None = None
            for index, future in futures.items():
                try:
                    draws[index] = future.result()
                except BaseException as exc:
                    if first_error is None:
                        first_error = exc
                finally:
                    self._shard_locks[index].release()
            if first_error is not None:
                raise first_error
        return draws

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """JSON-friendly snapshot: plan, per-shard weights and sizes."""
        built = self._ensure_built()
        description = built.plan.describe()
        description["algorithm"] = self._algorithm
        description["total_weight"] = built.total
        description["resident_workers"] = any(
            lease is not None for lease in built.leases
        )
        description["leased_workers"] = sum(
            1 for lease in built.leases if lease is not None
        )
        description["pending_local_shards"] = sorted(self._denied_indices)
        for entry, report in zip(description["shards"], built.reports):
            entry["weight"] = report.weight
            entry["count_seconds"] = report.count_seconds
            entry["prepare_seconds"] = report.prepare_seconds
            entry["index_nbytes"] = report.index_nbytes
        return description

    # ------------------------------------------------------------------
    # Prepared-state artifacts (persistence + warm start)
    # ------------------------------------------------------------------
    #: Artifact identity of the top-level composition (each per-shard sampler
    #: artifact under ``shards/<i>/`` carries its own kind and schema).
    artifact_kind = "sharded-composition"
    artifact_schema = 1

    def save_artifact(self, path: str | os.PathLike[str]) -> None:
        """Persist the composed state: plan, exact weights, per-shard artifacts.

        The top-level artifact holds the strip edges, the shard membership
        index arrays and the exact ``|J_i|`` weights; every non-zero-weight
        shard additionally writes its sampler's prepared-state artifact under
        ``shards/<index>/`` (exported *inside* the resident worker in pool
        mode, so the structures never cross a process boundary).
        """
        built = self._ensure_built()
        path = os.fspath(path)
        with self._build_lock:
            if self._closed:
                raise SessionClosedError("the sharded sampler is closed")
            arrays: dict[str, np.ndarray] = {
                "edges": np.asarray(built.plan.edges, dtype=np.float64),
                "weights": np.asarray(built.weights, dtype=np.int64),
            }
            shards_meta: list[dict[str, Any]] = []
            for shard, report in zip(built.plan.shards, built.reports):
                arrays[f"shard{shard.index}.r_indices"] = np.asarray(
                    shard.r_indices, dtype=np.int64
                )
                arrays[f"shard{shard.index}.s_indices"] = np.asarray(
                    shard.s_indices, dtype=np.int64
                )
                shards_meta.append(
                    {
                        "index": shard.index,
                        "weight": int(report.weight),
                        "n": int(shard.r_indices.size),
                        "m": int(shard.s_indices.size),
                        "index_nbytes": int(report.index_nbytes),
                    }
                )
            meta = {
                "kind": self.artifact_kind,
                "schema": self.artifact_schema,
                "algorithm": self._algorithm,
                "jobs": self._jobs,
                "n": self.spec.n,
                "m": self.spec.m,
                "half_extent": self.spec.half_extent,
                "total": built.total,
                "kernel_backend": self.kernel_backend,
                "shards": shards_meta,
            }
            write_artifact(path, meta, arrays)
            for index, report in enumerate(built.reports):
                if report.weight == 0:
                    continue
                shard_dir = os.path.join(path, "shards", str(index))
                with self._shard_locks[index]:
                    lease = built.leases[index]
                    if lease is not None:
                        lease.submit(_resident_export, shard_dir).result()
                    else:
                        sampler = built.local_samplers[index]
                        assert sampler is not None
                        save_sampler_artifact(sampler, shard_dir)

    def attach_artifact(self, path: str | os.PathLike[str]) -> None:
        """Warm-start the whole composition from a :meth:`save_artifact` directory.

        The plan (edges + membership), the exact weights and the top-level
        alias are restored without touching the point data beyond validation;
        every non-zero-weight shard attaches its sampler artifact in a leased
        worker (or in-process when the lease is denied or the pool is
        unavailable - the bit-identical twin, exactly as at build time).
        Draws after a warm attach are bit-identical to a fresh build.
        """
        path = os.fspath(path)
        with self._build_lock:
            if self._closed:
                raise SessionClosedError("the sharded sampler is closed")
            if self._built is not None:
                raise ArtifactError(
                    "cannot attach an artifact to an already-built sharded sampler"
                )
            meta, arrays = load_sampler_artifact(self, path)
            if meta.get("algorithm") != self._algorithm:
                raise ArtifactCorruptError(
                    f"artifact was built with algorithm {meta.get('algorithm')!r} "
                    f"but this sampler runs {self._algorithm!r}"
                )
            if int(meta.get("jobs", -1)) != self._jobs:
                raise ArtifactCorruptError(
                    f"artifact was built with jobs={meta.get('jobs')!r} but this "
                    f"sampler shards into {self._jobs}"
                )
            spec = self.spec
            edges = required_array(arrays, "edges", dtype="<f8", ndim=1)
            weights = required_array(arrays, "weights", dtype="<i8", ndim=1)
            shards_meta = meta.get("shards")
            num_strips = int(edges.size) + 1
            if (
                not isinstance(shards_meta, list)
                or len(shards_meta) != num_strips
                or weights.shape[0] != num_strips
            ):
                raise ArtifactCorruptError(
                    f"artifact plan is inconsistent: {edges.size} edges imply "
                    f"{num_strips} strips but it records "
                    f"{len(shards_meta) if isinstance(shards_meta, list) else '?'} "
                    f"shards and {weights.shape[0]} weights"
                )
            shards: list[Shard] = []
            reports: list[ShardBuildReport] = []
            covered = 0
            for index, entry in enumerate(shards_meta):
                r_indices = required_array(
                    arrays, f"shard{index}.r_indices", dtype="<i8", ndim=1
                )
                s_indices = required_array(
                    arrays, f"shard{index}.s_indices", dtype="<i8", ndim=1
                )
                if r_indices.size and (
                    int(r_indices.min()) < 0 or int(r_indices.max()) >= spec.n
                ):
                    raise ArtifactCorruptError(
                        f"shard {index} outer membership indexes out of range"
                    )
                if s_indices.size and (
                    int(s_indices.min()) < 0 or int(s_indices.max()) >= spec.m
                ):
                    raise ArtifactCorruptError(
                        f"shard {index} inner membership indexes out of range"
                    )
                covered += int(r_indices.size)
                shards.append(
                    Shard(
                        index=index,
                        x_lo=float(edges[index - 1]) if index > 0 else -np.inf,
                        x_hi=float(edges[index]) if index < edges.size else np.inf,
                        r_indices=r_indices,
                        s_indices=s_indices,
                    )
                )
                reports.append(
                    ShardBuildReport(
                        index=index,
                        weight=int(weights[index]),
                        n=int(r_indices.size),
                        m=int(s_indices.size),
                        count_seconds=0.0,
                        prepare_seconds=0.0,
                        index_nbytes=int(
                            entry.get("index_nbytes", 0)
                            if isinstance(entry, dict)
                            else 0
                        ),
                    )
                )
            if covered != spec.n:
                raise ArtifactCorruptError(
                    f"artifact strips cover {covered} outer points but the "
                    f"spec has {spec.n}; the membership arrays are stale"
                )
            total = int(weights.sum())
            if total != int(meta.get("total", total)):
                raise ArtifactCorruptError(
                    f"artifact weights sum to {total} but it records "
                    f"total={meta.get('total')!r}"
                )
            plan = ShardPlan(
                half_extent=spec.half_extent,
                jobs=self._jobs,
                edges=np.asarray(edges),
                shards=tuple(shards),
            )

            leases: list[WorkerLease | None] = [None] * len(shards)
            local_samplers: list[JoinSampler | None] = [None] * len(shards)
            tasks = {
                index: _ShardTask(
                    index=index,
                    algorithm=self._algorithm,
                    spec=plan.subspec(spec, shards[index]),
                    sampler_options=self._sampler_options,
                )
                for index, report in enumerate(reports)
                if report.weight > 0
            }
            shard_dirs = {
                index: os.path.join(path, "shards", str(index)) for index in tasks
            }
            use_pool = self._use_processes and self._jobs > 1 and not self._pool_broken
            denied: set[int] = set()
            if use_pool:
                pool = self._resolve_pool()
                self._denied_generation = pool.share_generation
                futures: dict[int, Any] = {}
                try:
                    for index, task in tasks.items():
                        lease = pool.lease(self._owner)
                        if lease is None:
                            denied.add(index)
                            continue
                        leases[index] = lease
                        futures[index] = lease.submit(
                            _resident_attach,
                            task,
                            shard_dirs[index],
                            reports[index].weight,
                        )
                    for index, future in futures.items():
                        reports[index] = future.result()
                except OSError:
                    # Worker processes unavailable: fall back to the
                    # bit-identical in-process attach for every shard.
                    self._release_leases(leases, discard=True)
                    leases = [None] * len(shards)
                    denied = set()
                    self._pool_broken = True
                    use_pool = False
            if not use_pool:
                denied = set()
                for index, task in tasks.items():
                    reports[index], local_samplers[index] = _attach_shard(
                        task, shard_dirs[index], reports[index].weight
                    )
            for index in denied:
                reports[index], local_samplers[index] = _attach_shard(
                    tasks[index], shard_dirs[index], reports[index].weight
                )
            self._denied_indices = set(denied)

            self._plan = plan
            self._preprocessed = True
            self._shard_locks = [make_lock("shard") for _ in shards]
            self._build_seconds = 0.0
            self._count_seconds = 0.0
            self._built = PreparedShards(
                plan=plan,
                weights=np.asarray(weights),
                total=total,
                alias=AliasTable(weights) if total > 0 else None,
                reports=reports,
                local_samplers=local_samplers,
                leases=leases,
            )

    # ------------------------------------------------------------------
    # Dynamic updates: delta-aware re-routing of the shard composition
    # ------------------------------------------------------------------
    def apply_update(
        self,
        spec: JoinSpec,
        r_interval: tuple[float, float] | None = None,
        s_interval: tuple[float, float] | None = None,
        skew_factor: float = 2.0,
    ) -> dict[str, Any]:
        """Re-route the composition after ``(R, S)`` changed, rebuilding minimally.

        ``spec`` is the *new* join instance; ``r_interval`` / ``s_interval``
        are closed x-ranges covering every inserted or deleted point of the
        respective side (``None`` when that side did not change).  Only the
        shards whose strip (R side) or halo'd slice (S side) intersects a
        changed interval rebuild their resident samplers and exact ``|J_i|``
        counts; every other shard keeps its prepared worker untouched, and
        the top-level alias is rebuilt over the updated exact weights - so
        the composed distribution stays exactly uniform over the new join.

        The strip plan itself is kept unless the update skews the x-quantile
        balance past ``skew_factor`` times the fair share (then the whole
        engine resets and the next request replans from scratch).

        Correctness of the kept shards relies on updates being confined to
        the declared intervals *and* on order-preserving point compaction
        (deletion keeps the relative order of survivors; insertion appends),
        which is what :class:`repro.dynamic.store.DynamicPointStore` and
        ``SamplingSession.update`` guarantee: an untouched shard then selects
        the same points in the same order from the new arrays.
        """
        with self._build_lock:
            if self._closed:
                raise SessionClosedError("the sharded sampler is closed")
            built = self._built
            if built is None:
                # Nothing prepared yet: just re-aim the sampler; the next
                # request plans and builds against the new instance.
                self._spec = spec
                self._plan = None
                self._preprocessed = False
                return {"replanned": True, "rebuilt_shards": [], "kept_shards": []}

            plan = built.plan
            half = plan.half_extent
            r_xs = spec.r_points.xs
            n = int(r_xs.shape[0])
            strip_of = (
                np.searchsorted(plan.edges, r_xs, side="right")
                if n
                else np.empty(0, dtype=np.int64)
            )
            counts = np.bincount(strip_of, minlength=len(plan.shards))
            fair = max(1.0, n / max(len(plan.shards), 1))
            if n == 0 or (len(plan.shards) > 1 and counts.max() > skew_factor * fair + 16):
                # The x-quantile balance degraded (or R vanished): reset and
                # let the next request replan cleanly.
                self._release_leases(built.leases)
                self._built = None
                self._plan = None
                self._preprocessed = False
                self._spec = spec
                self._denied_indices.clear()
                return {
                    "replanned": True,
                    "rebuilt_shards": list(range(len(plan.shards))),
                    "kept_shards": [],
                }

            # Same edges, fresh membership arrays: surviving points keep
            # their relative order, so untouched shards select the same
            # points in the same order under the new positional indices.
            s_xs = spec.s_points.xs
            new_shards: list[Shard] = []
            affected: list[int] = []
            for shard in plan.shards:
                r_indices = np.flatnonzero(strip_of == shard.index)
                s_mask = (s_xs >= shard.x_lo - half) & (s_xs <= shard.x_hi + half)
                new_shards.append(
                    Shard(
                        index=shard.index,
                        x_lo=shard.x_lo,
                        x_hi=shard.x_hi,
                        r_indices=r_indices,
                        s_indices=np.flatnonzero(s_mask),
                    )
                )
                touches_r = r_interval is not None and (
                    r_interval[0] < shard.x_hi and r_interval[1] >= shard.x_lo
                )
                touches_s = s_interval is not None and (
                    s_interval[0] <= shard.x_hi + half
                    and s_interval[1] >= shard.x_lo - half
                )
                if touches_r or touches_s:
                    affected.append(shard.index)

            new_plan = ShardPlan(
                half_extent=half,
                jobs=plan.jobs,
                edges=plan.edges,
                shards=tuple(new_shards),
            )
            pool_mode = (
                self._use_processes and not self._pool_broken
            ) and any(lease is not None for lease in built.leases)

            # Freeze every shard for the swap: draws must not interleave with
            # a half-updated composition (locks are acquired in index order;
            # the draw path takes one shard lock at a time, so no deadlock).
            for lock in self._shard_locks:
                lock.acquire()
            try:
                futures: dict[int, Any] = {}
                for index in affected:
                    task = _ShardTask(
                        index=index,
                        algorithm=self._algorithm,
                        spec=new_plan.subspec(spec, new_shards[index]),
                        sampler_options=self._sampler_options,
                    )
                    if task.spec.is_empty:
                        built.reports[index] = _empty_report(task)
                        built.local_samplers[index] = None
                        lease = built.leases[index]
                        if lease is not None:
                            # The shard became empty: return its worker.
                            lease.release()
                            built.leases[index] = None
                        continue
                    lease = built.leases[index]
                    if lease is None and pool_mode:
                        # This shard had no worker (empty at build time, or
                        # its lease was denied); it has points now - ask
                        # again, falling back in-process when still denied.
                        lease = self._resolve_pool().lease(self._owner)
                        built.leases[index] = lease
                    if lease is not None:
                        futures[index] = lease.submit(_resident_build, task)
                        built.local_samplers[index] = None
                    else:
                        report, sampler = _count_and_build(task)
                        built.reports[index] = report
                        built.local_samplers[index] = sampler
                for index, future in futures.items():
                    built.reports[index] = future.result()

                weights = np.array(
                    [report.weight for report in built.reports], dtype=np.int64
                )
                total = int(weights.sum())
                built.weights = weights
                built.total = total
                built.alias = AliasTable(weights) if total > 0 else None
                built.plan = new_plan
                self._plan = new_plan
                self._spec = spec
                # Refresh the denied-shard set: shards that (still) serve
                # in-process after this pass are rebalance() candidates.
                self._denied_indices = {
                    index
                    for index, lease in enumerate(built.leases)
                    if lease is None and built.local_samplers[index] is not None
                }
                if pool_mode:
                    self._denied_generation = self._resolve_pool().share_generation
            finally:
                for lock in self._shard_locks:
                    lock.release()
            return {
                "replanned": False,
                "rebuilt_shards": affected,
                "kept_shards": [
                    shard.index for shard in new_shards if shard.index not in affected
                ],
            }

    def close(self) -> None:
        """Release the worker leases back to the pool (idempotent).

        The warm worker processes survive for the next sampler; only the
        pool itself (or interpreter exit) shuts them down.
        """
        with self._build_lock:
            self._closed = True
            self._denied_indices.clear()
            built = self._built
            if built is None:
                return
            self._release_leases(built.leases)
            built.leases = [None] * len(built.leases)
            self._built = None

    def __enter__(self) -> "ShardedSampler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
