"""The session-based public API: open once, draw many times.

The paper's entire point is drawing independent samples from a spatial range
join *without* materialising it - which only pays off when the offline phase
(Table II) and the online build/count phases (Tables III/IV: GM + UB) are
amortised over many requests.  :class:`SamplingSession` is the request/response
surface that does that amortisation:

>>> import numpy as np
>>> from repro import SamplingSession, split_r_s, uniform_points
>>> rng = np.random.default_rng(0)
>>> r_points, s_points = split_r_s(uniform_points(2_000, rng), rng)
>>> with SamplingSession(r_points, s_points, half_extent=200.0) as session:
...     first = session.draw(100, seed=0)       # builds + counts + samples
...     second = session.draw(100, seed=1)      # only samples
>>> second.timings.build_seconds == second.timings.count_seconds == 0.0
True

The session caches one prepared sampler per ``(algorithm, half_extent,
jobs)`` key, so requests with different window sizes, algorithms or worker
counts coexist without rebuilding each other's structures.
``algorithm="auto"`` (the default) resolves through
:func:`repro.api.planner.plan_algorithm` and the decision is retrievable with
:meth:`SamplingSession.plan`.

``jobs`` selects the shard-parallel engine: ``jobs >= 2`` builds and counts
the instance in a worker-process pool through
:class:`~repro.parallel.sharded.ShardedSampler` and serves draws from any
thread behind per-shard locks; ``jobs=0`` ("auto") uses the planner's
recommended worker count; ``jobs=None``/``1`` keeps the serial path.  Serial
entries are served behind a per-entry lock, so a session is thread-safe at
every ``jobs`` setting (concurrent draws are safe but interleave generator
state, so run-to-run reproducibility requires one request at a time).

Determinism contract: ``session.draw(t, seed=s)`` returns **bit-identical**
pairs to the one-shot ``create_sampler(name, spec).sample(t, seed=s)`` for the
same ``(spec, algorithm, seed)``, because the cached build/count phases
consume no randomness.  The differential tests in ``tests/api`` pin this.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.api.planner import PlanReport, plan_algorithm
from repro.artifacts import attach_sampler_artifact, save_sampler_artifact
from repro.core.base import (
    JoinSampler,
    JoinSampleResult,
    SamplePair,
    resolve_rng,
    validate_seed,
)
from repro.core.config import JoinSpec
from repro.core.registry import canonical_name, get_sampler
from repro.core.validation import validate_half_extent, validate_jobs
from repro.devtools.lockcheck import LockLike, make_lock
from repro.dynamic.sampler import DynamicSampler
from repro.dynamic.store import DynamicPointStore
from repro.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMismatchError,
    InvalidSpecError,
    MaintenanceError,
    SessionClosedError,
    StaleInputError,
    UnknownKeyError,
)
from repro.geometry.point import PointSet
from repro.parallel.pool import WorkerPool
from repro.parallel.sharded import ShardedSampler

__all__ = ["SamplingSession", "SessionStats"]

#: On-disk name of the session-level manifest (maps cache keys to the
#: per-entry artifact directories and pins the input fingerprints).
SESSION_MANIFEST = "session.json"

#: Version of the session manifest layout.
SESSION_FORMAT_VERSION = 1

#: The planner sentinel accepted wherever an algorithm name is.
AUTO = "auto"

#: ``jobs`` sentinel: let the planner recommend the worker count.
AUTO_JOBS = 0


@dataclass
class SessionStats:
    """Bookkeeping of one session's request traffic."""

    requests: int = 0
    pairs_drawn: int = 0
    prepare_hits: int = 0
    prepare_misses: int = 0
    prepare_seconds: float = 0.0
    sample_seconds: float = 0.0
    plans: int = 0
    updates: int = 0
    update_seconds: float = 0.0
    evictions: int = 0
    #: Cold keys served by attaching an on-disk artifact instead of building.
    warm_loads: int = 0

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def _close_sampler(sampler: JoinSampler) -> None:
    """Release what a sampler holds beyond memory (a sharded engine's workers)."""
    closer = getattr(sampler, "close", None)
    if callable(closer):
        closer()


@dataclass
class _CacheEntry:
    sampler: JoinSampler
    spec: JoinSpec
    # Serial samplers share unsynchronised structures, so their draws are
    # serialised per entry; sharded samplers lock per shard internally and
    # leave this None so concurrent requests can proceed on disjoint shards.
    lock: LockLike | None = field(default=None, repr=False)
    # Eviction bookkeeping (all mutated under the session lock).  ``pins``
    # counts in-flight requests holding the entry: an external owner (the
    # manager) may only evict entries with ``pins == 0``, which is what makes
    # eviction safe while another thread is mid-draw on the same key.
    nbytes: int = 0
    prepare_seconds: float = 0.0
    last_used: float = 0.0
    pins: int = 0

    def guard(self) -> contextlib.AbstractContextManager[Any]:
        """The entry lock, or a no-op context for a sharded entry."""
        return self.lock if self.lock is not None else contextlib.nullcontext()


class SamplingSession:
    """A long-lived sampling service over one ``(R, S)`` pair.

    Parameters
    ----------
    r_points, s_points:
        The two point sets of the join (``R`` centres the windows).
    half_extent:
        Default window half-extent ``l``; individual requests may override it.
    algorithm:
        Default algorithm name (any name/alias registered with
        :func:`repro.core.registry.register_sampler`) or ``"auto"`` to let the
        planner choose per ``half_extent``.
    jobs:
        Default worker/shard count: ``None`` or ``1`` serves requests with
        the serial samplers, ``>= 2`` with the shard-parallel engine, and
        ``0`` asks the planner to recommend a count per ``half_extent``.
        Individual requests may override it.
    eager:
        When true (default), the default ``(algorithm, half_extent)`` key is
        resolved and fully prepared in the constructor, so the first request
        pays no build/count latency.
    backend:
        Kernel backend serving the samplers' hot loops: ``"numpy"`` (the
        reference twin), ``"numba"`` (compiled; raises
        :class:`~repro.errors.KernelBackendError` when numba is not
        installed) or ``"auto"`` (numba when available, else numpy).
        ``None`` defers to the ``REPRO_KERNEL_BACKEND`` environment
        variable, then ``"auto"``.  Resolved once at open time; the
        resolved name is recorded in :meth:`describe`.  Draws are
        bit-identical across backends.
    sampler_options:
        Extra keyword arguments forwarded to every sampler constructor
        (e.g. ``{"batch_size": 4096}``).
    pool:
        The :class:`~repro.parallel.pool.WorkerPool` sharded entries lease
        workers from (default: the process-wide shared pool).  A
        :class:`~repro.manager.SessionManager` injects its own pool here.
    owner:
        Fairness identity the session presents to the worker pool; the
        manager passes the tenant id so all of one tenant's entries count
        against one fairness share.
    max_jobs:
        Clamp on *planner-recommended* worker counts (``jobs=0``); explicit
        ``jobs`` requests are honoured and arbitrated at lease time instead.
        The manager sets this to the tenant's fair share of the pool.
    artifact_dir:
        Optional directory of persisted prepared-state artifacts (see
        :meth:`save` / :meth:`load`).  When it holds a session manifest for
        the *same* input points, cold cache keys warm-start by attaching the
        memmapped on-disk arrays instead of rebuilding; a manifest recorded
        for different points raises
        :class:`~repro.errors.ArtifactMismatchError` at open time (a stale
        artifact must never silently serve wrong draws).
    """

    def __init__(
        self,
        r_points: PointSet,
        s_points: PointSet,
        half_extent: float,
        *,
        algorithm: str = AUTO,
        jobs: int | None = None,
        eager: bool = True,
        backend: str | None = None,
        sampler_options: dict[str, Any] | None = None,
        pool: WorkerPool | None = None,
        owner: str | None = None,
        max_jobs: int | None = None,
        artifact_dir: str | os.PathLike[str] | None = None,
    ) -> None:
        self._r_points = r_points
        self._s_points = s_points
        self._pool = pool
        self._owner = owner
        self._max_jobs = None if max_jobs is None else validate_jobs(max_jobs, "max_jobs")
        # Staleness guard: the inputs' content at open time.  Draws verify a
        # cheap strided spot fingerprint on every request; update() and cold
        # entry builds verify the exhaustive one.  Mutating a PointSet behind
        # the session's back therefore raises instead of serving stale draws.
        self._refresh_fingerprints()
        self._default_half_extent = validate_half_extent(half_extent)
        self._default_algorithm = self._check_algorithm(algorithm)
        self._default_jobs = self._check_jobs(jobs)
        self._sampler_options = dict(sampler_options or {})
        # Resolve the kernel backend once (arg > sampler_options > env >
        # auto) so a bad name fails at open time, not at the first draw, and
        # every cached engine - serial, dynamic and sharded alike - receives
        # the same resolved name.
        from repro.kernels import resolve_backend

        self._kernel_backend = resolve_backend(
            backend if backend is not None else self._sampler_options.get("backend")
        )
        self._sampler_options["backend"] = self._kernel_backend
        self._entries: dict[tuple[str, float, int], _CacheEntry] = {}
        self._plans: dict[float, PlanReport] = {}
        self._specs: dict[float, JoinSpec] = {}
        self._closed = False
        # Guards the caches and the stats counters; prepared samplers are
        # guarded separately (per entry or per shard), so draws overlap.
        # Cold-key builds run OUTSIDE this lock behind a per-key build lock
        # (``_build_locks``), so a multi-second prepare never stalls requests
        # on already-cached keys.
        self._lock = make_lock("session", reentrant=True)
        self._build_locks: dict[tuple[str, float, int], LockLike] = {}
        self.stats = SessionStats()
        # Warm-start bookkeeping: the artifact directory and the cache-key ->
        # entry-subdirectory mapping its manifest records (empty when the
        # directory holds no manifest yet).
        self._artifact_dir = None if artifact_dir is None else os.fspath(artifact_dir)
        self._artifact_entries: dict[tuple[str, float, int], str] = {}
        if self._artifact_dir is not None:
            self._load_session_manifest(self._artifact_dir)
        if eager:
            self.prepare()

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: JoinSpec, **kwargs: Any) -> "SamplingSession":
        """Open a session over an existing :class:`JoinSpec`."""
        return cls(spec.r_points, spec.s_points, spec.half_extent, **kwargs)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Size of the outer set ``R``."""
        return len(self._r_points)

    @property
    def m(self) -> int:
        """Size of the inner set ``S``."""
        return len(self._s_points)

    @property
    def r_points(self) -> PointSet:
        """The current outer set (reflects applied :meth:`update` calls)."""
        return self._r_points

    @property
    def s_points(self) -> PointSet:
        """The current inner set (reflects applied :meth:`update` calls)."""
        return self._s_points

    @property
    def default_half_extent(self) -> float:
        return self._default_half_extent

    @property
    def default_algorithm(self) -> str:
        """The configured default (canonical name, or ``"auto"``)."""
        return self._default_algorithm

    @property
    def default_jobs(self) -> int:
        """The configured default worker count (0 = planner-recommended)."""
        return self._default_jobs

    @property
    def kernel_backend(self) -> str:
        """The resolved kernel backend every cached engine draws through."""
        return self._kernel_backend

    @property
    def cached_keys(self) -> list[tuple[str, float, int]]:
        """The ``(algorithm, half_extent, jobs)`` keys with prepared structures."""
        with self._lock:
            return sorted(self._entries)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    @staticmethod
    def _check_algorithm(algorithm: str) -> str:
        name = algorithm.strip().lower()
        if name == AUTO:
            return AUTO
        return canonical_name(name)  # raises KeyError for unknown names

    @staticmethod
    def _check_jobs(jobs: int | None) -> int:
        if jobs is None:
            return 1
        if jobs == AUTO_JOBS:
            return AUTO_JOBS
        return validate_jobs(jobs)

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("the sampling session is closed")

    def _refresh_fingerprints(self) -> None:
        self._fingerprints = {
            "full": (self._r_points.fingerprint(), self._s_points.fingerprint()),
            "spot": (
                self._r_points.spot_fingerprint(),
                self._s_points.spot_fingerprint(),
            ),
        }

    def _check_inputs_fresh(self, full: bool = False) -> None:
        """Raise if the input point sets were mutated behind the session's back.

        The session's prepared structures are built from the open-time (or
        last :meth:`update`-time) content of ``r_points`` / ``s_points``;
        in-place mutation would silently serve draws from a stale join.  The
        cheap strided spot check runs on every request; ``full=True`` (cold
        entry builds, :meth:`update`) compares the exhaustive fingerprint.

        The point sets and their fingerprints are read together under the
        session lock: :meth:`update` swaps in the new points and refreshes
        the fingerprints inside one critical section, so a request racing an
        update sees either the old pair or the new one, never a mix.
        """
        with self._lock:
            r_points, s_points = self._r_points, self._s_points
            expected = self._fingerprints["full" if full else "spot"]
        if full:
            current = (r_points.fingerprint(), s_points.fingerprint())
        else:
            current = (r_points.spot_fingerprint(), s_points.spot_fingerprint())
        if current != expected:
            raise StaleInputError(
                "the session's input point sets were mutated in place; the "
                "prepared structures are stale.  Mutate through "
                "SamplingSession.update() (or open a new session) instead."
            )

    def spec_for(self, half_extent: float | None = None) -> JoinSpec:
        """The :class:`JoinSpec` of a request (cached per ``half_extent``)."""
        l = self._default_half_extent if half_extent is None else float(half_extent)
        with self._lock:
            spec = self._specs.get(l)
            if spec is None:
                spec = JoinSpec(
                    r_points=self._r_points, s_points=self._s_points, half_extent=l
                )
                self._specs[l] = spec
            return spec

    def plan(self, half_extent: float | None = None) -> PlanReport:
        """The planner's (cached) decision for a window size."""
        self._check_open()
        spec = self.spec_for(half_extent)
        l = spec.half_extent
        with self._lock:
            report = self._plans.get(l)
            if report is None:
                report = plan_algorithm(
                    spec,
                    max_jobs=self._max_jobs,
                    kernel_backend=self._kernel_backend,
                )
                self._plans[l] = report
                self.stats.plans += 1
            return report

    def _resolve_jobs(self, jobs: int | None, half_extent: float) -> int:
        effective = self._default_jobs if jobs is None else self._check_jobs(jobs)
        if effective == AUTO_JOBS:
            effective = self.plan(half_extent).jobs
        return max(1, effective)

    def resolve(
        self,
        algorithm: str | None = None,
        half_extent: float | None = None,
        jobs: int | None = None,
    ) -> JoinSampler:
        """Get the prepared sampler serving an ``(algorithm, half_extent, jobs)`` key.

        The first request for a key constructs the sampler and runs its
        prepare step (offline + build + count - through the worker pool when
        ``jobs >= 2``); every later request is a pure cache hit, which is
        what makes repeated :meth:`draw` calls cheap.
        """
        entry = self._resolve_entry(algorithm, half_extent, jobs)
        self._release_entry(entry)
        return entry.sampler

    def _resolve_entry(
        self,
        algorithm: str | None = None,
        half_extent: float | None = None,
        jobs: int | None = None,
        *,
        verified: bool = False,
    ) -> _CacheEntry:
        """Resolve a key to its (pinned) cache entry, building it when cold.

        The returned entry has its ``pins`` count incremented: the caller
        MUST pair this with :meth:`_release_entry` (the draw paths do so in
        ``finally`` blocks), or the entry becomes permanently unevictable.
        ``verified`` skips the exhaustive input check before a cold build;
        only :meth:`load` passes it, for the entries it attaches in the same
        call that fingerprinted the inputs.
        """
        self._check_open()
        self._check_inputs_fresh()
        spec = self.spec_for(half_extent)
        name = self._default_algorithm if algorithm is None else self._check_algorithm(algorithm)
        if name == AUTO:
            name = self.plan(spec.half_extent).algorithm
        effective_jobs = self._resolve_jobs(jobs, spec.half_extent)
        key = (name, spec.half_extent, effective_jobs)
        with self._lock:
            entry = self._pin_cached(key)
            if entry is not None:
                return entry
            build_lock = self._build_locks.setdefault(key, make_lock("session-build"))
        # Build outside the session lock: a cold-key prepare can take seconds
        # (or lease worker processes), and requests on cached keys must not
        # wait for it.  Concurrent requests for the *same* cold key serialise
        # on the per-key build lock; the loser finds the entry cached.
        with build_lock:
            with self._lock:
                entry = self._pin_cached(key)
            if entry is not None:
                return entry
            if not verified:
                self._check_inputs_fresh(full=True)
            artifact = self._artifact_path(key)
            entry = self._new_entry(key, spec, artifact)
            with self._lock:
                if self._closed:
                    # The session closed while this key was being built;
                    # do not cache (and do not leak resident workers).
                    _close_sampler(entry.sampler)
                    raise SessionClosedError("the sampling session is closed")
                self._entries[key] = entry
                if artifact is None:
                    self.stats.prepare_misses += 1
                else:
                    self.stats.warm_loads += 1
                self.stats.prepare_seconds += entry.prepare_seconds
            return entry

    def _pin_cached(self, key: tuple[str, float, int]) -> _CacheEntry | None:
        """Pin and return the cached entry of ``key`` (the session lock is held)."""
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.prepare_hits += 1
            entry.pins += 1
            entry.last_used = time.monotonic()
        return entry

    def _new_entry(
        self, key: tuple[str, float, int], spec: JoinSpec, artifact: str | None
    ) -> _CacheEntry:
        """Construct the sampler of a cold key, then prepare it or attach ``artifact``.

        ``jobs >= 2`` keys are served by the shard-parallel engine, which
        locks per shard, so its entry carries no lock.  Maintainable
        algorithms are served through the dynamic wrapper, so
        :meth:`update` can patch their structures in place instead of
        dropping the entry; before the first update the wrapper is a pure
        pass-through (draws are bit-identical to the plain sampler).  A
        recorded artifact that fails to attach raises its typed
        :class:`~repro.errors.ArtifactError` - a stale or corrupt artifact
        must never silently degrade into a rebuild with different state.
        """
        name, _half_extent, jobs = key
        start = time.perf_counter()
        sampler: JoinSampler
        if jobs > 1:
            sampler = ShardedSampler(
                spec,
                algorithm=name,
                jobs=jobs,
                sampler_options=self._sampler_options,
                pool=self._pool,
                owner=self._owner,
            )
        elif get_sampler(name).supports_updates:
            sampler = DynamicSampler(spec, algorithm=name, **self._sampler_options)
        else:
            sampler = get_sampler(name).create(spec, **self._sampler_options)
        try:
            if artifact is None:
                timings = sampler.prepare()
                prepare_seconds = timings.preprocess_seconds + timings.total_seconds
            else:
                if isinstance(sampler, ShardedSampler):
                    sampler.attach_artifact(artifact)
                else:
                    attach_sampler_artifact(sampler, artifact)
                prepare_seconds = time.perf_counter() - start
        except BaseException:
            _close_sampler(sampler)
            raise
        return _CacheEntry(
            sampler=sampler,
            spec=spec,
            lock=None if jobs > 1 else make_lock("entry"),
            nbytes=sampler.index_nbytes(),
            prepare_seconds=prepare_seconds,
            last_used=time.monotonic(),
            pins=1,
        )

    def _release_entry(self, entry: _CacheEntry) -> None:
        """Unpin an entry returned by :meth:`_resolve_entry`."""
        with self._lock:
            entry.pins = max(0, entry.pins - 1)
            entry.last_used = time.monotonic()

    @contextlib.contextmanager
    def _pinned(
        self,
        algorithm: str | None,
        half_extent: float | None,
        jobs: int | None,
    ) -> Iterator[JoinSampler]:
        """Resolve and pin a key's entry and hold its lock around the body.

        Serial entries serialise their draws on the entry lock; sharded
        entries lock per shard internally and get a no-op context, so
        concurrent requests can proceed on disjoint shards.
        """
        entry = self._resolve_entry(algorithm, half_extent, jobs)
        try:
            with entry.guard():
                yield entry.sampler
        finally:
            self._release_entry(entry)

    # ------------------------------------------------------------------
    # External cache ownership (what the manager drives)
    # ------------------------------------------------------------------
    def cache_entries(self) -> list[dict[str, Any]]:
        """Eviction-relevant metadata of every prepared entry (a snapshot).

        Each row carries the cache ``key``, the structure footprint
        ``nbytes`` (from ``index_nbytes`` - worker-resident bytes included),
        the build cost ``prepare_seconds``, the monotonic ``last_used``
        stamp, and the current ``pins`` count.  The manager ranks these for
        cost-aware LRU eviction.
        """
        with self._lock:
            return [
                {
                    "key": key,
                    "nbytes": entry.nbytes,
                    "prepare_seconds": entry.prepare_seconds,
                    "last_used": entry.last_used,
                    "pins": entry.pins,
                }
                for key, entry in self._entries.items()
            ]

    def cached_nbytes(self) -> int:
        """Total tracked footprint of the prepared entries."""
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    def evict(self, key: tuple[str, float, int]) -> bool:
        """Drop one prepared entry (and its build lock); False when pinned.

        Eviction is transparent: the determinism contract (prepare consumes
        no randomness) means the lazily re-prepared entry serves draws
        **bit-identical** to the evicted one, so an external owner may evict
        under memory pressure without changing any distribution.  A pinned
        entry (in-flight draw) is left alone - the caller retries later.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.pins > 0:
                return False
            del self._entries[key]
            self._build_locks.pop(key, None)
            self.stats.evictions += 1
        # Close outside the session lock: a sharded entry releases worker
        # leases, which must not serialise against concurrent draws.
        _close_sampler(entry.sampler)
        return True

    def prepare(
        self,
        algorithm: str | None = None,
        half_extent: float | None = None,
        jobs: int | None = None,
    ) -> JoinSampler:
        """Eagerly prepare a key without drawing (alias of :meth:`resolve`)."""
        return self.resolve(algorithm, half_extent, jobs)

    # ------------------------------------------------------------------
    # Persistence: save prepared state, warm-start from disk
    # ------------------------------------------------------------------
    @property
    def artifact_dir(self) -> str | None:
        """The directory cold keys warm-start from (``None`` when unset)."""
        return self._artifact_dir

    def has_artifact_for(self, key: tuple[str, float, int]) -> bool:
        """Whether the warm-start directory records an artifact for ``key``.

        The mapping reflects the last :meth:`save` (or the manifest read at
        open time) and is cleared by :meth:`update`, whose new points make
        every on-disk artifact stale.
        """
        with self._lock:
            return key in self._artifact_entries

    def _load_session_manifest(self, path: str) -> None:
        """Read the session manifest of ``path`` into the warm-start mapping.

        A missing manifest is fine (a fresh directory :meth:`save` will
        populate); a manifest recorded for *different* input points raises
        :class:`~repro.errors.ArtifactMismatchError`, and a malformed one
        :class:`~repro.errors.ArtifactCorruptError`.
        """
        manifest_path = os.path.join(path, SESSION_MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError) as exc:
            raise ArtifactCorruptError(
                f"unreadable session manifest: {manifest_path} ({exc})"
            ) from exc
        if not isinstance(manifest, dict):
            raise ArtifactCorruptError(
                f"session manifest is not an object: {manifest_path}"
            )
        version = manifest.get("format_version")
        if version != SESSION_FORMAT_VERSION:
            raise ArtifactCorruptError(
                f"session manifest declares format version {version!r}, "
                f"supported: {SESSION_FORMAT_VERSION} ({manifest_path})"
            )
        saved = manifest.get("fingerprints")
        if not isinstance(saved, dict):
            raise ArtifactCorruptError(
                f"session manifest is missing its fingerprints: {manifest_path}"
            )
        r_full, s_full = self._fingerprints["full"]
        if saved.get("r_full") != r_full or saved.get("s_full") != s_full:
            raise ArtifactMismatchError(
                f"the artifacts in {path} were built for different input "
                "points (content fingerprints do not match); refusing to "
                "warm-start.  Rebuild with save(), or pass the original "
                "point sets."
            )
        entries = manifest.get("entries")
        if not isinstance(entries, list):
            raise ArtifactCorruptError(
                f"session manifest is missing its entries list: {manifest_path}"
            )
        mapping: dict[tuple[str, float, int], str] = {}
        for row in entries:
            if (
                not isinstance(row, dict)
                or not isinstance(row.get("algorithm"), str)
                or not isinstance(row.get("dir"), str)
            ):
                raise ArtifactCorruptError(
                    f"malformed session manifest entry {row!r}: {manifest_path}"
                )
            key = (
                row["algorithm"],
                float(row.get("half_extent", 0.0)),
                int(row.get("jobs", 1)),
            )
            mapping[key] = row["dir"]
        self._artifact_entries = mapping

    def _artifact_path(self, key: tuple[str, float, int]) -> str | None:
        """The warm-start artifact recorded for a cold key (``None`` when none is)."""
        if self._artifact_dir is None:
            return None
        relative = self._artifact_entries.get(key)
        return None if relative is None else os.path.join(self._artifact_dir, relative)

    def save(self, path: str | os.PathLike[str] | None = None) -> str:
        """Persist every prepared cache entry plus the session manifest.

        Each entry's arrays go to ``entries/<i>/`` in the versioned artifact
        format (raw little-endian blobs + manifest, loadable with
        ``np.memmap``); the session manifest records the cache keys, the
        input content fingerprints and the resolved defaults.  A session (or
        :class:`~repro.manager.SessionManager` tenant) opened over the same
        points with ``artifact_dir`` pointed here warm-starts instead of
        rebuilding.  Returns the directory written.
        """
        target = self._artifact_dir if path is None else os.fspath(path)
        if target is None:
            raise ArtifactError(
                "no path given and the session has no artifact_dir to default to"
            )
        with self._lock:
            self._check_open()
            self._check_inputs_fresh(full=True)
            snapshot = sorted(self._entries.items())
            for _key, entry in snapshot:
                entry.pins += 1
        try:
            os.makedirs(target, exist_ok=True)
            rows: list[dict[str, Any]] = []
            for position, (key, entry) in enumerate(snapshot):
                relative = os.path.join("entries", str(position))
                directory = os.path.join(target, relative)
                sampler = entry.sampler
                if isinstance(sampler, ShardedSampler):
                    sampler.save_artifact(directory)
                else:
                    with entry.guard():
                        save_sampler_artifact(sampler, directory)
                rows.append(
                    {
                        "algorithm": key[0],
                        "half_extent": key[1],
                        "jobs": key[2],
                        "dir": relative,
                    }
                )
            r_full, s_full = self._fingerprints["full"]
            r_spot, s_spot = self._fingerprints["spot"]
            manifest = {
                "format_version": SESSION_FORMAT_VERSION,
                "kind": "session",
                "n": self.n,
                "m": self.m,
                "fingerprints": {
                    "r_full": r_full,
                    "s_full": s_full,
                    "r_spot": r_spot,
                    "s_spot": s_spot,
                },
                "default_half_extent": self._default_half_extent,
                "default_algorithm": self._default_algorithm,
                "default_jobs": self._default_jobs,
                "kernel_backend": self._kernel_backend,
                "entries": rows,
            }
            staging = os.path.join(target, SESSION_MANIFEST + ".tmp")
            with open(staging, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(staging, os.path.join(target, SESSION_MANIFEST))
        finally:
            with self._lock:
                for _key, entry in snapshot:
                    entry.pins = max(0, entry.pins - 1)
        if target == self._artifact_dir:
            self._artifact_entries = {
                (row["algorithm"], row["half_extent"], row["jobs"]): row["dir"]
                for row in rows
            }
        return target

    @classmethod
    def load(
        cls,
        path: str | os.PathLike[str],
        r_points: PointSet,
        s_points: PointSet,
        *,
        half_extent: float | None = None,
        algorithm: str | None = None,
        jobs: int | None = None,
        eager: bool = True,
        **kwargs: Any,
    ) -> "SamplingSession":
        """Open a warm session over a :meth:`save` directory.

        ``r_points`` / ``s_points`` must be the points the artifacts were
        built from: their exhaustive content fingerprints are compared
        against the manifest and a mismatch raises
        :class:`~repro.errors.ArtifactMismatchError` before any entry is
        touched.  Defaults (window size, algorithm, jobs) come from the
        manifest unless overridden; the kernel backend is *re-resolved* on
        this machine, never pinned to the saving machine's.  With ``eager``
        (default) every recorded entry is attached immediately, so the first
        draw pays no build or attach latency.
        """
        path = os.fspath(path)
        manifest_path = os.path.join(path, SESSION_MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError as exc:
            raise ArtifactError(
                f"no session manifest at {manifest_path}; was the session "
                "saved with SamplingSession.save()?"
            ) from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise ArtifactCorruptError(
                f"unreadable session manifest: {manifest_path} ({exc})"
            ) from exc
        if not isinstance(manifest, dict):
            raise ArtifactCorruptError(
                f"session manifest is not an object: {manifest_path}"
            )
        if half_extent is None:
            half_extent = manifest.get("default_half_extent")
            if not isinstance(half_extent, (int, float)):
                raise ArtifactCorruptError(
                    f"session manifest records no usable default_half_extent: "
                    f"{manifest_path}"
                )
        if algorithm is None:
            saved_algorithm = manifest.get("default_algorithm")
            algorithm = saved_algorithm if isinstance(saved_algorithm, str) else AUTO
        if jobs is None:
            saved_jobs = manifest.get("default_jobs")
            jobs = saved_jobs if isinstance(saved_jobs, int) else None
        session = cls(
            r_points,
            s_points,
            float(half_extent),
            algorithm=algorithm,
            jobs=jobs,
            eager=False,
            artifact_dir=path,
            **kwargs,
        )
        if eager:
            # The constructor has just hashed the inputs in full and matched
            # them against the manifest: attach without hashing them again.
            for name, l, key_jobs in sorted(session._artifact_entries):
                session._release_entry(
                    session._resolve_entry(name, l, key_jobs, verified=True)
                )
        return session

    # ------------------------------------------------------------------
    def _record_result(self, result: JoinSampleResult) -> None:
        with self._lock:
            self.stats.requests += 1
            self.stats.pairs_drawn += len(result)
            self.stats.sample_seconds += result.timings.sample_seconds

    def draw(
        self,
        t: int,
        *,
        algorithm: str | None = None,
        half_extent: float | None = None,
        jobs: int | None = None,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> JoinSampleResult:
        """Serve one sampling request: ``t`` uniform, independent join samples.

        Bit-identical to the one-shot path for the same ``(spec, algorithm,
        seed)``; after the first request per ``(algorithm, half_extent,
        jobs)`` key the reported build/count timings are ~0.
        """
        rng = resolve_rng(rng, seed)
        with self._pinned(algorithm, half_extent, jobs) as sampler:
            result = sampler.sample(t, rng=rng)
        self._record_result(result)
        return result

    def draw_distinct(
        self,
        t: int,
        *,
        algorithm: str | None = None,
        half_extent: float | None = None,
        jobs: int | None = None,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> JoinSampleResult:
        """``t`` *distinct* join pairs (the without-replacement extension)."""
        rng = resolve_rng(rng, seed)
        with self._pinned(algorithm, half_extent, jobs) as sampler:
            result = sampler.sample_without_replacement(t, rng=rng)
        self._record_result(result)
        return result

    def draw_batch(
        self,
        requests: Sequence[tuple[int, int | None]],
        *,
        algorithm: str | None = None,
        half_extent: float | None = None,
        jobs: int | None = None,
        distinct: bool = False,
    ) -> list[JoinSampleResult]:
        """Serve many ``(t, seed)`` requests against one cache entry in one pass.

        This is the coalescing primitive the async service batches concurrent
        per-tenant draws with: the entry is resolved, pinned and locked
        **once** for the whole batch, so N small coalesced requests pay one
        cache/lock round-trip instead of N.  Each request gets its own fresh
        generator from its seed - exactly what ``draw(t, seed=seed)`` uses -
        so every returned result is **bit-identical** to the same request
        served alone, serially, or by a twin session.  ``distinct=True``
        serves every request without replacement (the ``draw_distinct``
        twin).
        """
        for t, seed in requests:
            if t < 0:
                raise InvalidSpecError("every batched t must be non-negative")
            validate_seed(seed)
        if not requests:
            return []
        with self._pinned(algorithm, half_extent, jobs) as sampler:
            draw_one = (
                sampler.sample_without_replacement if distinct else sampler.sample
            )
            results = [draw_one(t, rng=resolve_rng(None, seed)) for t, seed in requests]
        for result in results:
            self._record_result(result)
        return results

    def stream(
        self,
        t: int | None = None,
        *,
        chunk_size: int = 1_024,
        algorithm: str | None = None,
        half_extent: float | None = None,
        jobs: int | None = None,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> Iterator[list[SamplePair]]:
        """Yield samples in chunks of (at most) ``chunk_size`` pairs.

        ``t=None`` streams indefinitely (Definition 2 allows ``t = ∞``); a
        finite ``t`` yields ``ceil(t / chunk_size)`` chunks totalling exactly
        ``t`` pairs.  Arguments are validated and the structures prepared
        *at call time* (not at the first ``next()``), so the consumer
        observes a flat per-chunk latency from the first chunk on.
        """
        if chunk_size < 1:
            raise InvalidSpecError("chunk_size must be at least 1")
        if t is not None and t < 0:
            raise InvalidSpecError(
                "t must be non-negative (or None for an endless stream)"
            )
        rng = resolve_rng(rng, seed)
        # Validate arguments and prepare the structures at call time (not at
        # the first next()), then release the pin: each chunk re-checks the
        # cache below, so an endless stream never pins its entry forever -
        # an external owner may evict it between chunks and the re-prepared
        # entry continues the stream bit-identically (prepare consumes no
        # randomness; the stream's generator carries the randomness).
        self._release_entry(self._resolve_entry(algorithm, half_extent, jobs))

        def chunks() -> Iterator[list[SamplePair]]:
            remaining = t
            while remaining is None or remaining > 0:
                self._check_open()
                size = chunk_size if remaining is None else min(chunk_size, remaining)
                with self._pinned(algorithm, half_extent, jobs) as sampler:
                    result = sampler.sample(size, rng=rng)
                self._record_result(result)
                yield result.pairs
                if remaining is not None:
                    remaining -= size

        return chunks()

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def update(
        self,
        side: str,
        insert: PointSet | tuple[np.ndarray, np.ndarray] | None = None,
        delete: np.ndarray | None = None,
    ) -> dict[str, Any]:
        """Insert and/or delete points of one side with delta-aware cache upkeep.

        Deletions are applied before insertions.  Every cached engine is
        handled according to what its state supports:

        * serial entries of maintainable algorithms (wrapped in
          :class:`~repro.dynamic.DynamicSampler`) patch their structures in
          place - grid cells, per-cell corner structures and bound-matrix
          rows - and are then flushed (:meth:`DynamicSampler.flush`) back
          into the canonical fresh-build state.  The flush costs one O(n)
          alias rebuild per batch, and it is what keeps external eviction
          transparent: a session entry always draws bit-identically to a
          fresh build over the current points, so an owner (the
          :class:`~repro.manager.SessionManager`) may evict it at any moment
          and the lazily re-prepared replacement changes no distribution;
        * sharded entries re-route through updated per-shard ``|J_i|``
          weights: only the shards whose x-range the change touches are
          rebuilt in their resident workers, and the strip plan is redone
          only when the update skews the x-quantiles past a bound;
        * everything else (non-maintainable serial engines) is dropped and
          rebuilt lazily on the next request.

        Returns a report of what was kept, resharded and dropped.  This is
        the *only* sanctioned way to change the session's data: in-place
        mutation of the input :class:`PointSet` arrays is detected by the
        content-fingerprint guard and fails the next request.
        """
        if side not in ("r", "s"):
            raise InvalidSpecError(f"side must be 'r' or 's', got {side!r}")
        start = time.perf_counter()
        with self._lock:
            self._check_open()
            self._check_inputs_fresh(full=True)
            current = self._r_points if side == "r" else self._s_points

            delete_ids = (
                np.asarray(delete, dtype=np.int64)
                if delete is not None
                else np.empty(0, dtype=np.int64)
            )
            if insert is None:
                ins_xs = np.empty(0)
                ins_ys = np.empty(0)
                ins_ids: np.ndarray | None = np.empty(0, dtype=np.int64)
            elif isinstance(insert, PointSet):
                ins_xs, ins_ys, ins_ids = insert.xs, insert.ys, insert.ids
            else:
                ins_xs = np.asarray(insert[0], dtype=np.float64)
                ins_ys = np.asarray(insert[1], dtype=np.float64)
                ins_ids = None  # the store auto-assigns fresh ids

            # Apply the batch to a *transient* store first: it is the single
            # source of truth for validation (unknown/duplicate delete ids,
            # id collisions, finite coordinates) and for the delete-then-
            # insert compaction order every maintained engine re-applies.  A
            # failure here leaves the session (and every cached engine)
            # exactly as it was.
            store = DynamicPointStore(current)
            try:
                _positions, deleted_xs, _ys = store.delete(delete_ids)
            except KeyError as exc:
                raise UnknownKeyError(f"cannot delete unknown point ids: {exc}") from None
            ins_ids = store.insert(ins_xs, ins_ys, ids=ins_ids)
            new_side = store.snapshot()
            changed_xs = np.concatenate((deleted_xs, ins_xs))
            interval = (
                (float(changed_xs.min()), float(changed_xs.max()))
                if changed_xs.size
                else None
            )
            if side == "r":
                self._r_points = new_side
            else:
                self._s_points = new_side

            kept: list[tuple[str, float, int]] = []
            resharded: list[tuple[str, float, int]] = []
            dropped: list[tuple[str, float, int]] = []
            failures: list[str] = []
            for key, entry in list(self._entries.items()):
                _name, half_extent, _jobs = key
                new_spec = JoinSpec(
                    r_points=self._r_points,
                    s_points=self._s_points,
                    half_extent=half_extent,
                )
                sampler = entry.sampler
                try:
                    if isinstance(sampler, DynamicSampler):
                        lock = entry.lock
                        assert lock is not None
                        with lock:
                            sampler.update(
                                side,
                                insert=(ins_xs, ins_ys) if ins_xs.size else None,
                                insert_ids=ins_ids if ins_xs.size else None,
                                delete=delete_ids if delete_ids.size else None,
                            )
                            sampler.flush()
                        entry.spec = new_spec
                        entry.nbytes = sampler.index_nbytes()
                        kept.append(key)
                    elif isinstance(sampler, ShardedSampler):
                        sampler.apply_update(
                            new_spec,
                            r_interval=interval if side == "r" else None,
                            s_interval=interval if side == "s" else None,
                        )
                        entry.spec = new_spec
                        entry.nbytes = sampler.index_nbytes()
                        resharded.append(key)
                    else:
                        _close_sampler(sampler)
                        del self._entries[key]
                        # Dropped entries take their per-key build lock with
                        # them: the lock map would otherwise grow by one dead
                        # lock per dropped key for the session's lifetime.
                        self._build_locks.pop(key, None)
                        dropped.append(key)
                except Exception as exc:
                    # Fault isolation: a failed engine must not leave the
                    # session half-updated.  Drop the entry (it rebuilds
                    # lazily from the new data on the next request) and keep
                    # the remaining engines consistent.
                    with contextlib.suppress(Exception):  # best effort
                        _close_sampler(sampler)
                    self._entries.pop(key, None)
                    self._build_locks.pop(key, None)
                    dropped.append(key)
                    failures.append(f"{key}: {exc}")

            # Workload statistics changed: cached specs and plans are stale.
            self._specs.clear()
            self._plans.clear()
            self._refresh_fingerprints()
            # On-disk artifacts were built for the *previous* points; serving
            # them to the updated session would be silently wrong.  Forget
            # the mapping until the next save() re-records it.
            self._artifact_entries.clear()
            self.stats.updates += 1
            self.stats.update_seconds += time.perf_counter() - start
            if failures:
                raise MaintenanceError(
                    "the update was applied, but some cached engines failed "
                    "to maintain their structures and were dropped (they "
                    "rebuild on the next request): " + "; ".join(failures)
                )
            return {
                "side": side,
                "inserted": int(ins_xs.shape[0]),
                "deleted": int(delete_ids.size),
                "maintained": [list(key) for key in kept],
                "resharded": [list(key) for key in resharded],
                "dropped": [list(key) for key in dropped],
            }

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of the session (service introspection)."""
        with self._lock:
            return {
                "n": self.n,
                "m": self.m,
                "default_half_extent": self._default_half_extent,
                "default_algorithm": self._default_algorithm,
                "default_jobs": self._default_jobs,
                "kernel_backend": self._kernel_backend,
                "artifact_dir": self._artifact_dir,
                "cached_keys": [list(key) for key in sorted(self._entries)],
                "index_nbytes": {
                    f"{name}@{l:g}x{jobs}": entry.sampler.index_nbytes()
                    for (name, l, jobs), entry in sorted(self._entries.items())
                },
                "stats": self.stats.as_dict(),
                "closed": self._closed,
            }

    def close(self) -> None:
        """Drop every cached structure; later requests raise
        :class:`~repro.errors.SessionClosedError`.

        Sharded entries release their worker leases back to the pool.
        """
        with self._lock:
            for entry in self._entries.values():
                _close_sampler(entry.sampler)
            self._entries.clear()
            self._plans.clear()
            self._specs.clear()
            self._build_locks.clear()
            self._closed = True

    def __enter__(self) -> "SamplingSession":
        self._check_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SamplingSession(n={self.n}, m={self.m}, "
            f"l={self._default_half_extent:g}, "
            f"algorithm={self._default_algorithm!r}, "
            f"cached={len(self._entries)}, closed={self._closed})"
        )
