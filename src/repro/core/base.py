"""Common sampler interface, results and phase-decomposed timings.

All join samplers (the two baselines, the proposed BBST algorithm, its
per-cell kd-tree ablation and join-then-sample) share the life-cycle the
paper evaluates, and :class:`JoinSampler` runs it once for all of them:

1. ``preprocess()`` - the *offline* step reported in Table II (building the
   kd-tree for the baselines, pre-sorting ``S`` for BBST).
2. ``sample(t)`` - the *online* run reported in Tables III/IV and every
   figure: the build (GM: grid mapping / structure building) and counting
   (UB: upper-bounding) phases run once and their prepared state is cached,
   then the sampling phase draws ``t`` pairs.

Results carry the drawn pairs, the per-phase wall-clock times, the number of
sampling iterations (accepted + rejected attempts) and algorithm-specific
metadata such as ``sum_mu`` so that the experiment harness can reproduce the
paper's tables without re-instrumenting the algorithms.
:class:`PersistentJoinSampler` adds the artifact export/adopt of that
prepared state.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Protocol

import numpy as np

from repro.artifacts.spec import ArtifactSpec, prefixed, select_prefix
from repro.core.config import JoinSpec
from repro.errors import (
    ArtifactCorruptError,
    ArtifactError,
    InvalidSpecError,
    SamplingExhaustedError,
)

if TYPE_CHECKING:
    from repro.kernels import KernelSet

__all__ = [
    "SamplePair",
    "PhaseTimings",
    "JoinSampleResult",
    "JoinSampler",
    "PersistentJoinSampler",
    "PreparedState",
    "build_sample_pairs",
    "resolve_rng",
    "validate_seed",
]


def resolve_rng(
    rng: np.random.Generator | None = None, seed: int | None = None
) -> np.random.Generator:
    """Resolve the ``rng`` / ``seed`` pair every sampling entry point accepts.

    Exactly one source of randomness is allowed: an explicit generator, a
    seed, or neither (a fresh default generator).  Passing both, or a
    negative seed, raises :class:`~repro.errors.InvalidSpecError` - the
    shared validation of ``sample()``, ``sample_without_replacement()``,
    ``stream_samples()`` and the session API's ``draw()`` / ``stream()``.
    """
    if rng is not None and seed is not None:
        raise InvalidSpecError("pass either rng or seed, not both")
    if rng is None:
        validate_seed(seed)
        return np.random.default_rng(seed)
    return rng


def validate_seed(seed: int | None) -> None:
    """Reject a negative seed before it reaches ``np.random.default_rng``.

    The service checks every request's seed with this at admission, so a bad
    seed fails its own request instead of the coalesced batch it joins.
    """
    if seed is not None and seed < 0:
        raise InvalidSpecError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True, slots=True)
class SamplePair:
    """One sampled join pair, reported by dataset identifiers and positions.

    ``r_id`` / ``s_id`` are the points' dataset identifiers (stable across
    shuffling); ``r_index`` / ``s_index`` are positional indices into the
    spec's point sets, which is what validation and statistics code uses.
    """

    r_id: int
    s_id: int
    r_index: int
    s_index: int

    def as_id_tuple(self) -> tuple[int, int]:
        """``(r_id, s_id)`` tuple, the user-facing form of the pair."""
        return (self.r_id, self.s_id)

    def as_index_tuple(self) -> tuple[int, int]:
        """``(r_index, s_index)`` tuple, the validation-facing form."""
        return (self.r_index, self.s_index)


@dataclass(slots=True)
class PhaseTimings:
    """Wall-clock seconds per online phase, mirroring Table III/IV columns.

    ``build_seconds`` is the paper's GM column (grid mapping / online data
    structure building), ``count_seconds`` the UB column (exact counting or
    upper-bounding plus alias building), ``sample_seconds`` the sampling
    phase.  ``preprocess_seconds`` is the offline Table II time and is kept
    separate from the total.
    """

    preprocess_seconds: float = 0.0
    build_seconds: float = 0.0
    count_seconds: float = 0.0
    sample_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Online total: build + count + sample (excludes preprocessing)."""
        return self.build_seconds + self.count_seconds + self.sample_seconds

    def as_dict(self) -> dict[str, float]:
        """Plain dictionary used by the reporting layer."""
        return {
            "preprocess_seconds": self.preprocess_seconds,
            "build_seconds": self.build_seconds,
            "count_seconds": self.count_seconds,
            "sample_seconds": self.sample_seconds,
            "total_seconds": self.total_seconds,
        }


@dataclass(slots=True)
class JoinSampleResult:
    """Outcome of one ``sample(t)`` call."""

    sampler_name: str
    requested: int
    pairs: list[SamplePair]
    timings: PhaseTimings
    iterations: int
    metadata: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SamplePair]:
        return iter(self.pairs)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of sampling iterations that produced an accepted pair."""
        if self.iterations == 0:
            return 0.0
        return len(self.pairs) / self.iterations

    def id_pairs(self) -> list[tuple[int, int]]:
        """All sampled pairs as ``(r_id, s_id)`` tuples."""
        return [pair.as_id_tuple() for pair in self.pairs]

    def index_pairs(self) -> np.ndarray:
        """All sampled pairs as an ``(k, 2)`` array of positional indices."""
        if not self.pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.array([pair.as_index_tuple() for pair in self.pairs], dtype=np.int64)


def build_sample_pairs(
    spec: JoinSpec, r_indices: np.ndarray, s_indices: np.ndarray
) -> list[SamplePair]:
    """Materialise :class:`SamplePair` objects from positional index arrays.

    Shared by every sampler's batch path; ``tolist()`` conversion keeps the
    per-pair cost at plain-Python-int level rather than numpy scalar level.
    """
    r_ids = spec.r_points.ids[r_indices]
    s_ids = spec.s_points.ids[s_indices]
    return [
        SamplePair(r_id=rid, s_id=sid, r_index=ri, s_index=si)
        for rid, sid, ri, si in zip(
            r_ids.tolist(),
            s_ids.tolist(),
            np.asarray(r_indices).tolist(),
            np.asarray(s_indices).tolist(),
        )
    ]


class PreparedState(Protocol):
    """The count-phase output :meth:`JoinSampler._count` returns.

    :class:`JoinSampler` caches it across ``sample()`` calls; the concrete
    classes are plain dataclasses of arrays, so a prepared sampler pickles
    to shard workers and (for :class:`PersistentJoinSampler`) round-trips
    through an artifact.
    """

    @property
    def is_empty(self) -> bool:
        """Whether the count phase left nothing to draw from (``|J| = 0``)."""
        ...  # pragma: no cover - protocol

    def result_metadata(self) -> dict[str, Any]:
        """The count figures every result reports (``sum_mu`` or ``join_size``)."""
        ...  # pragma: no cover - protocol


class JoinSampler(abc.ABC):
    """Abstract base class of every join sampling algorithm.

    This class runs the whole sampler life-cycle, so every sampler reports
    comparable numbers.  A concrete sampler implements the offline step
    (:meth:`_preprocess_impl`) and three online hooks:

    * :meth:`_build` - the GM phase (only when :attr:`has_build_phase`);
    * :meth:`_count` - the UB phase, returning the :class:`PreparedState`
      this class caches, so later ``sample()`` calls skip both phases;
    * :meth:`_draw` - the sampling phase: ``t`` pairs as positional index
      arrays plus the attempts it took.

    :meth:`_sample_impl` times GM, UB and sampling into
    :class:`PhaseTimings`, raises the empty-join
    :class:`~repro.errors.InvalidSpecError` and builds the
    :class:`JoinSampleResult`.  Samplers that wrap other samplers (the
    sharded and dynamic engines) override :meth:`_sample_impl` instead.

    Three knobs configure the draw hooks (see :mod:`repro.core.batching`):

    * ``batch_size`` pins the number of attempts pre-drawn per rejection
      round (``None`` sizes rounds adaptively from the observed acceptance
      rate; ``1`` reproduces one-attempt-at-a-time draw scheduling);
    * ``vectorized`` selects the numpy round processor (default) or the
      scalar per-attempt twin over the same pre-drawn variates, the
      reference the differential tests compare against;
    * ``backend`` selects the kernel implementation the vectorized round
      processors call (``"numpy" | "numba" | "auto"``, see
      :mod:`repro.kernels`).  It is resolved to a concrete name at
      construction; the backends are bit-identical (including RNG
      consumption order), so it changes how fast pairs are drawn, never
      which.
    """

    #: Whether the sampler has an online structure-building (GM) phase.
    #: Samplers without one (KDS, join-then-sample) report
    #: ``build_seconds == 0.0``, the empty GM column of Table III.
    has_build_phase: ClassVar[bool] = False

    def __init__(
        self,
        spec: JoinSpec,
        batch_size: int | None = None,
        vectorized: bool = True,
        backend: str | None = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise InvalidSpecError("batch_size must be at least 1")
        # Resolved eagerly so a bad backend fails at construction, and stored
        # as a plain string so prepared samplers pickle to shard workers (the
        # kernel namespace itself is re-resolved lazily per process).
        from repro.kernels import resolve_backend

        self._spec = spec
        self._batch_size = batch_size
        self._vectorized = bool(vectorized)
        self._kernel_backend = resolve_backend(backend)
        self._preprocessed = False
        self._preprocess_seconds = 0.0
        # The cached count-phase output (a PreparedState): set by the first
        # sample() / prepare() call, or adopted from an artifact.
        self._prepared: Any = None

    # ------------------------------------------------------------------
    @property
    def spec(self) -> JoinSpec:
        """The join instance this sampler operates on."""
        return self._spec

    @property
    def batch_size(self) -> int | None:
        """Fixed sampling-round size (``None`` means adaptive refill)."""
        return self._batch_size

    @property
    def vectorized(self) -> bool:
        """Whether the numpy round processor is active (vs the scalar twin)."""
        return self._vectorized

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel backend name serving this sampler's hot paths."""
        return self._kernel_backend

    @property
    def kernels(self) -> KernelSet:
        """The :class:`~repro.kernels.KernelSet` of the resolved backend."""
        from repro.kernels import get_kernels

        return get_kernels(self._kernel_backend)

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short algorithm name used in reports (e.g. ``"BBST"``)."""

    @property
    def preprocess_seconds(self) -> float:
        """Offline preprocessing time of the last :meth:`preprocess` call."""
        return self._preprocess_seconds

    @property
    def is_preprocessed(self) -> bool:
        """Whether :meth:`preprocess` already ran."""
        return self._preprocessed

    # ------------------------------------------------------------------
    def preprocess(self) -> float:
        """Run the offline step (Table II) once and return its wall-clock seconds."""
        if not self._preprocessed:
            start = time.perf_counter()
            self._preprocess_impl()
            self._preprocess_seconds = time.perf_counter() - start
            self._preprocessed = True
        return self._preprocess_seconds

    def sample(
        self,
        t: int,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> JoinSampleResult:
        """Draw ``t`` uniform, independent samples of the join result.

        Parameters
        ----------
        t:
            Number of samples (with replacement) to return.
        rng, seed:
            Either an explicit numpy generator or a seed; a fresh default
            generator is created when neither is given.
        """
        if t < 0:
            raise InvalidSpecError("t must be non-negative")
        rng = resolve_rng(rng, seed)
        self.preprocess()
        result = self._sample_impl(t, rng)
        result.timings.preprocess_seconds = self._preprocess_seconds
        result.metadata.setdefault("kernel_backend", self._kernel_backend)
        return result

    def prepare(self) -> PhaseTimings:
        """Run every phase that does not depend on ``t`` or randomness, eagerly.

        This executes the offline step plus the online build (GM) and counting
        (UB) phases and caches their results on the sampler, so that subsequent
        :meth:`sample` calls only pay the sampling phase (their reported
        ``build_seconds`` / ``count_seconds`` are ~0).  Those phases consume no
        randomness, so a prepared sampler returns bit-identical pairs to an
        unprepared one for the same ``(t, seed)``.

        Returns the timings of the prepare work (all zeros when the sampler was
        already prepared).  This is the method the session API calls when a
        request first touches an ``(algorithm, half_extent)`` key.
        """
        return self.sample(0).timings

    @property
    def is_prepared(self) -> bool:
        """Whether the online structures are cached (``prepare`` or a draw ran)."""
        return self._preprocessed and self._has_online_state()

    def _has_online_state(self) -> bool:
        """Whether the build/count results are cached."""
        return self._prepared is not None

    def rebind_spec(self, spec: JoinSpec) -> None:
        """Point the sampler at a new join instance *without* resetting state.

        This is a maintenance hook for the dynamic-update subsystem
        (:mod:`repro.dynamic`): after an incremental update the maintained
        online structures already describe the new ``(R, S)``, so only the
        spec reference needs to move.  Callers are responsible for keeping
        the cached structures consistent with the new spec - ordinary code
        should build a fresh sampler instead.
        """
        self._spec = spec

    def sample_without_replacement(
        self,
        t: int,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        max_attempt_factor: int = 50,
    ) -> JoinSampleResult:
        """Draw ``t`` *distinct* join pairs.

        Definition 2 asks for sampling with replacement; the paper notes that
        the without-replacement variant follows by simply rejecting samples
        that were already obtained, which is exactly what this method does:
        it keeps drawing batches with :meth:`sample` and discards duplicates.

        Raises :class:`RuntimeError` when ``t`` appears to exceed the number
        of distinct join pairs (after ``max_attempt_factor * t`` draws the
        set of distinct pairs has stopped growing fast enough).
        """
        if t < 0:
            raise InvalidSpecError("t must be non-negative")
        rng = resolve_rng(rng, seed)
        distinct: dict[tuple[int, int], SamplePair] = {}
        timings = PhaseTimings()
        iterations = 0
        total_drawn = 0
        metadata: dict[str, Any] = {}
        while len(distinct) < t:
            remaining = t - len(distinct)
            batch = max(2 * remaining, 16)
            result = self.sample(batch, rng=rng)
            iterations += result.iterations
            total_drawn += len(result)
            metadata = dict(result.metadata)
            for phase, value in result.timings.as_dict().items():
                if phase in ("preprocess_seconds", "total_seconds"):
                    continue
                setattr(timings, phase, getattr(timings, phase) + value)
            for pair in result.pairs:
                if len(distinct) >= t:
                    break
                distinct.setdefault(pair.as_index_tuple(), pair)
            if total_drawn > max_attempt_factor * max(t, 1) and len(distinct) < t:
                raise SamplingExhaustedError(
                    f"could not find {t} distinct join pairs after {total_drawn} draws; "
                    "the join result probably has fewer than t pairs"
                )
        timings.preprocess_seconds = self._preprocess_seconds
        metadata["distinct"] = True
        return JoinSampleResult(
            sampler_name=self.name,
            requested=t,
            pairs=list(distinct.values()),
            timings=timings,
            iterations=iterations,
            metadata=metadata,
        )

    def stream_samples(
        self,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        batch_size: int = 1_024,
    ) -> "Iterator[SamplePair]":
        """Yield uniform, independent join samples indefinitely.

        Definition 2 allows ``t = ∞``: all algorithms draw samples
        progressively, so consumers can stop whenever they have enough.  The
        generator draws batches of ``batch_size`` internally (samplers that
        cache their online structures, such as the BBST sampler, only pay the
        per-sample cost after the first batch).
        """
        if batch_size < 1:
            raise InvalidSpecError("batch_size must be at least 1")
        rng = resolve_rng(rng, seed)
        while True:
            result = self.sample(batch_size, rng=rng)
            yield from result.pairs

    def index_nbytes(self) -> int:
        """Approximate memory footprint of the sampler's persistent index."""
        return 0

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _preprocess_impl(self) -> None:
        """Offline preprocessing (build the kd-tree / pre-sort ``S``)."""

    def _sample_impl(self, t: int, rng: np.random.Generator) -> JoinSampleResult:
        """The online phases producing the sample result (``t >= 0``)."""
        timings = PhaseTimings()
        if self._prepared is None:
            if self.has_build_phase:
                start = time.perf_counter()
                self._build()
                timings.build_seconds = time.perf_counter() - start
            start = time.perf_counter()
            self._prepared = self._count()
            timings.count_seconds = time.perf_counter() - start
        state = self._prepared
        if t > 0 and state.is_empty:
            raise InvalidSpecError(
                "the spatial range join is empty; no samples can be drawn"
            )
        start = time.perf_counter()
        pairs: list[SamplePair] = []
        iterations = 0
        if t > 0:
            r_indices, s_indices, iterations = self._draw(state, t, rng)
            pairs = build_sample_pairs(self.spec, r_indices, s_indices)
        timings.sample_seconds = time.perf_counter() - start
        return JoinSampleResult(
            sampler_name=self.name,
            requested=t,
            pairs=pairs,
            timings=timings,
            iterations=iterations,
            metadata=state.result_metadata(),
        )

    def _build(self) -> None:
        """Online structure building over ``S`` (the GM column)."""

    def _count(self) -> PreparedState:
        """Counting / upper-bounding (the UB column): the state to cache."""
        raise NotImplementedError(f"{type(self).__name__} does not implement _count")

    def _draw(
        self, state: Any, t: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The sampling phase over a non-empty ``state`` (``t >= 1``).

        Returns the drawn pairs' positional ``(r_indices, s_indices)`` and
        the number of attempts (accepted plus rejected) they took.
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement _draw")


class PersistentJoinSampler(JoinSampler):
    """A sampler whose prepared state persists as an artifact (warm start).

    The export/adopt glue every persistent sampler shares: the
    :class:`~repro.artifacts.ArtifactSpec` state named by
    :attr:`state_class` is exported with the sampler's ``kind`` / ``schema``
    identity, and adopted back after the cheap offline step, with its
    arrays checked to cover the spec's outer points.  Samplers whose
    artifact carries more than the state (the grid family's cell ids, grid
    views and buckets) override :meth:`_export_extra` and
    :meth:`_adopt_extra`.
    """

    #: The prepared-state class :meth:`_count` returns.
    state_class: ClassVar[type[ArtifactSpec]]

    #: Artifact payload identity of the sampler's prepared state.
    artifact_kind: ClassVar[str]
    artifact_schema: ClassVar[int] = 1

    #: Namespace of the state arrays inside the artifact (``None``: unprefixed).
    state_prefix: ClassVar[str | None] = None

    def export_prepared_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose the whole prepared state into ``(meta, arrays)``."""
        if not self.is_prepared:
            raise ArtifactError(
                f"sampler {self.name!r} is not prepared; nothing to export"
            )
        state_meta, arrays = self._prepared.to_arrays()
        if self.state_prefix is not None:
            arrays = prefixed(self.state_prefix, arrays)
        meta: dict[str, Any] = {
            "kind": self.artifact_kind,
            "schema": self.artifact_schema,
            "state": state_meta,
        }
        extra_meta, extra_arrays = self._export_extra()
        meta.update(extra_meta)
        arrays.update(extra_arrays)
        return meta, arrays

    def adopt_prepared_arrays(
        self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Attach a persisted prepared state (the warm-start inverse of export).

        Runs the cheap offline step, reassembles the state around the
        (memmapped) arrays without copying them and installs it; after this
        the sampler ``is_prepared`` and draws bit-identically to a freshly
        built twin.
        """
        self.preprocess()
        state_meta = meta.get("state")
        if not isinstance(state_meta, dict):
            raise ArtifactCorruptError("artifact meta is missing its 'state' object")
        state = self.state_class.from_arrays(
            state_meta,
            arrays
            if self.state_prefix is None
            else select_prefix(arrays, self.state_prefix),
        )
        # Every state array (per-point weights, bound rows, alias tables)
        # holds one row per outer point.
        for name, array in state.to_arrays()[1].items():
            if array.shape[:1] != (self.spec.n,):
                raise ArtifactCorruptError(
                    f"artifact state array {name!r} has shape {array.shape} "
                    f"but the spec has {self.spec.n} outer points"
                )
        self._adopt_extra(meta, arrays)
        self._prepared = state

    def _export_extra(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Meta and arrays the artifact carries beyond the prepared state."""
        return {}, {}

    def _adopt_extra(
        self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Restore what :meth:`_export_extra` persisted."""
