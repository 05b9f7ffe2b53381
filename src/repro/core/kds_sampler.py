"""Baseline 1: KDS (Section III-A).

The algorithm:

1. (offline) build a kd-tree over ``S``;
2. run an exact range count ``|S(w(r))|`` on the kd-tree for every ``r``
   (O(n sqrt(m)) time);
3. build Walker's alias over those counts so that ``r`` is drawn with
   probability ``|S(w(r))| / |J|``;
4. for every sample, draw ``r`` from the alias and then one uniform point of
   ``S(w(r))`` with the kd-tree's independent range sampling (O(sqrt(m)) per
   draw).

Every iteration yields an accepted pair, so the number of iterations equals
``t``; the cost per iteration is what makes this baseline slow.

:class:`KDTreeJoinSampler` is the kd-tree over ``S`` this baseline shares
with KDS-rejection (:mod:`repro.core.kds_rejection`).

Batch engine: the counting phase issues one batched traversal over all ``n``
windows (:meth:`repro.kdtree.tree.KDTree.count_many`), and the sampling phase
draws all ``t`` alias picks at once, decomposes only the *distinct* drawn
windows (one batched traversal per chunk of distinct windows), and maps every
attempt's uniform variate to a point with the canonical-rank draw of
:class:`repro.kdtree.batch.BatchDecomposition`.  ``vectorized=False`` runs
the same pre-drawn variates through per-attempt scalar decompositions and
:func:`repro.kdtree.batch.canonical_pick`; both paths return identical pairs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.alias.walker import AliasTable
from repro.artifacts.spec import (
    pack_alias,
    register_prepared_state,
    required_array,
    unpack_alias,
)
from repro.core.base import PersistentJoinSampler
from repro.core.batching import pick_int_scalar, window_bounds
from repro.core.registry import register_sampler
from repro.kdtree.batch import canonical_pick, iter_chunked_decompositions
from repro.kdtree.sampling import KDSRangeSampler
from repro.kdtree.tree import KDTree

__all__ = ["LEAF_SIZE", "PreparedExactCounts", "KDTreeJoinSampler", "KDSSampler"]

#: Leaf bucket size of the kd-tree over ``S`` both KDS baselines sample from.
LEAF_SIZE = 16


@register_prepared_state
@dataclass
class PreparedExactCounts:
    """Cached counting-phase output of the KDS baseline.

    Exact per-point range counts ``|S(w(r))|``, the alias over them and the
    exact join size.  A plain dataclass of arrays so a prepared sampler
    pickles cleanly across process boundaries (see :mod:`repro.parallel`)
    and flows through the :class:`~repro.artifacts.ArtifactSpec` protocol.
    """

    artifact_kind: ClassVar[str] = "kds-exact-counts"
    artifact_schema: ClassVar[int] = 1

    counts: np.ndarray
    alias: AliasTable | None
    join_size: int

    @property
    def is_empty(self) -> bool:
        """No window holds a point of ``S``."""
        return self.alias is None

    def result_metadata(self) -> dict[str, Any]:
        return {"join_size": self.join_size}

    def to_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose into JSON-safe meta plus named arrays (artifact protocol)."""
        alias_meta, alias_arrays = pack_alias(self.alias)
        meta = {"join_size": int(self.join_size), **alias_meta}
        arrays = {"counts": self.counts}
        arrays.update(alias_arrays)
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "PreparedExactCounts":
        """Reassemble from (possibly read-only memmapped) arrays, zero-copy."""
        return cls(
            counts=required_array(arrays, "counts", dtype="<i8", ndim=1),
            alias=unpack_alias(meta, arrays),
            join_size=int(meta.get("join_size", 0)),
        )


class KDTreeJoinSampler(PersistentJoinSampler):
    """The kd-tree over ``S`` that both KDS baselines draw points from.

    Building it is the offline step (Table II).  Only the count-phase state
    persists in an artifact: the tree is rebuilt deterministically by
    :meth:`preprocess` at attach time (it is the offline step, not the
    online cost a warm start saves).
    """

    _range_sampler: KDSRangeSampler | None = None

    def _preprocess_impl(self) -> None:
        self._range_sampler = KDSRangeSampler(self.spec.s_points, leaf_size=LEAF_SIZE)

    @property
    def _tree(self) -> KDTree:
        assert self._range_sampler is not None
        return self._range_sampler.tree

    def index_nbytes(self) -> int:
        return self._range_sampler.nbytes() if self._range_sampler is not None else 0

    def _windows(self, r_indices: np.ndarray) -> tuple[np.ndarray, ...]:
        spec = self.spec
        return window_bounds(
            spec.r_points.xs[r_indices], spec.r_points.ys[r_indices], spec.half_extent
        )


@register_sampler(
    "kds",
    tags=("online", "comparison", "baseline"),
    summary="baseline 1: exact kd-tree counting + range sampling (Section III-A)",
)
class KDSSampler(KDTreeJoinSampler):
    """The KDS baseline: exact counting plus kd-tree range sampling.

    Parameters
    ----------
    spec:
        The join instance.
    batch_size, vectorized, backend:
        Batch-engine knobs (see :class:`~repro.core.base.JoinSampler`); KDS
        accepts every attempt and draws all ``t`` in one round, so
        ``batch_size`` does not change the draw schedule.
    """

    state_class = PreparedExactCounts
    artifact_kind = "kds-exact-counts"

    @property
    def name(self) -> str:
        return "KDS"

    @property
    def exact_join_size(self) -> int | None:
        """Exact ``|J|`` from the counting phase (``None`` before preparing).

        KDS counts every window exactly, so a prepared sampler knows the
        join size for free; the shard-parallel engine uses this to skip its
        own exact count.
        """
        return None if self._prepared is None else self._prepared.join_size

    def _count(self) -> PreparedExactCounts:
        """UB: exact range counts ``|S(w(r))|`` and the alias over them."""
        spec = self.spec
        if self._vectorized:
            counts = self._tree.count_many(*self._windows(np.arange(spec.n)))
        else:
            assert self._range_sampler is not None
            counts = np.empty(spec.n, dtype=np.int64)
            for i in range(spec.n):
                counts[i] = self._range_sampler.range_count(spec.window_of_index(i))
        join_size = int(counts.sum())
        alias = AliasTable(counts) if join_size > 0 else None
        return PreparedExactCounts(counts=counts, alias=alias, join_size=join_size)

    def _draw(
        self, state: PreparedExactCounts, t: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Sampling: ``t`` alias picks, then one point per window (no rejection)."""
        assert state.alias is not None
        r_indices = state.alias.draw_many(t, rng)
        u_point = rng.random(t)
        draw = self._draw_vectorized if self._vectorized else self._draw_scalar
        return r_indices, draw(r_indices, u_point), t

    # ------------------------------------------------------------------
    def _draw_vectorized(self, r_indices: np.ndarray, u_point: np.ndarray) -> np.ndarray:
        """One point per attempt via batched decomposition of distinct windows."""
        unique_r, inverse = np.unique(r_indices, return_inverse=True)
        wxmin, wymin, wxmax, wymax = self._windows(unique_r)
        s_indices = np.empty(r_indices.size, dtype=np.int64)
        for attempts, local, decomposition in iter_chunked_decompositions(
            self._tree, wxmin, wymin, wxmax, wymax, inverse
        ):
            s_indices[attempts] = decomposition.draw(local, u_point[attempts])
        return s_indices

    def _draw_scalar(self, r_indices: np.ndarray, u_point: np.ndarray) -> np.ndarray:
        """Scalar twin: per-attempt decomposition plus canonical rank pick."""
        tree = self._tree
        spec = self.spec
        cache: dict[int, object] = {}
        s_indices = np.empty(r_indices.size, dtype=np.int64)
        for i in range(r_indices.size):
            r_index = int(r_indices[i])
            decomposition = cache.get(r_index)
            if decomposition is None:
                decomposition = tree.decompose(spec.window_of_index(r_index))
                cache[r_index] = decomposition
            rank = pick_int_scalar(float(u_point[i]), decomposition.count)
            s_indices[i] = canonical_pick(tree, decomposition, rank)
        return s_indices
