"""Baseline 2: KDS-rejection (Section III-B).

The algorithm keeps the kd-tree of ``S`` for sampling but replaces the exact
O(n sqrt(m)) counting phase with grid upper bounds:

1. (offline) build a kd-tree over ``S``;
2. (GM) map every point of ``S`` into a grid whose cells have side equal to
   the window half-extent, so ``w(r)`` overlaps at most nine cells;
3. (UB) for every ``r``, set ``mu(r)`` to the *total* population of those
   nine cells (O(1) per point, no approximation guarantee);
4. build Walker's alias over ``mu(r)``;
5. repeat: draw ``r`` from the alias, draw one uniform point ``s`` of
   ``S(w(r))`` with the kd-tree (which also yields the exact ``|S(w(r))|``),
   and accept the pair with probability ``|S(w(r))| / mu(r)``.

Because the bound counts whole cells, the acceptance probability can be low,
which is exactly the weakness the proposed BBST algorithm removes.

Batch engine: the UB phase is one vectorised 3x3 neighbourhood-count lookup
(:meth:`repro.grid.grid.Grid.neighborhood_counts`), and the rejection loop
is the shared :func:`repro.core.batching.rejection_rounds` - each round draws
``r`` picks, acceptance coins and point variates as flat arrays, decomposes
the round's *distinct* windows with one batched kd-tree traversal, applies
the acceptance test vectorised, and refills from the observed acceptance
rate.  ``vectorized=False`` replays the identical variate arrays through the
scalar per-attempt path.
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
from repro.core.batching import pick_int_scalar, rejection_rounds
from repro.core.kds_sampler import KDTreeJoinSampler
from repro.core.registry import register_sampler
from repro.grid.grid import Grid
from repro.kdtree.batch import canonical_pick, iter_chunked_decompositions

__all__ = ["PreparedGridBounds", "KDSRejectionSampler"]


@register_prepared_state
@dataclass
class PreparedGridBounds:
    """Cached GM/UB output of the KDS-rejection baseline.

    The grid upper bounds ``mu(r)``, the alias over them and ``sum_mu``.  A
    plain dataclass of arrays so a prepared sampler pickles cleanly across
    process boundaries (see :mod:`repro.parallel`) and flows through the
    :class:`~repro.artifacts.ArtifactSpec` protocol.
    """

    artifact_kind: ClassVar[str] = "kds-rejection-bounds"
    artifact_schema: ClassVar[int] = 1

    mu: np.ndarray
    alias: AliasTable | None
    sum_mu: int

    @property
    def is_empty(self) -> bool:
        """No window overlaps a grid cell."""
        return self.alias is None

    def result_metadata(self) -> dict[str, Any]:
        return {"sum_mu": self.sum_mu}

    def to_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose into JSON-safe meta plus named arrays (artifact protocol)."""
        alias_meta, alias_arrays = pack_alias(self.alias)
        meta = {"sum_mu": int(self.sum_mu), **alias_meta}
        arrays = {"mu": self.mu}
        arrays.update(alias_arrays)
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "PreparedGridBounds":
        """Reassemble from (possibly read-only memmapped) arrays, zero-copy."""
        return cls(
            mu=required_array(arrays, "mu", dtype="<i8", ndim=1),
            alias=unpack_alias(meta, arrays),
            sum_mu=int(meta.get("sum_mu", 0)),
        )


@register_sampler(
    "kds-rejection",
    aliases=("kds_rejection",),
    tags=("online", "comparison", "baseline"),
    summary="baseline 2: grid upper bounds + rejection sampling (Section III-B)",
)
class KDSRejectionSampler(KDTreeJoinSampler):
    """The KDS-rejection baseline: loose grid bounds plus rejection sampling.

    Only the GM/UB output (``mu``, alias, ``sum_mu``) persists in an
    artifact: the grid is never consulted again once the bounds exist, so
    an attached sampler keeps :attr:`grid` ``None``.

    Parameters
    ----------
    spec:
        The join instance.
    batch_size, vectorized, backend:
        Batch-engine knobs (see :class:`~repro.core.base.JoinSampler`).
    """

    has_build_phase = True
    state_class = PreparedGridBounds
    artifact_kind = "kds-rejection-bounds"

    _grid: Grid | None = None

    @property
    def name(self) -> str:
        return "KDS-rejection"

    def index_nbytes(self) -> int:
        grid_bytes = self._grid.nbytes() if self._grid is not None else 0
        return super().index_nbytes() + grid_bytes

    @property
    def grid(self) -> Grid | None:
        """The bound grid over ``S`` (``None`` before the first sample/prepare)."""
        return self._grid

    # ------------------------------------------------------------------
    def _build(self) -> None:
        """GM: the grid cannot be built offline - its cell side is the window size."""
        self._grid = Grid(self.spec.s_points, cell_size=self.spec.half_extent)

    def _count(self) -> PreparedGridBounds:
        """UB: ``mu(r)`` = population of the 3x3 block, and the alias over it."""
        grid = self._grid
        assert grid is not None
        r_xs, r_ys = self.spec.r_points.xs, self.spec.r_points.ys
        if self._vectorized:
            mu = grid.neighborhood_counts(r_xs, r_ys, kernels=self.kernels).sum(axis=1)
        else:
            mu = np.zeros(self.spec.n, dtype=np.int64)
            for i in range(self.spec.n):
                total = 0
                for _kind, cell in grid.neighborhood(float(r_xs[i]), float(r_ys[i])):
                    total += len(cell)
                mu[i] = total
        sum_mu = int(mu.sum())
        alias = AliasTable(mu) if sum_mu > 0 else None
        return PreparedGridBounds(mu=mu, alias=alias, sum_mu=sum_mu)

    def _draw(
        self, state: PreparedGridBounds, t: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Sampling: rejection rounds over the grid bounds."""
        assert state.alias is not None
        return rejection_rounds(t, state.alias, rng, self._resolve_round, self._batch_size)

    def _resolve_round(
        self, r: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one round's acceptance and point uniforms and resolve it."""
        u_accept = rng.random(r.size)
        u_point = rng.random(r.size)
        mu = self._prepared.mu
        if self._vectorized:
            return self._round_vectorized(r, u_accept, u_point, mu)
        return self._round_scalar(r, u_accept, u_point, mu)

    # ------------------------------------------------------------------
    def _round_vectorized(
        self,
        r: np.ndarray,
        u_accept: np.ndarray,
        u_point: np.ndarray,
        mu: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve one rejection round with batched decompositions."""
        tree = self._tree
        kernels = self.kernels
        accept = np.zeros(r.size, dtype=bool)
        s_pos = np.full(r.size, -1, dtype=np.int64)
        unique_r, inverse = np.unique(r, return_inverse=True)
        wxmin, wymin, wxmax, wymax = self._windows(unique_r)
        for attempts, local, decomposition in iter_chunked_decompositions(
            tree, wxmin, wymin, wxmax, wymax, inverse
        ):
            exact = decomposition.counts[local]
            # Accept with probability |S(w(r))| / mu(r).
            ok = kernels.rejection_accept(exact, mu[r[attempts]], u_accept[attempts])
            hits = attempts[ok]
            if hits.size:
                s_pos[hits] = decomposition.draw(local[ok], u_point[hits])
                accept[hits] = True
        return accept, s_pos

    def _round_scalar(
        self,
        r: np.ndarray,
        u_accept: np.ndarray,
        u_point: np.ndarray,
        mu: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-attempt twin consuming the same pre-drawn variate arrays."""
        tree = self._tree
        spec = self.spec
        accept = np.zeros(r.size, dtype=bool)
        s_pos = np.full(r.size, -1, dtype=np.int64)
        cache: dict[int, object] = {}
        for i in range(r.size):
            r_index = int(r[i])
            decomposition = cache.get(r_index)
            if decomposition is None:
                decomposition = tree.decompose(spec.window_of_index(r_index))
                cache[r_index] = decomposition
            exact = decomposition.count
            if exact == 0:
                continue
            if u_accept[i] >= exact / mu[r_index]:
                continue
            rank = pick_int_scalar(float(u_point[i]), exact)
            s_pos[i] = canonical_pick(tree, decomposition, rank)
            accept[i] = True
        return accept, s_pos
