"""Shared machinery of the grid-decomposition samplers (Algorithm 1 skeleton).

Both the proposed BBST sampler and its per-cell kd-tree ablation (Fig. 9)
follow exactly the same three online phases; the only difference is the index
that answers the case-3 (corner cell) counting and sampling primitives.  This
module factors the skeleton so the two samplers differ only in which
:class:`JoinCellIndex` they build.

Phases
------
1. *Online data structure building* - build the index over ``S`` (grid plus
   per-cell structures).  Reported as the GM column.
2. *Approximate range counting* - for every ``r`` obtain the per-cell bounds
   ``mu(r, c)`` over the 3x3 block, store them as a dense int32 ``(n, 9)``
   matrix (this plays the role of the per-point alias ``A_r``: with at most
   nine weights a cumulative-sum draw is O(1)), and build the global alias
   ``A`` over ``mu(r)``.  Reported as the UB column.
3. *Sampling* - repeat: draw ``r`` from ``A``, draw a cell from ``A_r``, draw
   a candidate point inside that cell, and accept the pair iff the point lies
   in ``w(r)``.  Cases 1/2 always accept; case 3 may reject (point outside the
   window, or an empty bucket slot for the BBST).

The three phases are the :meth:`_build`, :meth:`_count` and :meth:`_draw`
hooks of the life-cycle :class:`~repro.core.base.JoinSampler` runs and times.

Batch engine
------------
The online phases run *vectorised* by default.  The counting phase asks the
index for the ``(n, 9)`` bound matrix in cell-aligned chunks of ``R``
(:meth:`repro.bbst.join_index.BBSTJoinIndex.batch_bounds`), spread over the
CPUs the process may run on, and the sampling
phase runs the shared round loop :func:`repro.core.batching.rejection_rounds`:
each round draws its ``r`` indices from the alias, then cell-pick,
point-pick and - for the BBST - slot-pick uniforms as flat arrays, resolves
every attempt with numpy gathers over the grid's flat arrays, and refills
adaptively from the observed acceptance rate.  Two knobs control it:

* ``vectorized=False`` processes the *same* pre-drawn variate arrays with a
  per-attempt Python loop; because both paths share draws and selection
  rules they return bit-identical pairs, which the differential tests rely
  on.
* ``batch_size`` pins the round size (``batch_size=1`` reproduces the
  classic one-attempt-at-a-time schedule).
"""

from __future__ import annotations

import abc
import contextvars
import os
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Protocol

import numpy as np

from repro.alias.walker import AliasTable
from repro.artifacts.spec import (
    pack_alias,
    prefixed,
    register_prepared_state,
    required_array,
    select_prefix,
    unpack_alias,
)
from repro.bbst.join_index import CellContribution
from repro.core.base import PersistentJoinSampler
from repro.core.batching import group_blocks, pick_int_scalar, rejection_rounds
from repro.core.config import JoinSpec
from repro.errors import ArtifactCorruptError, ArtifactError
from repro.geometry.point import PointSet
from repro.geometry.rect import Rect
from repro.grid.cell import GridCell
from repro.grid.grid import Grid
from repro.grid.neighbors import NEIGHBOR_OFFSETS, NeighborKind

__all__ = ["JoinCellIndex", "PreparedGridState", "GridJoinSamplerBase", "row_totals"]

#: Rows of ``R`` the vectorised count phase resolves per chunk (whole cells
#: only; a cell with more rows is a chunk of its own).  Bounds the count's
#: temporaries to a few ``(chunk, 9)`` blocks per counting thread instead of
#: ``(n, 9)`` copies.  Each helper thread's malloc arena keeps its chunk
#: temporaries after they are freed, so small chunks keep a threaded count's
#: peak RSS near a serial one: cold NYC-proxy queries at n = m = 10^6 peaked
#: at 500 MB counting on two threads against 494 MB on one (medians of ten
#: runs, 2-core VM).
_COUNT_CHUNK_ROWS = 1 << 15


def _count_workers() -> int:
    """Threads the vectorised count may use: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(count_chunk: Callable[[int, int], None], blocks: list[tuple[int, int]]) -> None:
    """Call ``count_chunk(first, stop)`` once per block, on up to :func:`_count_workers` threads.

    The calling thread drains the shared block iterator too, so at most
    ``workers - 1`` helper threads start; each new thread gets its own malloc
    arena, which keeps its chunk temporaries after they are freed.  The pool
    lives for this call only (a forked child must not inherit one whose
    threads have started), and each helper runs in its own copy of the
    caller's context.  After the first error every thread stops before its
    next block, and that error is raised once all have stopped.
    """
    workers = min(_count_workers(), len(blocks))
    pending = iter(blocks)
    errors: list[BaseException] = []

    def drain() -> None:
        # Taking the next block from a list iterator is atomic under the GIL.
        while not errors:
            block = next(pending, None)
            if block is None:
                return
            try:
                count_chunk(*block)
            except BaseException as exc:
                errors.append(exc)

    if workers > 1:
        with ThreadPoolExecutor(workers - 1, thread_name_prefix="repro-count") as pool:
            helpers = [
                pool.submit(contextvars.copy_context().run, drain) for _ in range(workers - 1)
            ]
            drain()
        for helper in helpers:
            helper.result()
    else:
        drain()
    if errors:
        raise errors[0]


def row_totals(bounds: np.ndarray) -> np.ndarray:
    """``mu(r)`` per row of an integer bound matrix, as float64.

    Every entry is an integer count, so this equals the row's last float64
    prefix sum exactly: the alias over it and ``sum_mu`` do not depend on
    how the rows are stored.
    """
    return bounds.sum(axis=1, dtype=np.int64).astype(np.float64)


def _prefix_rows(bounds: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Float64 prefix sums of the drawn bound rows ``bounds[r]`` (the alias ``A_r``).

    ``np.take`` gathers whole rows several times faster than ``bounds[r]``,
    and a nine-column running sum beats ``np.cumsum(axis=1)`` on short rows;
    it equals it because every partial sum is an exact integer.
    """
    out = np.take(bounds, r, axis=0).astype(np.float64)
    for column in range(1, out.shape[1]):
        out[:, column] += out[:, column - 1]
    return out


@register_prepared_state
@dataclass
class PreparedGridState:
    """Cached online structures of a grid-decomposition sampler.

    This is the whole count-phase output: the dense int32 ``(n, 9)`` per-cell
    bound matrix (the draw forms the prefix sums of the rows it draws, the
    O(1) per-point alias ``A_r``), the global alias ``A`` over ``mu(r)`` and
    the scalar ``sum_mu``.  Every bound is an integer count of at most about
    ``m``, so int32 holds it exactly.  Kept as a
    plain dataclass of arrays - no closures, no references back to the
    sampler - so a prepared sampler pickles cleanly across process
    boundaries (the shard workers of :mod:`repro.parallel` rely on this) and
    flows through the :class:`~repro.artifacts.ArtifactSpec` protocol for
    on-disk persistence.
    """

    artifact_kind: ClassVar[str] = "grid-runtime"
    #: 2: int32 bounds, no prefix-sum matrix (schema 1 stored both as float64).
    artifact_schema: ClassVar[int] = 2

    bounds: np.ndarray
    alias: AliasTable | None
    sum_mu: float

    @property
    def is_empty(self) -> bool:
        """Every upper bound is zero, so no draw can succeed."""
        return self.alias is None

    def result_metadata(self) -> dict[str, Any]:
        return {"sum_mu": self.sum_mu}

    def to_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose into JSON-safe meta plus named arrays (artifact protocol)."""
        alias_meta, alias_arrays = pack_alias(self.alias)
        meta = {"sum_mu": float(self.sum_mu), **alias_meta}
        arrays = {"bounds": self.bounds}
        arrays.update(alias_arrays)
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "PreparedGridState":
        """Reassemble from (possibly read-only memmapped) arrays, zero-copy."""
        bounds = required_array(arrays, "bounds", dtype="<i4", ndim=2)
        if bounds.shape[1] != 9:
            raise ArtifactCorruptError(
                f"grid-runtime state needs an (n, 9) bound matrix, got {bounds.shape}"
            )
        return cls(
            bounds=bounds,
            alias=unpack_alias(meta, arrays),
            sum_mu=float(meta.get("sum_mu", 0.0)),
        )


class JoinCellIndex(Protocol):
    """Interface a grid-decomposition index must provide to the sampler skeleton."""

    #: Whether the batch engine must pre-draw slot variates for corner picks.
    needs_slot_variates: bool

    @property
    def grid(self) -> Grid:
        """The non-empty grid over ``S``."""

    def window_for(self, x: float, y: float) -> Rect:
        """The join window centred at ``(x, y)``."""

    def contributions(self, x: float, y: float) -> list[CellContribution]:
        """Per-cell upper bounds ``mu(r, c)`` for a query point."""

    def batch_bounds(
        self, xs: np.ndarray, ys: np.ndarray, cell_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Dense ``(q, 9)`` bound matrix for many query points at once."""

    def corner_pick_batch(
        self,
        kind: NeighborKind,
        cell_ids: np.ndarray,
        bounds_col: np.ndarray,
        u_point: np.ndarray,
        u_slot: np.ndarray | None,
        wxmin: np.ndarray,
        wymin: np.ndarray,
        wxmax: np.ndarray,
        wymax: np.ndarray,
    ) -> np.ndarray:
        """Vectorised corner sampling attempts (grid-flat x-view positions)."""

    def corner_pick_scalar(
        self,
        kind: NeighborKind,
        cell: GridCell,
        window: Rect,
        bound: int,
        u_point: float,
        u_slot: float,
    ) -> tuple[int, float, float] | None:
        """Scalar corner sampling attempt consuming the same variates."""

    def nbytes(self) -> int:
        """Approximate memory footprint of the index."""


#: Position of every neighbour kind in the dense ``(n, 9)`` bound matrix.
_KIND_COLUMN = {kind: column for column, kind in enumerate(NEIGHBOR_OFFSETS)}


class GridJoinSamplerBase(PersistentJoinSampler):
    """Algorithm 1 skeleton parameterised by the per-cell index.

    Parameters
    ----------
    spec:
        The join instance.
    batch_size:
        Fixed sampling-round size; ``None`` (default) sizes rounds adaptively
        from the observed acceptance rate.
    vectorized:
        ``True`` (default) resolves each round with numpy; ``False`` runs the
        scalar per-attempt loop over the same pre-drawn variates (the
        differential-testing escape hatch).
    backend:
        Kernel backend serving the vectorized rounds
        (``"numpy" | "numba" | "auto"``, see :mod:`repro.kernels`); both
        backends are bit-identical.
    """

    has_build_phase = True
    state_class = PreparedGridState
    state_prefix = "state"
    artifact_schema = PreparedGridState.artifact_schema

    def __init__(
        self,
        spec: JoinSpec,
        batch_size: int | None = None,
        vectorized: bool = True,
        backend: str | None = None,
    ) -> None:
        super().__init__(spec, batch_size=batch_size, vectorized=vectorized, backend=backend)
        self._sorted_s = None
        self._index: JoinCellIndex | None = None
        self._cell_ids: np.ndarray | None = None
        #: ``argsort`` of S's ids and the ids in that order (the id -> position map).
        self._s_id_lookup: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build_index(self) -> JoinCellIndex:
        """Build the per-cell index over the (pre-sorted) inner set."""

    @property
    def index(self) -> JoinCellIndex | None:
        """The index built by the last ``sample()`` call (``None`` before that)."""
        return self._index

    @property
    def runtime(self) -> PreparedGridState | None:
        """The cached count-phase output (``None`` before the first build)."""
        return self._prepared

    @property
    def cell_ids(self) -> np.ndarray | None:
        """The int32 ``(n, 9)`` flat-cell-index matrix (``None`` before the first build).

        The vectorised count phase computes it; after the scalar one it is
        computed (and cached) on first use.
        """
        if self._cell_ids is None and self._index is not None:
            self._cell_ids = self._index.grid.neighbor_cell_ids(
                self.spec.r_points.xs, self.spec.r_points.ys, kernels=self.kernels
            ).astype(np.int32)
        return self._cell_ids

    def adopt_runtime(
        self, state: PreparedGridState, cell_ids: np.ndarray | None
    ) -> None:
        """Install externally maintained online state (dynamic-update hook).

        :class:`repro.dynamic.DynamicSampler` maintains the bound matrix, the
        alias and the cell-id matrix incrementally and pushes them back here,
        so the unchanged sampling phase serves draws from the updated state.
        The inner-set id lookup is dropped because ``S`` may have changed.
        """
        self._prepared = state
        self._cell_ids = cell_ids
        self._s_id_lookup = None

    # ------------------------------------------------------------------
    # Prepared-state artifacts (persistence + warm start)
    # ------------------------------------------------------------------
    def _export_extra(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """The cell-id matrix, the grid's sorted views and the bucket envelopes.

        Together with the count-phase state this is everything the
        *vectorised* draw path and dynamic maintenance touch.  The per-cell
        corner trees are left out: only the scalar oracle builds them (see
        :meth:`repro.bbst.join_index.BBSTJoinIndex._ensure_cell_structures`).
        """
        index = self._index
        assert index is not None and self.cell_ids is not None
        flat = index.grid.flat()
        arrays = {
            "cell_ids": self.cell_ids,
            "grid.keys_ix": flat.keys_ix,
            "grid.keys_iy": flat.keys_iy,
            "grid.lengths": flat.lengths,
            "grid.xs_by_x": flat.xs_by_x,
            "grid.ys_by_x": flat.ys_by_x,
            "grid.ids_by_x": flat.ids_by_x,
            "grid.xs_by_y": flat.xs_by_y,
            "grid.ys_by_y": flat.ys_by_y,
            "grid.ids_by_y": flat.ids_by_y,
        }
        if getattr(index, "uses_bucket_arrays", False):
            buckets = index.bucket_arrays()
            arrays.update(
                prefixed("buckets", {f.name: getattr(buckets, f.name) for f in fields(buckets)})
            )
        meta = {
            "bucket_capacity": int(index.bucket_capacity),
            "capacity_override": bool(index.capacity_override),
        }
        return meta, arrays

    def adopt_prepared_arrays(
        self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        # The artifact's grid views already hold S in cell/x order, so attach
        # skips the offline x-sort; ``sorted_s`` sorts on first use instead.
        self._preprocessed = True
        super().adopt_prepared_arrays(meta, arrays)

    def _adopt_extra(
        self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Reassemble the grid and index around the memmapped arrays, zero-copy."""
        spec = self.spec
        cell_ids = required_array(arrays, "cell_ids", dtype="<i4", ndim=2)
        if cell_ids.shape != (spec.n, 9):
            raise ArtifactCorruptError(
                f"artifact cell-id matrix has shape {cell_ids.shape}, "
                f"expected {(spec.n, 9)}"
            )
        grid_arrays = select_prefix(arrays, "grid")
        keys_ix, keys_iy, lengths = (
            required_array(grid_arrays, name, dtype="<i8", ndim=1, context="artifact grid")
            for name in ("keys_ix", "keys_iy", "lengths")
        )
        views = {
            name: required_array(
                grid_arrays, name, dtype=dtype, ndim=1, context="artifact grid"
            )
            for name, dtype in (
                ("xs_by_x", "<f8"),
                ("ys_by_x", "<f8"),
                ("ids_by_x", "<i8"),
                ("xs_by_y", "<f8"),
                ("ys_by_y", "<f8"),
                ("ids_by_y", "<i8"),
            )
        }
        if int(lengths.sum()) != spec.m:
            raise ArtifactCorruptError(
                f"artifact grid covers {int(lengths.sum())} inner points but "
                f"the spec has {spec.m}"
            )
        try:
            grid = Grid.from_cell_arrays(
                spec.half_extent,
                keys_ix,
                keys_iy,
                lengths,
                source_name=spec.s_points.name,
                **views,
            )
        except ValueError as exc:
            raise ArtifactCorruptError(
                f"artifact grid arrays are inconsistent: {exc}"
            ) from None
        self._index = self._restore_index(grid, meta, arrays)
        self._cell_ids = cell_ids
        self._s_id_lookup = None

    def _restore_index(
        self,
        grid: Grid,
        meta: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
    ) -> JoinCellIndex:
        """Reassemble the per-cell index around a restored grid."""
        raise ArtifactError(
            f"sampler {self.name!r} does not support artifact warm start"
        )

    def index_nbytes(self) -> int:
        return self._index.nbytes() if self._index is not None else 0

    # ------------------------------------------------------------------
    def _preprocess_impl(self) -> None:
        # The only offline work is pre-sorting S on the x axis (Table II).
        self._sorted_s = self.spec.s_points.sorted_by_x()

    @property
    def sorted_s(self) -> PointSet:
        """The inner set pre-sorted by x (available after preprocessing)."""
        if self._sorted_s is None and self.is_preprocessed:
            self._sorted_s = self.spec.s_points.sorted_by_x()
        return self._sorted_s

    # ------------------------------------------------------------------
    # The online phases
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """GM: the grid plus per-cell structures over ``S``."""
        self._index = self._build_index()

    def _count(self) -> PreparedGridState:
        """UB: the ``(n, 9)`` per-cell bound matrix and the alias over ``mu(r)``."""
        index = self._index
        assert index is not None
        r_xs, r_ys = self.spec.r_points.xs, self.spec.r_points.ys
        n = self.spec.n
        bounds = np.zeros((n, 9), dtype=np.int32)
        if self._vectorized:
            # Count R in cell order: the queries of one cell share their 3x3
            # block, so every column's cell ids arrive in runs and the
            # kernels' per-cell grouping sorts run over sorted input.  The
            # chunks hold whole cells, so each corner cell's queries (which
            # all come from one R cell) reach the kernels together.  Each row
            # is computed on its own and scattered straight to R order, so
            # the chunks may run on several threads in any order.
            grid = index.grid
            # Resolve lazy state before any helper thread reads it.
            kernels = self.kernels
            grid.flat()
            if getattr(index, "uses_bucket_arrays", False):
                index.bucket_arrays()
            order, runs = grid.cell_runs(r_xs, r_ys)
            ends = np.cumsum(runs)
            cell_ids = np.empty((n, 9), dtype=np.int32)
            mu_totals = np.empty(n)

            def count_chunk(first: int, stop: int) -> None:
                rows = order[ends[first] - runs[first] : ends[stop - 1]]
                xs, ys = r_xs[rows], r_ys[rows]
                chunk_ids = grid.neighbor_cell_ids(xs, ys, kernels=kernels)
                chunk_bounds = index.batch_bounds(xs, ys, chunk_ids).astype(np.int32)
                bounds[rows] = chunk_bounds
                mu_totals[rows] = row_totals(chunk_bounds)
                cell_ids[rows] = chunk_ids

            _run_chunks(count_chunk, list(group_blocks(runs, _COUNT_CHUNK_ROWS)))
            self._cell_ids = cell_ids
        else:
            for i in range(n):
                for contribution in index.contributions(float(r_xs[i]), float(r_ys[i])):
                    bounds[i, _KIND_COLUMN[contribution.kind]] = contribution.upper_bound
            mu_totals = row_totals(bounds)
        sum_mu = float(mu_totals.sum())
        alias = AliasTable(mu_totals) if sum_mu > 0 else None
        return PreparedGridState(bounds=bounds, alias=alias, sum_mu=sum_mu)

    def _draw(
        self, state: PreparedGridState, t: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Sampling: rejection rounds, then candidate ids mapped to positions."""
        assert state.alias is not None
        r_indices, s_ids, iterations = rejection_rounds(
            t, state.alias, rng, self._resolve_round, self._batch_size
        )
        # The grid stores ids, not positions: map them back with a cached
        # sorted-id lookup.
        if self._s_id_lookup is None:
            ids = self.spec.s_points.ids
            sorter = np.argsort(ids, kind="stable")
            self._s_id_lookup = (sorter, ids[sorter])
        sorter, sorted_ids = self._s_id_lookup
        s_indices = sorter[np.searchsorted(sorted_ids, s_ids)]
        return r_indices, s_indices, iterations

    def _resolve_round(
        self, r: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one round's column, point and (if needed) slot uniforms and resolve it."""
        u_col = rng.random(r.size)
        u_point = rng.random(r.size)
        index = self._index
        assert index is not None
        u_slot = rng.random(r.size) if index.needs_slot_variates else None
        if self._vectorized:
            return self._round_vectorized(r, u_col, u_point, u_slot)
        return self._round_scalar(r, u_col, u_point, u_slot)

    # ------------------------------------------------------------------
    # Round processors (the two differential twins)
    # ------------------------------------------------------------------
    def _round_vectorized(
        self,
        r: np.ndarray,
        u_col: np.ndarray,
        u_point: np.ndarray,
        u_slot: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve one round of attempts with the selected kernel backend.

        Returns ``(accept, candidate_s_id)`` arrays in attempt order;
        rejected attempts carry ``-1``.  The heavy per-attempt work (cell
        column selection, case-1/2 picks, candidate gather + window test)
        runs in :mod:`repro.kernels`; the four corner columns go through the
        index's ``corner_pick_batch`` so subclass overrides (the Fig. 9
        kd-tree ablation) keep working.
        """
        spec = self.spec
        index, cell_id_matrix = self._index, self.cell_ids
        assert index is not None and cell_id_matrix is not None
        bounds = self._prepared.bounds
        kernels = self.kernels
        flat = index.grid.flat()
        half = spec.half_extent

        rows = _prefix_rows(bounds, r)
        # searchsorted(row, u * total, side="right") per attempt.
        col, totals = kernels.column_select(rows, u_col)
        counts = bounds[r, col].astype(np.int64)
        cell_ids = cell_id_matrix[r, col].astype(np.int64)
        rx = spec.r_points.xs[r]
        ry = spec.r_points.ys[r]
        wxmin, wxmax = rx - half, rx + half
        wymin, wymax = ry - half, ry + half
        viable = (totals > 0) & (counts > 0) & (cell_ids >= 0)

        # Cases 1/2 (center + edges): the first five bound-matrix columns.
        pos_x_view, pos_y_view = kernels.edge_positions(
            col, viable, cell_ids, counts, flat.starts, flat.lengths, u_point
        )
        # Case 3 (corners): through the index so ablations can override.
        for column in range(5, 9):
            sel = np.flatnonzero(viable & (col == column))
            if sel.size == 0:
                continue
            pos_x_view[sel] = index.corner_pick_batch(
                NEIGHBOR_OFFSETS[column],
                cell_ids[sel],
                counts[sel],
                u_point[sel],
                u_slot[sel] if u_slot is not None else None,
                wxmin[sel],
                wymin[sel],
                wxmax[sel],
                wymax[sel],
            )

        return kernels.gather_accept(
            pos_x_view,
            pos_y_view,
            flat.ids_by_x,
            flat.xs_by_x,
            flat.ys_by_x,
            flat.ids_by_y,
            flat.xs_by_y,
            flat.ys_by_y,
            wxmin,
            wymin,
            wxmax,
            wymax,
        )

    def _round_scalar(
        self,
        r: np.ndarray,
        u_col: np.ndarray,
        u_point: np.ndarray,
        u_slot: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-attempt Python twin of :meth:`_round_vectorized`.

        Consumes the same pre-drawn variates with the same selection rules,
        so the two processors accept the same attempts and return the same
        candidate points.
        """
        spec = self.spec
        index = self._index
        assert index is not None and self._prepared is not None
        bounds = self._prepared.bounds
        grid = index.grid
        r_xs, r_ys = spec.r_points.xs, spec.r_points.ys
        size = r.size
        accept = np.zeros(size, dtype=bool)
        cand_sid = np.full(size, -1, dtype=np.int64)
        for i in range(size):
            r_index = int(r[i])
            row = np.cumsum(bounds[r_index], dtype=np.float64)
            total = row[-1]
            if total <= 0:
                continue
            column = min(int(np.searchsorted(row, u_col[i] * total, side="right")), 8)
            count = int(bounds[r_index, column])
            if count <= 0:
                continue
            kind = NEIGHBOR_OFFSETS[column]
            rx, ry = float(r_xs[r_index]), float(r_ys[r_index])
            base_key = grid.key_for(rx, ry)
            cell = grid.get((base_key[0] + kind.offset[0], base_key[1] + kind.offset[1]))
            if cell is None:
                continue
            window = index.window_for(rx, ry)
            if kind is NeighborKind.CENTER:
                candidate = cell.point_by_x_order(pick_int_scalar(u_point[i], len(cell)))
            elif kind is NeighborKind.LEFT:
                candidate = cell.point_by_x_order(
                    len(cell) - count + pick_int_scalar(u_point[i], count)
                )
            elif kind is NeighborKind.RIGHT:
                candidate = cell.point_by_x_order(pick_int_scalar(u_point[i], count))
            elif kind is NeighborKind.DOWN:
                candidate = cell.point_by_y_order(
                    len(cell) - count + pick_int_scalar(u_point[i], count)
                )
            elif kind is NeighborKind.UP:
                candidate = cell.point_by_y_order(pick_int_scalar(u_point[i], count))
            else:
                candidate = index.corner_pick_scalar(
                    kind,
                    cell,
                    window,
                    count,
                    float(u_point[i]),
                    float(u_slot[i]) if u_slot is not None else 0.0,
                )
            if candidate is None:
                continue
            s_id, sx, sy = candidate
            if window.contains(sx, sy):
                accept[i] = True
                cand_sid[i] = s_id
        return accept, cand_sid
