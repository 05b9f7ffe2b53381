"""Fig. 9 ablation: Algorithm 1 with a kd-tree per cell instead of two BBSTs.

The paper validates the BBST design by replacing, in every grid cell, the two
BBSTs with a kd-tree and using KDS for the case-3 counting and sampling.  The
grid-based handling of cases 1 and 2 is unchanged; only the corner cells pay
the kd-tree's O(sqrt(|S(c)|)) traversal cost, which is what makes the variant
up to an order of magnitude slower in the paper's measurements.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.bbst.join_index import BBSTJoinIndex
from repro.core.batching import group_blocks, pick_int, pick_int_scalar, ragged_offsets, select_kth_true
from repro.core.grid_sampler_base import GridJoinSamplerBase
from repro.core.registry import register_sampler
from repro.geometry.point import PointSet
from repro.geometry.rect import Rect
from repro.grid.cell import GridCell
from repro.grid.grid import Grid
from repro.grid.neighbors import NeighborKind
from repro.kdtree.tree import KDTree

__all__ = ["CellKDTreeJoinIndex", "CellKDTreeSampler"]


class CellKDTreeJoinIndex(BBSTJoinIndex):
    """Grid index whose corner-cell structure is a per-cell kd-tree.

    Corner counts are exact (the kd-tree intersects the window with the cell),
    so ``mu(r)`` is exact as well; the price is the kd-tree traversal per
    corner cell during both the counting and the sampling phase.  The batch
    engine's corner primitives compute the same exact quantities with one
    vectorised containment pass over the (query, cell point) candidate pairs,
    so, as for the BBST index, only the scalar oracle builds the per-cell
    trees.
    """

    #: Exact corner sampling never rejects, so no slot variates are needed.
    needs_slot_variates = False

    #: kd-trees do not depend on the bucket capacity, so a size change never
    #: forces a full rebuild under dynamic updates.
    capacity_dependent = False

    #: The batch corner primitives scan the grid-flat views directly, so
    #: artifacts persist no bucket envelopes for this index.
    uses_bucket_arrays = False

    def _build_cell_structures(self) -> None:
        self._cell_indexes = {}
        self._cell_trees: dict[tuple[int, int], KDTree] = {}
        for key, cell in self._grid.cells.items():
            self._refresh_cell(key, cell)

    def _refresh_cell(self, key: tuple[int, int], cell: GridCell | None) -> None:
        if cell is None:
            self._cell_trees.pop(key, None)
            return
        cell_points = PointSet(
            xs=cell.xs_by_x, ys=cell.ys_by_x, ids=cell.ids_by_x, name="cell"
        )
        self._cell_trees[key] = KDTree(cell_points, leaf_size=8)

    def cell_tree(self, key: tuple[int, int]) -> KDTree | None:
        """The per-cell kd-tree stored under ``key`` (``None`` for empty cells)."""
        self._ensure_cell_structures()
        return self._cell_trees.get(key)

    def nbytes(self) -> int:
        if self._cell_indexes is None:
            # Only the scalar oracle builds the per-cell trees.
            return self._grid.nbytes()
        return self._grid.nbytes() + sum(tree.nbytes() for tree in self._cell_trees.values())

    # ------------------------------------------------------------------
    def _corner_upper_bound(
        self, cell: GridCell, kind: NeighborKind, window: Rect
    ) -> tuple[int, bool]:
        self._ensure_cell_structures()
        tree = self._cell_trees[cell.key]
        return tree.count(window), True

    def _corner_sample(
        self,
        cell: GridCell,
        kind: NeighborKind,
        window: Rect,
        rng: np.random.Generator,
    ) -> tuple[int, float, float] | None:
        self._ensure_cell_structures()
        tree = self._cell_trees[cell.key]
        position = tree.sample(window, rng)
        if position is None:
            return None
        point = tree.points[position]
        return (point.pid, point.x, point.y)

    # ------------------------------------------------------------------
    # Batched corner primitives (exact in-window counts and picks)
    # ------------------------------------------------------------------
    def _corner_in_window_mask(
        self,
        cell_ids: np.ndarray,
        lengths: np.ndarray,
        block: slice,
        wxmin: np.ndarray,
        wymin: np.ndarray,
        wxmax: np.ndarray,
        wymax: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expanded ``(group, offset, containment)`` arrays over a block of attempts."""
        flat = self._grid.flat()
        rep, offset = ragged_offsets(lengths[block])
        point = flat.starts[cell_ids[block]][rep] + offset
        xs = flat.xs_by_x[point]
        ys = flat.ys_by_x[point]
        ok = (
            (xs >= wxmin[block][rep])
            & (xs <= wxmax[block][rep])
            & (ys >= wymin[block][rep])
            & (ys <= wymax[block][rep])
        )
        return rep, offset, ok

    def _corner_bounds_batch(
        self,
        kind: NeighborKind,
        cell_ids: np.ndarray,
        wxmin: np.ndarray,
        wymin: np.ndarray,
        wxmax: np.ndarray,
        wymax: np.ndarray,
    ) -> np.ndarray:
        """Exact ``|w(r) ∩ S(c)|`` per (query, corner cell) pair."""
        flat = self._grid.flat()
        lengths = flat.lengths[cell_ids]
        out = np.zeros(cell_ids.size, dtype=np.int64)
        for lo, hi in group_blocks(lengths):
            block = slice(lo, hi)
            rep, _offset, ok = self._corner_in_window_mask(
                cell_ids, lengths, block, wxmin, wymin, wxmax, wymax
            )
            out[block] = np.bincount(rep, weights=ok, minlength=hi - lo).astype(np.int64)
        return out

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
        """Uniform in-window pick per attempt: the rank-th matching point in x-order.

        ``bounds_col`` is the exact in-window count, so the pick never fails
        and every corner attempt is accepted (matching the scalar variant's
        iterations == t behaviour).
        """
        flat = self._grid.flat()
        lengths = flat.lengths[cell_ids]
        ranks = pick_int(u_point, bounds_col)
        out = np.full(cell_ids.size, -1, dtype=np.int64)
        for lo, hi in group_blocks(lengths):
            block = slice(lo, hi)
            rep, offset, ok = self._corner_in_window_mask(
                cell_ids, lengths, block, wxmin, wymin, wxmax, wymax
            )
            hit = select_kth_true(rep, lengths[block], ok, ranks[block])
            found = np.flatnonzero(hit >= 0)
            if found.size == 0:
                continue
            out[lo + found] = flat.starts[cell_ids[lo + found]] + offset[hit[found]]
        return out

    def corner_pick_scalar(
        self,
        kind: NeighborKind,
        cell: GridCell,
        window: Rect,
        bound: int,
        u_point: float,
        u_slot: float,
    ) -> tuple[int, float, float] | None:
        """Scalar twin of :meth:`corner_pick_batch` for the differential path."""
        rank = pick_int_scalar(u_point, bound)
        seen = 0
        for position in range(len(cell)):
            if window.contains(float(cell.xs_by_x[position]), float(cell.ys_by_x[position])):
                if seen == rank:
                    return cell.point_by_x_order(position)
                seen += 1
        return None  # pragma: no cover - bound > 0 guarantees a hit


@register_sampler(
    "cell-kdtree",
    aliases=("cell_kdtree",),
    tags=("online", "grid"),
    summary="Algorithm 1 with per-cell kd-trees (Fig. 9 ablation)",
    supports_updates=True,
)
class CellKDTreeSampler(GridJoinSamplerBase):
    """Algorithm 1 with per-cell kd-trees (the Fig. 9 comparison variant)."""

    @property
    def name(self) -> str:
        return "Grid+kd-tree"

    #: Artifact payload identity of this sampler's prepared state.
    artifact_kind = "grid-cell-kdtree"

    def _build_index(self) -> CellKDTreeJoinIndex:
        return CellKDTreeJoinIndex(
            self.sorted_s,
            half_extent=self.spec.half_extent,
            backend=self.kernel_backend,
        )

    def _restore_index(
        self,
        grid: Grid,
        meta: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
    ) -> CellKDTreeJoinIndex:
        # No bucket envelopes to restore: the exact corner primitives scan the
        # grid-flat views, and the per-cell kd-trees rebuild lazily.
        return CellKDTreeJoinIndex.from_prepared(
            self.spec.s_points,
            self.spec.half_extent,
            grid,
            bucket_capacity=max(1, int(meta.get("bucket_capacity", 1))),
            capacity_override=bool(meta.get("capacity_override", False)),
            backend=self.kernel_backend,
        )
