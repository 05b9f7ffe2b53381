"""Grid + bucket envelopes: the complete index behind the proposed algorithm.

:class:`BBSTJoinIndex` performs the *online data structure building phase* of
Algorithm 1 (grid mapping, per-cell y-sorted copies, the bucket partition of
Definition 3) and exposes the two primitives the sampler needs.  The batch
engine reads only flat arrays: the grid's :class:`~repro.grid.grid.GridFlat`
views and the :class:`BucketArrays` envelopes derived from them.  The
per-cell BBST pairs (Algorithm 2) are built lazily, on the first call of the
scalar (``vectorized=False``) oracle below:

* :meth:`BBSTJoinIndex.contributions` - for a query point ``r``, the per-cell
  upper bounds ``mu(r, c)`` over the (at most nine) non-empty cells of the
  3x3 block around ``r``; cases 1 and 2 are exact, case 3 is the BBST's
  O(log m)-approximate count (Section IV-D).
* :meth:`BBSTJoinIndex.sample_from` - one sampling attempt inside a chosen
  cell (Section IV-E); case 1 is a uniform pick, case 2 a binary-searched
  uniform pick, case 3 the BBST bucket/slot draw which may fail and must then
  be retried by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bbst.bucket import Bucket, bucket_capacity_for
from repro.bbst.cell_index import CellIndex
from repro.core.batching import pick_int_scalar, ragged_offsets
from repro.core.validation import validate_half_extent
from repro.errors import InvalidSpecError
from repro.kernels.backends import get_kernels, resolve_backend
from repro.geometry.point import PointSet
from repro.geometry.rect import Rect, window_around
from repro.grid.cell import GridCell
from repro.grid.grid import Grid, GridFlat
from repro.grid.neighbors import CASE_CORNER, NEIGHBOR_OFFSETS, NeighborKind

__all__ = ["CellContribution", "BBSTJoinIndex", "BucketArrays"]

#: Corner dominance predicates, equivalent to the BBST qualifying set of
#: :data:`repro.bbst.cell_index._CORNER_RULES` (Lemma 5): the first flag picks
#: the x test (``max_x >= w.xmin`` vs ``min_x <= w.xmax``), the second the y
#: test (``max_y >= w.ymin`` vs ``min_y <= w.ymax``).
_CORNER_DOMINANCE: dict[NeighborKind, tuple[bool, bool]] = {
    NeighborKind.LOWER_LEFT: (True, True),
    NeighborKind.UPPER_LEFT: (True, False),
    NeighborKind.LOWER_RIGHT: (False, True),
    NeighborKind.UPPER_RIGHT: (False, False),
}

#: Column of every neighbour kind in the dense ``(n, 9)`` bound matrix.
_EDGE_COLUMNS: tuple[tuple[int, NeighborKind], ...] = tuple(
    (column, kind)
    for column, kind in enumerate(NEIGHBOR_OFFSETS)
    if kind.is_edge
)
_CORNER_COLUMNS: tuple[tuple[int, NeighborKind], ...] = tuple(
    (column, kind)
    for column, kind in enumerate(NEIGHBOR_OFFSETS)
    if kind.is_corner
)


def corner_bucket_qualifies(bucket: Bucket, kind: NeighborKind, window: Rect) -> bool:
    """Scalar dominance test: does the bucket's envelope qualify for the query?

    Matches the BBST's qualifying-runs membership exactly, so enumerating a
    cell's buckets in index order and keeping the qualifying ones yields the
    same set the tree traversal collects.
    """
    use_max_x, use_max_y = _CORNER_DOMINANCE[kind]
    ok_x = bucket.max_x >= window.xmin if use_max_x else bucket.min_x <= window.xmax
    ok_y = bucket.max_y >= window.ymin if use_max_y else bucket.min_y <= window.ymax
    return bool(ok_x and ok_y)


@dataclass(frozen=True)
class BucketArrays:
    """Flat envelope arrays of every cell's buckets, in grid-flat cell order.

    Cell ``c`` owns buckets ``starts[c] : starts[c] + counts[c]``;
    ``point_start``/``sizes`` locate each bucket's points inside its cell's
    x-sorted view.  These arrays let the batch engine evaluate the corner
    dominance predicate for thousands of (attempt, bucket) pairs with a
    handful of numpy operations instead of one BBST traversal per attempt.
    """

    starts: np.ndarray
    counts: np.ndarray
    min_x: np.ndarray
    max_x: np.ndarray
    min_y: np.ndarray
    max_y: np.ndarray
    point_start: np.ndarray
    sizes: np.ndarray

    @classmethod
    def from_flat(cls, flat: GridFlat, capacity: int) -> "BucketArrays":
        """The envelopes of every cell's buckets, read off the grid-flat views.

        Bucket ``k`` of a cell is its x-sorted run ``[k * capacity,
        min((k + 1) * capacity, len))``, so its x envelope is the run's end
        points and its y envelope one min/max reduction over ``ys_by_x``.
        The buckets of all cells tile the flat arrays, so one ``reduceat``
        per bound covers every bucket.  The values equal those
        :func:`~repro.bbst.bucket.build_buckets` stores.
        """
        counts = -(-flat.lengths // capacity)
        starts = (
            np.concatenate(([0], np.cumsum(counts)[:-1]))
            if counts.size
            else np.empty(0, dtype=np.int64)
        )
        cell, k = ragged_offsets(counts)
        point_start = k * capacity
        sizes = np.minimum(flat.lengths[cell] - point_start, capacity)
        first = flat.starts[cell] + point_start
        if first.size:
            min_y = np.minimum.reduceat(flat.ys_by_x, first)
            max_y = np.maximum.reduceat(flat.ys_by_x, first)
        else:
            min_y = max_y = np.empty(0, dtype=np.float64)
        return cls(
            starts=starts,
            counts=counts,
            min_x=flat.xs_by_x[first],
            max_x=flat.xs_by_x[first + sizes - 1],
            min_y=min_y,
            max_y=max_y,
            point_start=point_start,
            sizes=sizes,
        )

    def nbytes(self) -> int:
        """Approximate memory footprint of the envelope arrays."""
        return int(
            self.starts.nbytes
            + self.counts.nbytes
            + self.min_x.nbytes
            + self.max_x.nbytes
            + self.min_y.nbytes
            + self.max_y.nbytes
            + self.point_start.nbytes
            + self.sizes.nbytes
        )


@dataclass(frozen=True, slots=True)
class CellContribution:
    """Contribution of one non-empty cell to ``mu(r)``.

    Attributes
    ----------
    kind:
        Position of the cell relative to the cell containing ``r`` (Fig. 1).
    cell:
        The grid cell itself.
    upper_bound:
        ``mu(r, c)``; exact for cases 1 and 2, an upper bound for case 3.
    exact:
        Whether ``upper_bound`` equals the true count of window points in the
        cell (cases 1 and 2).
    """

    kind: NeighborKind
    cell: GridCell
    upper_bound: int
    exact: bool

    @property
    def case(self) -> int:
        """Paper case number (1, 2 or 3)."""
        return self.kind.case


class BBSTJoinIndex:
    """The proposed algorithm's index over the inner set ``S``.

    Parameters
    ----------
    s_points:
        The inner join set ``S``.
    half_extent:
        The window half-extent ``l`` (cells have side ``l``).
    bucket_capacity:
        Override for the bucket size; defaults to ``ceil(log2 m)``.
    backend:
        Kernel backend for the batched counting/sampling primitives
        (``"numpy" | "numba" | "auto"``, see :mod:`repro.kernels`); both
        backends are bit-identical.
    """

    #: Whether the batch engine must pre-draw per-attempt slot variates for
    #: this index's corner sampling (True for the BBST's bucket slots).
    needs_slot_variates = True

    #: Whether the per-cell corner structures depend on the bucket capacity
    #: (and must therefore all be rebuilt when ``ceil(log2 m)`` changes under
    #: updates).  The kd-tree ablation overrides this with False.
    capacity_dependent = True

    #: Whether the batch corner primitives read the flat bucket envelope
    #: arrays (persisted by artifacts).  The kd-tree ablation overrides this
    #: with False - its corner primitives scan the grid-flat views directly.
    uses_bucket_arrays = True

    __slots__ = (
        "_points",
        "_half_extent",
        "_grid",
        "_cell_indexes",
        "_capacity",
        "_capacity_override",
        "_bucket_arrays",
        "_kernel_backend",
    )

    def __init__(
        self,
        s_points: PointSet,
        half_extent: float,
        bucket_capacity: int | None = None,
        backend: str | None = None,
    ) -> None:
        self._points = s_points
        self._half_extent = validate_half_extent(half_extent)
        self._kernel_backend = resolve_backend(backend)
        self._capacity_override = bucket_capacity is not None
        self._capacity = (
            int(bucket_capacity)
            if bucket_capacity is not None
            else bucket_capacity_for(len(s_points))
        )
        if self._capacity < 1:
            raise InvalidSpecError("bucket_capacity must be at least 1")
        self._grid = Grid(s_points, cell_size=self._half_extent)
        # The batch engine reads only the grid-flat views and the bucket
        # envelopes; the per-cell trees wait for the scalar oracle.
        self._cell_indexes: dict[tuple[int, int], CellIndex] | None = None
        self._bucket_arrays: BucketArrays | None = None
        if self.uses_bucket_arrays:
            self.bucket_arrays()

    @classmethod
    def from_prepared(
        cls,
        s_points: PointSet,
        half_extent: float,
        grid: Grid,
        bucket_capacity: int,
        capacity_override: bool,
        backend: str | None = None,
        bucket_arrays: BucketArrays | None = None,
    ) -> "BBSTJoinIndex":
        """Reassemble an index around a restored grid (artifact warm start).

        The persisted bucket envelopes are adopted as they are (``None``
        derives them from the grid-flat views on first use).  As after a
        cold build, the per-cell trees are left to
        :meth:`_ensure_cell_structures`.
        """
        index = cls.__new__(cls)
        index._points = s_points
        index._half_extent = validate_half_extent(half_extent)
        index._kernel_backend = resolve_backend(backend)
        index._capacity_override = bool(capacity_override)
        index._capacity = int(bucket_capacity)
        if index._capacity < 1:
            raise InvalidSpecError("bucket_capacity must be at least 1")
        index._grid = grid
        index._cell_indexes = None
        index._bucket_arrays = bucket_arrays
        return index

    def _ensure_cell_structures(self) -> None:
        """Build the per-cell corner structures on the scalar oracle's first call."""
        if self._cell_indexes is None:
            self._build_cell_structures()

    def _build_cell_structures(self) -> None:
        """Build the per-cell corner structures (two BBSTs per cell).

        Subclasses (e.g. the Fig. 9 per-cell kd-tree ablation) override
        :meth:`_refresh_cell` together with :meth:`_corner_upper_bound` and
        :meth:`_corner_sample` to swap the corner-cell data structure while
        keeping the grid-based case 1/2 handling identical.
        """
        self._cell_indexes = {}
        for key, cell in self._grid.cells.items():
            self._refresh_cell(key, cell)

    def _refresh_cell(self, key: tuple[int, int], cell: GridCell | None) -> None:
        """(Re)build the corner structure of one cell (``None`` drops it)."""
        if cell is None:
            self._cell_indexes.pop(key, None)
        else:
            self._cell_indexes[key] = CellIndex(cell, self._capacity)

    def apply_cell_updates(
        self,
        replacements: dict[tuple[int, int], GridCell | None],
        num_points: int,
        points: PointSet | None = None,
    ) -> bool:
        """Incrementally maintain the index after grid cells changed.

        The grid itself must already have been updated (see
        :meth:`repro.grid.grid.Grid.apply_cell_updates`).  The bucket
        envelopes are re-derived from the updated grid-flat view.  When the
        inner set's size crossed a power of two, the paper's
        ``ceil(log2 m)`` bucket capacity changed and every bucket partition
        with it (unless an explicit capacity override pins it, or the
        subclass is capacity-independent).  Per-cell trees, if the scalar
        oracle built them, are kept current: the affected ones are rebuilt,
        or all of them after a capacity change.

        Returns True when every cell's corner structure changed (the caller
        must then refresh all corner bounds, not just the affected rows).
        """
        if points is not None:
            self._points = points
        rebuilt_all = False
        if self.capacity_dependent and not self._capacity_override:
            fresh_capacity = bucket_capacity_for(num_points)
            if fresh_capacity != self._capacity:
                self._capacity = fresh_capacity
                rebuilt_all = True
        if self._cell_indexes is not None:
            if rebuilt_all:
                self._build_cell_structures()
            else:
                for key, cell in replacements.items():
                    self._refresh_cell(key, cell)
        self._bucket_arrays = None
        if self.uses_bucket_arrays:
            self.bucket_arrays()
        return rebuilt_all

    # ------------------------------------------------------------------
    @property
    def points(self) -> PointSet:
        """The indexed inner set ``S``."""
        return self._points

    @property
    def half_extent(self) -> float:
        """Window half-extent ``l`` this index was built for."""
        return self._half_extent

    @property
    def grid(self) -> Grid:
        """The non-empty grid over ``S``."""
        return self._grid

    @property
    def bucket_capacity(self) -> int:
        """Bucket size used by every cell's BBSTs."""
        return self._capacity

    @property
    def capacity_override(self) -> bool:
        """Whether an explicit override pins the capacity (vs ``ceil(log2 m)``)."""
        return self._capacity_override

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel backend name serving the batched primitives."""
        return self._kernel_backend

    @property
    def kernels(self):
        """The :class:`~repro.kernels.KernelSet` of the resolved backend."""
        return get_kernels(self._kernel_backend)

    def cell_index(self, key: tuple[int, int]) -> CellIndex | None:
        """Per-cell index stored under ``key`` (``None`` for empty cells)."""
        self._ensure_cell_structures()
        return self._cell_indexes.get(key)

    def window_for(self, x: float, y: float) -> Rect:
        """The join window ``w(r)`` centred at ``(x, y)``."""
        return window_around(x, y, self._half_extent)

    def nbytes(self) -> int:
        """Approximate memory footprint: grid arrays plus bucket envelopes.

        The per-cell BBSTs count only once the scalar oracle has built them;
        measuring never forces them.
        """
        total = self._grid.nbytes()
        if self._bucket_arrays is not None:
            total += self._bucket_arrays.nbytes()
        if self._cell_indexes is not None:
            total += sum(index.nbytes() for index in self._cell_indexes.values())
        return total

    # ------------------------------------------------------------------
    # Approximate range counting phase (per query point)
    # ------------------------------------------------------------------
    def contributions(self, x: float, y: float) -> list[CellContribution]:
        """Per-cell upper bounds ``mu(r, c)`` for a query point at ``(x, y)``."""
        window = self.window_for(x, y)
        result: list[CellContribution] = []
        for kind, cell in self._grid.neighborhood(x, y):
            if kind is NeighborKind.CENTER:
                bound, exact = len(cell), True
            elif kind is NeighborKind.LEFT:
                bound, exact = cell.count_x_at_least(window.xmin), True
            elif kind is NeighborKind.RIGHT:
                bound, exact = cell.count_x_at_most(window.xmax), True
            elif kind is NeighborKind.DOWN:
                bound, exact = cell.count_y_at_least(window.ymin), True
            elif kind is NeighborKind.UP:
                bound, exact = cell.count_y_at_most(window.ymax), True
            else:
                bound, exact = self._corner_upper_bound(cell, kind, window)
            if bound > 0:
                result.append(
                    CellContribution(kind=kind, cell=cell, upper_bound=bound, exact=exact)
                )
        return result

    def upper_bound(self, x: float, y: float) -> int:
        """``mu(r)``: the summed per-cell upper bounds for the point ``(x, y)``."""
        return sum(c.upper_bound for c in self.contributions(x, y))

    # ------------------------------------------------------------------
    # Sampling phase (per attempt)
    # ------------------------------------------------------------------
    def sample_from(
        self,
        contribution: CellContribution,
        window: Rect,
        rng: np.random.Generator,
    ) -> tuple[int, float, float] | None:
        """One sampling attempt inside the chosen cell.

        Returns ``(point_id, x, y)`` of a candidate point, or ``None`` for a
        failed case-3 attempt (empty bucket slot).  For cases 1 and 2 the
        candidate is always inside the window; for case 3 the caller performs
        the final containment check.
        """
        cell = contribution.cell
        kind = contribution.kind
        if kind is NeighborKind.CENTER:
            position = int(rng.integers(len(cell)))
            return cell.point_by_x_order(position)
        if kind is NeighborKind.LEFT:
            count = cell.count_x_at_least(window.xmin)
            if count == 0:
                return None
            position = cell.kth_x_at_least(window.xmin, int(rng.integers(count)))
            return cell.point_by_x_order(position)
        if kind is NeighborKind.RIGHT:
            count = cell.count_x_at_most(window.xmax)
            if count == 0:
                return None
            position = cell.kth_x_at_most(window.xmax, int(rng.integers(count)))
            return cell.point_by_x_order(position)
        if kind is NeighborKind.DOWN:
            count = cell.count_y_at_least(window.ymin)
            if count == 0:
                return None
            position = cell.kth_y_at_least(window.ymin, int(rng.integers(count)))
            return cell.point_by_y_order(position)
        if kind is NeighborKind.UP:
            count = cell.count_y_at_most(window.ymax)
            if count == 0:
                return None
            position = cell.kth_y_at_most(window.ymax, int(rng.integers(count)))
            return cell.point_by_y_order(position)
        if kind.case != CASE_CORNER:  # pragma: no cover - defensive
            raise InvalidSpecError(f"unhandled neighbour kind {kind}")
        return self._corner_sample(cell, kind, window, rng)

    # ------------------------------------------------------------------
    # Batched (vectorised) counting and sampling primitives
    # ------------------------------------------------------------------
    def bucket_arrays(self) -> BucketArrays:
        """Flat bucket envelope arrays (derived from the grid-flat view, then cached)."""
        if self._bucket_arrays is None:
            self._bucket_arrays = BucketArrays.from_flat(self._grid.flat(), self._capacity)
        return self._bucket_arrays

    def batch_bounds(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        cell_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Dense ``(q, 9)`` matrix of per-cell bounds ``mu(r, c)`` for many queries.

        Column ``j`` corresponds to ``NEIGHBOR_OFFSETS[j]``; entries are zero
        for empty cells.  Produces exactly the values the scalar
        :meth:`contributions` loop yields, one vectorised pass per neighbour
        kind instead of one Python iteration per query point.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        flat = self._grid.flat()
        if cell_ids is None:
            cell_ids = self._grid.neighbor_cell_ids(xs, ys, kernels=self.kernels)
        half = self._half_extent
        wxmin, wxmax = xs - half, xs + half
        wymin, wymax = ys - half, ys + half
        bounds = np.zeros((xs.size, 9), dtype=np.float64)

        center = cell_ids[:, 0]
        has_center = center >= 0
        bounds[has_center, 0] = flat.lengths[center[has_center]]

        edge_values = {
            NeighborKind.LEFT: wxmin,
            NeighborKind.RIGHT: wxmax,
            NeighborKind.DOWN: wymin,
            NeighborKind.UP: wymax,
        }
        for column, kind in _EDGE_COLUMNS:
            ids = cell_ids[:, column]
            queries = np.flatnonzero(ids >= 0)
            if queries.size == 0:
                continue
            bounds[queries, column] = self._edge_counts_batch(
                kind, ids[queries], edge_values[kind][queries]
            )
        for column, kind in _CORNER_COLUMNS:
            ids = cell_ids[:, column]
            queries = np.flatnonzero(ids >= 0)
            if queries.size == 0:
                continue
            bounds[queries, column] = self._corner_bounds_batch(
                kind,
                ids[queries],
                wxmin[queries],
                wymin[queries],
                wxmax[queries],
                wymax[queries],
            )
        return bounds

    def _edge_counts_batch(
        self, kind: NeighborKind, cell_ids: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Exact 1-sided counts for one edge kind, grouped by cell.

        The rank counts run in the selected kernel backend over the grid-flat
        sorted views (within its slice each cell keeps its own sort order, so
        ``flat.xs_by_x`` / ``flat.ys_by_y`` runs are the cells' sorted
        arrays).
        """
        flat = self._grid.flat()
        if kind in (NeighborKind.LEFT, NeighborKind.RIGHT):
            sorted_flat = flat.xs_by_x
        else:  # DOWN / UP
            sorted_flat = flat.ys_by_y
        at_least = kind in (NeighborKind.LEFT, NeighborKind.DOWN)
        return self.kernels.sorted_block_counts(
            cell_ids, values, flat.starts, flat.lengths, sorted_flat, at_least
        )

    def _corner_bounds_batch(
        self,
        kind: NeighborKind,
        cell_ids: np.ndarray,
        wxmin: np.ndarray,
        wymin: np.ndarray,
        wxmax: np.ndarray,
        wymax: np.ndarray,
    ) -> np.ndarray:
        """``mu(r, c)`` for one corner kind over many (query, cell) pairs.

        Evaluates the bucket-envelope dominance predicate (the BBST
        qualifying set) for all (query, bucket) pairs in the selected kernel
        backend; the bound is ``capacity`` times the number of qualifying
        buckets, exactly as the per-query tree traversal computes it.
        """
        arrays = self.bucket_arrays()
        use_max_x, use_max_y = _CORNER_DOMINANCE[kind]
        qualifying = self.kernels.corner_qualifying(
            cell_ids,
            wxmin,
            wymin,
            wxmax,
            wymax,
            arrays.starts,
            arrays.counts,
            arrays.min_x,
            arrays.max_x,
            arrays.min_y,
            arrays.max_y,
            use_max_x,
            use_max_y,
        )
        return qualifying * self._capacity

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
        """One corner sampling attempt per (query, cell) pair, vectorised.

        Draws the ``floor(u_point * #qualifying)``-th qualifying bucket (in
        bucket-index order) and the ``floor(u_slot * capacity)``-th slot.
        Returns, per attempt, the global position into the grid-flat x-sorted
        arrays, or ``-1`` for a failed attempt (empty slot of a partially
        filled bucket) - the same rejection the scalar bucket draw performs.
        """
        assert u_slot is not None
        arrays = self.bucket_arrays()
        flat = self._grid.flat()
        use_max_x, use_max_y = _CORNER_DOMINANCE[kind]
        return self.kernels.corner_pick(
            cell_ids,
            bounds_col,
            u_point,
            u_slot,
            wxmin,
            wymin,
            wxmax,
            wymax,
            flat.starts,
            arrays.starts,
            arrays.counts,
            arrays.min_x,
            arrays.max_x,
            arrays.min_y,
            arrays.max_y,
            arrays.point_start,
            arrays.sizes,
            use_max_x,
            use_max_y,
            self._capacity,
        )

    def corner_pick_scalar(
        self,
        kind: NeighborKind,
        cell: GridCell,
        window: Rect,
        bound: int,
        u_point: float,
        u_slot: float,
    ) -> tuple[int, float, float] | None:
        """Scalar twin of :meth:`corner_pick_batch` (the ``vectorized=False`` path).

        Consumes the same pre-drawn variates and applies the same
        bucket-index-order rank selection, so both paths return the same
        point for the same variates.
        """
        self._ensure_cell_structures()
        qualifying = bound // self._capacity
        rank = pick_int_scalar(u_point, qualifying)
        seen = 0
        chosen: Bucket | None = None
        for bucket in self._cell_indexes[cell.key].buckets:
            if corner_bucket_qualifies(bucket, kind, window):
                if seen == rank:
                    chosen = bucket
                    break
                seen += 1
        if chosen is None:  # pragma: no cover - bound > 0 guarantees a hit
            return None
        slot = pick_int_scalar(u_slot, self._capacity)
        position = chosen.slot_position(slot)
        if position is None:
            return None
        return cell.point_by_x_order(position)

    # ------------------------------------------------------------------
    # Corner (case 3) primitives - overridden by the Fig. 9 ablation.
    # ------------------------------------------------------------------
    def _corner_upper_bound(
        self, cell: GridCell, kind: NeighborKind, window: Rect
    ) -> tuple[int, bool]:
        """``(mu(r, c), exact?)`` for a corner cell via its BBSTs."""
        self._ensure_cell_structures()
        cell_index = self._cell_indexes[cell.key]
        return cell_index.corner_upper_bound(kind, window), False

    def _corner_sample(
        self,
        cell: GridCell,
        kind: NeighborKind,
        window: Rect,
        rng: np.random.Generator,
    ) -> tuple[int, float, float] | None:
        """One corner-cell sampling attempt via the cell's BBSTs."""
        self._ensure_cell_structures()
        cell_index = self._cell_indexes[cell.key]
        return cell_index.corner_sample(kind, window, rng)
