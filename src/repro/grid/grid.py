"""The non-empty hash grid over the inner point set ``S``.

``Grid`` groups the points of ``S`` into square cells of side ``cell_size``
(the window half-extent ``l``), keeping only non-empty cells in a hash map.
Grid mapping is the paper's ``GRID-MAPPING(S, l)`` step: it runs in O(m) time
(plus the per-cell sorts the online building phase needs, which this class
also performs so that every cell exposes both sorted views).

For the batch-sampling engine the grid additionally exposes a *flat* view
(:class:`GridFlat`): every cell's sorted point arrays concatenated into
single arrays with per-cell offsets, plus a packed-key table that resolves
many ``(x, y) -> cell`` lookups with one ``searchsorted`` instead of one
dict probe per point.  The flat arrays are the grid's only copy of ``S``: six
arrays of ``m`` entries, 48 bytes per point.  A :class:`GridCell` is cut from
them (six slices) the first time it is asked for, so building or attaching a
grid does no per-cell Python work beyond the y sorts.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.core.validation import validate_half_extent
from repro.errors import InvalidSpecError
from repro.geometry.point import PointSet
from repro.geometry.rect import Rect
from repro.grid.cell import GridCell
from repro.grid.neighbors import NEIGHBOR_OFFSETS, NeighborKind

__all__ = ["Grid", "GridFlat", "pack_cell_keys", "PACK_LIMIT"]

#: Packed-key lookups require cell indices to fit in 32 bits; coordinates
#: beyond ``cell_size * 2**31`` fall back to per-point dict probes.
_PACK_LIMIT = np.int64(2**31 - 1)

#: Public alias of the packed-key coordinate limit (consumed by the
#: dynamic-update engine to decide whether packed key sets are usable).
PACK_LIMIT = _PACK_LIMIT


class _CellSlices(Sequence[GridCell]):
    """A grid's cells in flat order, each cut from the flat views when first read.

    Cell ``i`` is six slices of the views plus its key and rectangle; it is
    made on first access and kept, so an index always yields the same object.
    """

    __slots__ = ("_views", "_keys_ix", "_keys_iy", "_starts", "_lengths", "_cell_size", "_made")

    def __init__(
        self,
        views: tuple[np.ndarray, ...],
        keys_ix: np.ndarray,
        keys_iy: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        cell_size: float,
    ) -> None:
        # Plain ndarray views of the same buffers: slicing a memmap costs
        # about eight times more per slice.
        self._views = tuple(np.asarray(view) for view in views)
        self._keys_ix = keys_ix
        self._keys_iy = keys_iy
        self._starts = starts
        self._lengths = lengths
        self._cell_size = cell_size
        self._made: list[GridCell | None] = [None] * int(lengths.size)

    def __len__(self) -> int:
        return len(self._made)

    def __getitem__(self, i: Any) -> Any:
        """Cell ``i`` (any integer index), or a list of the cells of a slice."""
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._made)))]
        i = operator.index(i)
        cell = self._made[i]
        if cell is None:
            i %= len(self._made)
            ix, iy = int(self._keys_ix[i]), int(self._keys_iy[i])
            lo = int(self._starts[i])
            hi = lo + int(self._lengths[i])
            xs, ys, ids, xs_y, ys_y, ids_y = self._views
            size = self._cell_size
            cell = GridCell(
                (ix, iy),
                xs[lo:hi],
                ys[lo:hi],
                ids[lo:hi],
                xs_y[lo:hi],
                ys_y[lo:hi],
                ids_y[lo:hi],
                Rect(ix * size, iy * size, (ix + 1) * size, (iy + 1) * size),
            )
            self._made[i] = cell
        return cell


@dataclass(frozen=True)
class GridFlat:
    """Concatenated, gather-friendly view of a grid's cells.

    ``cells[i]`` owns the half-open slice ``[starts[i], starts[i] + lengths[i])``
    of every flat array.  ``*_by_x`` arrays concatenate each cell's x-sorted
    view, ``*_by_y`` the y-sorted copy ``Sy(c)``; within its slice each view
    keeps the cell's own sort order, so a (cell, position) pair from the
    scalar code maps to ``starts[cell] + position`` here.  ``keys_ix`` /
    ``keys_iy`` hold the cells' keys in ascending ``(ix, iy)`` order.
    """

    cells: Sequence[GridCell]
    keys_ix: np.ndarray
    keys_iy: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    xs_by_x: np.ndarray
    ys_by_x: np.ndarray
    ids_by_x: np.ndarray
    xs_by_y: np.ndarray
    ys_by_y: np.ndarray
    ids_by_y: np.ndarray
    #: Packed ``(ix << 32) | iy`` keys sorted ascending, and the cell index
    #: each sorted key belongs to; empty when packing is unsupported.
    packed_keys: np.ndarray
    packed_cell_ids: np.ndarray
    supports_packing: bool


def _pack_keys(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Pack ``(ix, iy)`` key pairs into one injective int64 per pair.

    Valid only while both components fit in 32 bits (callers check against
    :data:`_PACK_LIMIT`): the high word holds ``ix``, the low word ``iy``
    modulo ``2**32``, which is injective over the supported range.
    """
    return (ix.astype(np.int64) << np.int64(32)) | (
        iy.astype(np.int64) & np.int64(0xFFFFFFFF)
    )


def pack_cell_keys(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Public wrapper of the injective ``(ix, iy) -> int64`` key packing.

    Callers must keep both components within :data:`PACK_LIMIT`; the
    dynamic-update engine uses this to build packed affected-key sets.
    """
    return _pack_keys(np.asarray(ix, dtype=np.int64), np.asarray(iy, dtype=np.int64))


def _is_xy_sorted(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether the points are in ``(x, y)``-lexicographic order (one O(m) pass)."""
    dx = np.diff(xs)
    return bool(np.all((dx > 0) | ((dx == 0) & (np.diff(ys) >= 0))))


def _cell_order(ix: np.ndarray, iy: np.ndarray, stable: bool = False) -> np.ndarray:
    """Permutation that sorts ``(ix, iy)`` cell keys into ascending grid cell order.

    While both components fit in 32 bits the keys are packed order-preserving
    (``ix`` in the high word, ``iy + 2**31`` in the low one) and sorted with
    one ``argsort``, several times faster than the two-key ``lexsort`` that
    serves wider keys.  ``stable`` keeps the input order within a cell.
    """
    if ix.size and (
        min(int(ix.min()), int(iy.min())) >= -_PACK_LIMIT
        and max(int(ix.max()), int(iy.max())) <= _PACK_LIMIT
    ):
        keys = ix * np.int64(2**32) + (iy + np.int64(2**31))
        return np.argsort(keys, kind="stable" if stable else None)
    return np.lexsort((iy, ix))


def _views_of(source: GridFlat | GridCell) -> tuple[np.ndarray, ...]:
    """The six sorted views of a flat view or a cell, in :class:`GridFlat` order."""
    return (
        source.xs_by_x,
        source.ys_by_x,
        source.ids_by_x,
        source.xs_by_y,
        source.ys_by_y,
        source.ids_by_y,
    )


def _empty_views() -> tuple[np.ndarray, ...]:
    """The six sorted views of a grid with no points."""
    return (np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)) * 2


class Grid:
    """Hash grid of non-empty cells over a point set.

    Parameters
    ----------
    points:
        The inner join set ``S``.
    cell_size:
        Side length of each square cell; the samplers pass the window
        half-extent ``l`` so that a window is always covered by a 3x3 block.

    Points that arrive sorted by ``(x, y)`` - the paper's pre-sorted ``S``,
    as :meth:`~repro.geometry.point.PointSet.sorted_by_x` returns it - are
    grouped by one stable sort on the cell key instead of a full sort; the
    cells come out the same either way.
    """

    __slots__ = ("_cell_size", "_source_name", "_flat", "_pending", "_index")

    def __init__(self, points: PointSet, cell_size: float) -> None:
        self._cell_size = validate_half_extent(cell_size, name="cell_size")
        self._source_name = points.name
        self._pending: dict[tuple[int, int], GridCell | None] = {}
        self._index: dict[tuple[int, int], int] | None = None
        if len(points) == 0:
            none = np.empty(0, dtype=np.int64)
            self._assemble(none, none, none, _empty_views())
            return

        xs, ys, ids = points.xs, points.ys, points.ids
        ix, iy = self._keys(xs, ys)

        # Group point positions by cell key.  Sorting by (ix, iy, x, y) gives
        # each cell's points as one contiguous, (x, y)-sorted run; input that
        # is (x, y)-sorted already keeps that order under a stable key sort.
        if _is_xy_sorted(xs, ys):
            order = _cell_order(ix, iy, stable=True)
        else:
            order = np.lexsort((ys, xs, iy, ix))
        ix, iy = ix[order], iy[order]
        # Boundaries between runs of identical (ix, iy).
        first = np.flatnonzero((np.diff(ix) != 0) | (np.diff(iy) != 0)) + 1
        starts = np.concatenate(([0], first))
        lengths = np.diff(np.append(starts, order.size))
        xs_by_x, ys_by_x, ids_by_x = xs[order], ys[order], ids[order]
        del order
        # Each cell's y view (the paper's Sy(c)) sorts its run by (y, x): one
        # small lexsort per cell into one permutation of the x views.
        by_y = np.empty(xs_by_x.size, dtype=np.int64)
        for lo, hi in zip(starts.tolist(), np.append(starts[1:], xs_by_x.size).tolist()):
            by_y[lo:hi] = lo + np.lexsort((xs_by_x[lo:hi], ys_by_x[lo:hi]))
        self._assemble(
            ix[starts],
            iy[starts],
            lengths,
            (xs_by_x, ys_by_x, ids_by_x, xs_by_x[by_y], ys_by_x[by_y], ids_by_x[by_y]),
        )

    # ------------------------------------------------------------------
    # Reconstruction from persisted arrays (the artifact warm-start path)
    # ------------------------------------------------------------------
    @classmethod
    def from_cell_arrays(
        cls,
        cell_size: float,
        keys_ix: np.ndarray,
        keys_iy: np.ndarray,
        lengths: np.ndarray,
        xs_by_x: np.ndarray,
        ys_by_x: np.ndarray,
        ids_by_x: np.ndarray,
        xs_by_y: np.ndarray,
        ys_by_y: np.ndarray,
        ids_by_y: np.ndarray,
        source_name: str = "points",
    ) -> "Grid":
        """Reassemble a grid from its persisted per-cell arrays, zero-copy.

        The inverse of reading a built grid's canonical cell iteration order:
        ``keys_ix``/``keys_iy``/``lengths`` describe the cells in that order
        and the six ``*_by_*`` arrays are the concatenated sorted views (the
        exact layout of :class:`GridFlat`).  Cells keep slices of the passed
        arrays - memmapped blobs attach without copying - and the flat view
        is assembled directly instead of re-concatenating, so no per-point
        work (and in particular no lexsort) happens here.  Content
        correctness is the caller's contract; this method only restores
        structure.
        """
        grid = cls.__new__(cls)
        grid._cell_size = validate_half_extent(cell_size, name="cell_size")
        grid._source_name = source_name
        grid._pending = {}
        grid._index = None
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        keys_ix = np.asarray(keys_ix, dtype=np.int64)
        keys_iy = np.asarray(keys_iy, dtype=np.int64)
        if keys_ix.shape != lengths.shape or keys_iy.shape != lengths.shape:
            raise InvalidSpecError("cell key and length arrays must be parallel")
        if lengths.size and int(lengths.min()) < 1:
            raise InvalidSpecError("a grid never stores empty cells")
        size = int(lengths.sum())
        views = (xs_by_x, ys_by_x, ids_by_x, xs_by_y, ys_by_y, ids_by_y)
        if any(view.shape != (size,) for view in views):
            raise InvalidSpecError(
                "every sorted view must hold exactly the summed cell lengths"
            )
        order = np.lexsort((keys_iy, keys_ix))
        if np.any((np.diff(keys_ix[order]) == 0) & (np.diff(keys_iy[order]) == 0)):
            raise InvalidSpecError("cell keys must be unique")
        grid._assemble(keys_ix, keys_iy, lengths, views)
        return grid

    def _assemble(
        self,
        keys_ix: np.ndarray,
        keys_iy: np.ndarray,
        lengths: np.ndarray,
        views: tuple[np.ndarray, ...],
    ) -> None:
        """Install the flat view of the cells ``keys_ix``/``keys_iy``/``lengths``.

        ``views`` are the six concatenated sorted views in :class:`GridFlat`
        order, the cells given in canonical order.  No cell is made here:
        :class:`_CellSlices` cuts each from the views on first access.
        """
        starts = np.cumsum(lengths) - lengths
        supports_packing = bool(
            lengths.size
            and np.all(np.abs(keys_ix) <= _PACK_LIMIT)
            and np.all(np.abs(keys_iy) <= _PACK_LIMIT)
        )
        if supports_packing:
            packed = _pack_keys(keys_ix, keys_iy)
            order = np.argsort(packed, kind="stable")
            packed_keys = packed[order]
            packed_cell_ids = order.astype(np.int64)
        else:
            packed_keys = np.empty(0, dtype=np.int64)
            packed_cell_ids = np.empty(0, dtype=np.int64)
        self._flat = GridFlat(
            _CellSlices(views, keys_ix, keys_iy, starts, lengths, self._cell_size),
            keys_ix,
            keys_iy,
            starts,
            lengths,
            *views,
            packed_keys=packed_keys,
            packed_cell_ids=packed_cell_ids,
            supports_packing=supports_packing,
        )
        self._index = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def cell_size(self) -> float:
        """Side length of every cell."""
        return self._cell_size

    @property
    def num_points(self) -> int:
        """Number of points mapped into the grid (``m``)."""
        return int(self.flat().xs_by_x.size)

    @property
    def num_cells(self) -> int:
        """Number of non-empty cells."""
        return int(self.flat().lengths.size)

    @property
    def cells(self) -> Mapping[tuple[int, int], GridCell]:
        """Read-only map of every cell by key, in canonical order (makes every cell)."""
        cells = self.flat().cells
        return MappingProxyType({key: cells[i] for key, i in self._key_index().items()})

    def __len__(self) -> int:
        return self.num_cells

    def __iter__(self) -> Iterator[GridCell]:
        return iter(self.flat().cells)

    def __contains__(self, key: tuple[int, int]) -> bool:
        self.flat()
        return key in self._key_index()

    def _key_index(self) -> dict[tuple[int, int], int]:
        """Flat cell index by key, built on the first keyed lookup after a change."""
        if self._index is None:
            flat = self._flat
            self._index = dict(
                zip(zip(flat.keys_ix.tolist(), flat.keys_iy.tolist()), range(flat.lengths.size))
            )
        return self._index

    def key_for(self, x: float, y: float) -> tuple[int, int]:
        """Cell key of an arbitrary location."""
        return (
            int(np.floor(x / self._cell_size)),
            int(np.floor(y / self._cell_size)),
        )

    def get(self, key: tuple[int, int]) -> GridCell | None:
        """Cell stored under ``key``, or ``None`` when the cell is empty."""
        flat = self.flat()
        i = self._key_index().get(key)
        return None if i is None else flat.cells[i]

    def cell_of(self, x: float, y: float) -> GridCell | None:
        """Cell containing the location ``(x, y)`` (``None`` when empty)."""
        return self.get(self.key_for(x, y))

    def neighborhood(
        self, x: float, y: float
    ) -> list[tuple[NeighborKind, GridCell]]:
        """Non-empty cells of the 3x3 block around the location ``(x, y)``.

        Returns ``(kind, cell)`` pairs in the deterministic order of
        :data:`~repro.grid.neighbors.NEIGHBOR_OFFSETS`.
        """
        cx, cy = self.key_for(x, y)
        found: list[tuple[NeighborKind, GridCell]] = []
        for kind in NEIGHBOR_OFFSETS:
            dx, dy = kind.offset
            cell = self.get((cx + dx, cy + dy))
            if cell is not None:
                found.append((kind, cell))
        return found

    # ------------------------------------------------------------------
    # Incremental maintenance (the dynamic-update subsystem's hooks)
    # ------------------------------------------------------------------
    def build_cell(
        self, key: tuple[int, int], xs: np.ndarray, ys: np.ndarray, ids: np.ndarray
    ) -> GridCell:
        """Construct one cell in the canonical order a fresh grid build uses.

        Points are sorted by ``(x, y)`` - exactly the per-cell order produced
        by the construction-time lexsort - so a maintained cell is
        bit-identical to the cell a fresh :class:`Grid` over the same points
        would hold.
        """
        order = np.lexsort((ys, xs))
        return GridCell(
            key=key,
            xs_by_x=np.asarray(xs, dtype=np.float64)[order],
            ys_by_x=np.asarray(ys, dtype=np.float64)[order],
            ids_by_x=np.asarray(ids, dtype=np.int64)[order],
            bounds=Rect(
                xmin=key[0] * self._cell_size,
                ymin=key[1] * self._cell_size,
                xmax=(key[0] + 1) * self._cell_size,
                ymax=(key[1] + 1) * self._cell_size,
            ),
        )

    def apply_cell_updates(
        self, replacements: Mapping[tuple[int, int], GridCell | None]
    ) -> None:
        """Replace, add or drop cells, keeping the canonical cell order.

        ``replacements`` maps cell keys to their new :class:`GridCell`
        (``None`` drops a now-empty cell).  The change is written into new
        flat views on the next access (see :meth:`flat`), with the cells in
        ascending ``(ix, iy)`` key order - the order a fresh construction
        produces - so every flat cell index matches a from-scratch grid over
        the same points.
        """
        for key, cell in replacements.items():
            if cell is not None and cell.key != key:
                raise InvalidSpecError(f"cell key {cell.key} does not match slot {key}")
        self._pending.update(replacements)

    # ------------------------------------------------------------------
    # Batch (vectorised) lookups
    # ------------------------------------------------------------------
    def flat(self) -> GridFlat:
        """The concatenated gather-friendly view (re-spliced after cell updates)."""
        if self._pending:
            self._splice()
        return self._flat

    def _splice(self) -> None:
        """Write the pending replacements into new flat views.

        The old views are copied in runs: the kept cells between two
        replaced ones are contiguous there, so each run is one slice per
        view and the Python work grows with the replaced cells, not with all
        cells.  The old buffers are then freed with the old view.
        """
        old = self._flat
        index = self._key_index()
        changes = sorted(self._pending.items())
        self._pending = {}
        kept = np.ones(old.lengths.size, dtype=bool)
        kept[[index[key] for key, _cell in changes if key in index]] = False
        added = [cell for _key, cell in changes if cell is not None]
        # source >= 0: an old cell's flat index; source < 0: added[-1 - source].
        source = np.concatenate(
            (np.flatnonzero(kept), -1 - np.arange(len(added), dtype=np.int64))
        )
        keys_ix = np.concatenate(
            (old.keys_ix[kept], np.array([cell.key[0] for cell in added], dtype=np.int64))
        )
        keys_iy = np.concatenate(
            (old.keys_iy[kept], np.array([cell.key[1] for cell in added], dtype=np.int64))
        )
        lengths = np.concatenate(
            (old.lengths[kept], np.array([len(cell) for cell in added], dtype=np.int64))
        )
        order = np.lexsort((keys_iy, keys_ix))
        keys_ix, keys_iy, lengths, source = (
            keys_ix[order], keys_iy[order], lengths[order], source[order]
        )
        if not source.size:
            self._assemble(keys_ix, keys_iy, lengths, _empty_views())
            return
        # Runs of old cells that sit back to back in the old views.
        from_old = source >= 0
        joined = from_old[1:] & from_old[:-1] & (source[1:] == source[:-1] + 1)
        firsts = np.flatnonzero(np.concatenate(([True], ~joined)))
        lasts = np.append(firsts[1:], source.size) - 1
        old_views = tuple(np.asarray(view) for view in _views_of(old))
        pieces: list[list[np.ndarray]] = [[] for _ in old_views]
        for first, last in zip(source[firsts].tolist(), source[lasts].tolist()):
            if first >= 0:
                lo = int(old.starts[first])
                hi = int(old.starts[last] + old.lengths[last])
                parts = tuple(view[lo:hi] for view in old_views)
            else:
                parts = _views_of(added[-1 - first])
            for column, part in zip(pieces, parts):
                column.append(part)
        views = tuple(np.concatenate(column) for column in pieces)
        self._assemble(keys_ix, keys_iy, lengths, views)

    def lookup_cell_ids(
        self, ix: np.ndarray, iy: np.ndarray, kernels=None
    ) -> np.ndarray:
        """Flat cell index per ``(ix, iy)`` key, or ``-1`` for empty cells.

        ``kernels`` optionally routes the sorted packed-key probe through a
        :class:`~repro.kernels.KernelSet` (both backends are bit-identical);
        the wide-key dict-probe fallback always runs in plain Python.
        """
        flat = self.flat()
        ix = np.asarray(ix, dtype=np.int64)
        iy = np.asarray(iy, dtype=np.int64)
        out = np.full(ix.shape, -1, dtype=np.int64)
        if not flat.lengths.size:
            return out
        if not flat.supports_packing or np.any(np.abs(ix) > _PACK_LIMIT) or np.any(
            np.abs(iy) > _PACK_LIMIT
        ):
            # Coordinates outside the 32-bit key range: per-point dict probes.
            index_of = self._key_index()
            for pos in range(ix.size):
                out.flat[pos] = index_of.get((int(ix.flat[pos]), int(iy.flat[pos])), -1)
            return out
        packed = _pack_keys(ix, iy)
        if kernels is not None:
            return kernels.packed_lookup(flat.packed_keys, flat.packed_cell_ids, packed)
        slots = np.searchsorted(flat.packed_keys, packed)
        slots = np.minimum(slots, flat.packed_keys.size - 1)
        found = flat.packed_keys[slots] == packed
        out[found] = flat.packed_cell_ids[slots[found]]
        return out

    def _keys(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(ix, iy)`` cell key arrays of many locations."""
        return (
            np.floor(np.asarray(xs, dtype=np.float64) / self._cell_size).astype(np.int64),
            np.floor(np.asarray(ys, dtype=np.float64) / self._cell_size).astype(np.int64),
        )

    def cell_runs(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Permutation grouping the locations by cell, and the length of each group.

        The groups follow grid cell order, so along the permutation every
        column of :meth:`neighbor_cell_ids` is non-decreasing apart from its
        ``-1`` (empty cell) entries.  The order within a cell is unspecified.
        """
        ix, iy = self._keys(xs, ys)
        order = _cell_order(ix, iy)
        ix = ix[order]
        iy = iy[order]
        first = np.flatnonzero((ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1])) + 1
        edges = np.concatenate(([0], first, [order.size])) if order.size else np.zeros(1)
        return order, np.diff(edges).astype(np.int64)

    def neighbor_cell_ids(
        self, xs: np.ndarray, ys: np.ndarray, kernels=None
    ) -> np.ndarray:
        """Flat cell indices of every query's 3x3 block, shape ``(q, 9)``.

        Columns follow :data:`~repro.grid.neighbors.NEIGHBOR_OFFSETS`; empty
        cells are ``-1``.  This is the batch counterpart of
        :meth:`neighborhood`.  All queries of one cell share its block, so
        each distinct cell's nine neighbours are looked up once and the rows
        are broadcast back in query order.
        """
        base_ix, base_iy = self._keys(xs, ys)
        order = _cell_order(base_ix, base_iy)
        ix_sorted, iy_sorted = base_ix[order], base_iy[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (ix_sorted[1:] != ix_sorted[:-1]) | (iy_sorted[1:] != iy_sorted[:-1])
        offsets = np.array([kind.offset for kind in NEIGHBOR_OFFSETS], dtype=np.int64)
        blocks = self.lookup_cell_ids(
            ix_sorted[first][:, None] + offsets[None, :, 0],
            iy_sorted[first][:, None] + offsets[None, :, 1],
            kernels=kernels,
        )
        block_of = np.empty(order.size, dtype=np.int64)
        block_of[order] = np.cumsum(first) - 1
        return blocks[block_of]

    def neighborhood_counts(
        self, xs: np.ndarray, ys: np.ndarray, kernels=None
    ) -> np.ndarray:
        """Point count of every query's 3x3 block cells, shape ``(q, 9)``.

        ``sum(axis=1)`` is the KDS-rejection bound ``mu(r)`` for every query
        in one shot.
        """
        flat = self.flat()
        cell_ids = self.neighbor_cell_ids(xs, ys, kernels=kernels)
        if kernels is not None:
            return kernels.counts_gather(flat.lengths, cell_ids)
        counts = np.zeros(cell_ids.shape, dtype=np.int64)
        present = cell_ids >= 0
        counts[present] = flat.lengths[cell_ids[present]]
        return counts

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def occupancy(self) -> np.ndarray:
        """Array of per-cell point counts (used to characterise skew)."""
        return self.flat().lengths.copy()

    def nbytes(self) -> int:
        """Approximate memory footprint of all cells' sorted views."""
        flat = self.flat()
        return int(
            flat.xs_by_x.nbytes
            + flat.ys_by_x.nbytes
            + flat.ids_by_x.nbytes
            + flat.xs_by_y.nbytes
            + flat.ys_by_y.nbytes
            + flat.ids_by_y.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Grid(source={self._source_name!r}, cell_size={self._cell_size}, "
            f"points={self.num_points}, cells={self.num_cells})"
        )
