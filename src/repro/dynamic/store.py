"""Mutable point storage backing the dynamic-update subsystem.

A :class:`DynamicPointStore` is the growable twin of the immutable
:class:`~repro.geometry.point.PointSet`: it keeps ids / xs / ys in parallel
numpy arrays, supports batched point insertion and deletion by dataset id,
and hands out read-only :class:`PointSet` snapshots of its current content.

Two properties matter for the exactness guarantees of
:class:`repro.dynamic.DynamicSampler`:

* **Order stability** - insertions append, deletions compact while
  *preserving the relative order* of the surviving points.  The snapshot
  after any update sequence is therefore exactly the point set a caller
  would have assembled by hand, which is what the differential tests build
  their fresh static samplers from.
* **Id discipline** - every point keeps its dataset id across updates;
  auto-assigned ids for coordinate-only insertions are guaranteed fresh, and
  re-inserting a taken id raises instead of silently aliasing two points.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidSpecError, UnknownKeyError
from repro.geometry.point import PointSet

__all__ = ["DynamicPointStore"]


class DynamicPointStore:
    """Growable (ids, xs, ys) columns with id-addressed deletion.

    Ids resolve to positions through a sorted-id index: ``_sorted_ids`` holds
    the live ids ascending and ``_sorted_positions`` each one's position, so
    a lookup is one binary search and no update walks the ids in Python.
    """

    __slots__ = (
        "_ids",
        "_xs",
        "_ys",
        "_sorted_ids",
        "_sorted_positions",
        "_next_id",
        "_snapshot",
        "name",
    )

    def __init__(self, points: PointSet) -> None:
        self._ids = points.ids.copy()
        self._xs = points.xs.copy()
        self._ys = points.ys.copy()
        self.name = points.name
        self._sorted_positions = np.argsort(self._ids, kind="stable")
        self._sorted_ids = self._ids[self._sorted_positions]
        if np.any(self._sorted_ids[1:] == self._sorted_ids[:-1]):
            raise InvalidSpecError("point ids must be unique to support deletion by id")
        self._next_id = int(self._ids.max()) + 1 if self._ids.size else 0
        self._snapshot: PointSet | None = points

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._ids.shape[0])

    @property
    def ids(self) -> np.ndarray:
        """The current id column (live view; do not mutate)."""
        return self._ids

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        return self._ys

    def _slots_of(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index slots of ``ids`` in the sorted-id index, and which are live."""
        slots = np.searchsorted(self._sorted_ids, ids)
        found = np.zeros(ids.shape, dtype=bool)
        inside = slots < self._sorted_ids.size
        found[inside] = self._sorted_ids[slots[inside]] == ids[inside]
        return slots, found

    def position_of(self, point_id: int) -> int:
        """Current positional index of a point (``KeyError`` when absent)."""
        pid = int(point_id)
        slots, found = self._slots_of(np.array([pid], dtype=np.int64))
        if not found[0]:
            raise UnknownKeyError(pid)
        return int(self._sorted_positions[slots[0]])

    def __contains__(self, point_id: int) -> bool:
        return bool(self._slots_of(np.array([int(point_id)], dtype=np.int64))[1][0])

    def snapshot(self) -> PointSet:
        """Read-only :class:`PointSet` of the current content (cached)."""
        if self._snapshot is None:
            self._snapshot = PointSet(
                xs=self._xs, ys=self._ys, ids=self._ids, name=self.name
            )
        return self._snapshot

    # ------------------------------------------------------------------
    def insert(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Append a batch of points; returns the (possibly assigned) ids.

        ``ids=None`` auto-assigns fresh consecutive ids above every id ever
        seen.  Explicit ids must be unique and must not collide with live
        points.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise InvalidSpecError("xs and ys must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise InvalidSpecError("inserted coordinates must be finite")
        count = xs.shape[0]
        if ids is None:
            new_ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        else:
            new_ids = np.asarray(ids, dtype=np.int64).copy()
            if new_ids.shape != xs.shape:
                raise InvalidSpecError("ids must have the same length as the coordinates")
            if np.unique(new_ids).size != count:
                raise InvalidSpecError("inserted ids must be unique")
            taken = self._slots_of(new_ids)[1]
            if taken.any():
                pid = int(new_ids[np.argmax(taken)])
                raise InvalidSpecError(f"point id {pid} is already present")
        if count == 0:
            return new_ids
        base = len(self)
        self._ids = np.concatenate((self._ids, new_ids))
        self._xs = np.concatenate((self._xs, xs))
        self._ys = np.concatenate((self._ys, ys))
        order = np.argsort(new_ids, kind="stable")
        slots = np.searchsorted(self._sorted_ids, new_ids[order])
        self._sorted_ids = np.insert(self._sorted_ids, slots, new_ids[order])
        self._sorted_positions = np.insert(self._sorted_positions, slots, base + order)
        self._next_id = max(self._next_id, int(new_ids.max()) + 1)
        self._snapshot = None
        return new_ids

    def delete(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove a batch of points by id (order-preserving compaction).

        Returns ``(positions, xs, ys)`` of the removed points *before*
        compaction, so callers can locate the grid cells and bound-matrix
        rows the removal affects.  Unknown ids raise ``KeyError``.
        """
        wanted = np.asarray(ids, dtype=np.int64)
        if wanted.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0), np.empty(0)
        if np.unique(wanted).size != wanted.size:
            raise InvalidSpecError("deleted ids must be unique")
        slots, found = self._slots_of(wanted)
        if not found.all():
            pid = int(wanted[np.argmin(found)])
            raise UnknownKeyError(f"point id {pid} is not present")
        positions = self._sorted_positions[slots]
        removed_xs = self._xs[positions].copy()
        removed_ys = self._ys[positions].copy()
        keep = np.ones(len(self), dtype=bool)
        keep[positions] = False
        self._ids = self._ids[keep]
        self._xs = self._xs[keep]
        self._ys = self._ys[keep]
        # Compaction moves each survivor down by the number of removed
        # positions below it.
        live = np.ones(self._sorted_ids.size, dtype=bool)
        live[slots] = False
        survivors = self._sorted_positions[live]
        self._sorted_ids = self._sorted_ids[live]
        self._sorted_positions = survivors - np.searchsorted(np.sort(positions), survivors)
        self._snapshot = None
        return positions, removed_xs, removed_ys

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicPointStore(name={self.name!r}, size={len(self)})"
