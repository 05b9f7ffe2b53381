"""A single non-empty grid cell and its sorted point views.

Every cell keeps two sorted views of the points of ``S`` that fall inside it:

* ``by x`` - the paper pre-sorts ``S`` on the x axis, so ``S(c)`` arrives
  x-sorted; case-2 cells on the left/right of the window are resolved by a
  binary search on this view.
* ``by y`` - the copy ``Sy(c)`` built in the online phase (Algorithm 1,
  lines 3-4); case-2 cells below/above the window binary-search this view.

The corner (case 3) cells additionally partition the x-sorted view into
buckets; the bucket envelopes and, for the scalar oracle, the two BBSTs over
them live in :mod:`repro.bbst` and reference the arrays stored here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidSpecError
from repro.geometry.rect import Rect

__all__ = ["GridCell", "cell_key_for"]


def cell_key_for(x: float, y: float, cell_size: float) -> tuple[int, int]:
    """Integer key of the half-open cell ``[i*h, (i+1)*h) x [j*h, (j+1)*h)``."""
    if cell_size <= 0:
        raise InvalidSpecError("cell_size must be positive")
    return (int(np.floor(x / cell_size)), int(np.floor(y / cell_size)))


@dataclass(slots=True)
class GridCell:
    """Points of ``S`` falling into one grid cell, in two sorted orders.

    Attributes
    ----------
    key:
        Integer ``(ix, iy)`` grid coordinates.
    xs_by_x, ys_by_x, ids_by_x:
        Parallel arrays of the cell's points sorted by ascending x.
    xs_by_y, ys_by_y, ids_by_y:
        The same points sorted by ascending y (the paper's ``Sy(c)``).
    bounds:
        Geometric rectangle of the cell.
    """

    key: tuple[int, int]
    xs_by_x: np.ndarray
    ys_by_x: np.ndarray
    ids_by_x: np.ndarray
    xs_by_y: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    ys_by_y: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    ids_by_y: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    bounds: Rect | None = None

    def __post_init__(self) -> None:
        if not (len(self.xs_by_x) == len(self.ys_by_x) == len(self.ids_by_x)):
            raise InvalidSpecError("x-sorted arrays must be parallel")
        if len(self.xs_by_x) == 0:
            raise InvalidSpecError("a GridCell must contain at least one point")
        if self.xs_by_y is None:
            order = np.lexsort((self.xs_by_x, self.ys_by_x))
            self.xs_by_y = self.xs_by_x[order]
            self.ys_by_y = self.ys_by_x[order]
            self.ids_by_y = self.ids_by_x[order]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.xs_by_x.shape[0])

    @property
    def size(self) -> int:
        """Number of points in the cell, the paper's ``|S(c)|``."""
        return len(self)

    # ------------------------------------------------------------------
    # Case-2 helpers: 1-sided counting and sampling on the sorted views.
    # ------------------------------------------------------------------
    def count_x_at_least(self, x_low: float) -> int:
        """Number of points with ``x >= x_low`` (window to the right of its left edge)."""
        pos = int(np.searchsorted(self.xs_by_x, x_low, side="left"))
        return len(self) - pos

    def count_x_at_most(self, x_high: float) -> int:
        """Number of points with ``x <= x_high``."""
        return int(np.searchsorted(self.xs_by_x, x_high, side="right"))

    def count_y_at_least(self, y_low: float) -> int:
        """Number of points with ``y >= y_low``."""
        pos = int(np.searchsorted(self.ys_by_y, y_low, side="left"))
        return len(self) - pos

    def count_y_at_most(self, y_high: float) -> int:
        """Number of points with ``y <= y_high``."""
        return int(np.searchsorted(self.ys_by_y, y_high, side="right"))

    def kth_x_at_least(self, x_low: float, k: int) -> int:
        """Index (position in the x-sorted view) of the k-th point with ``x >= x_low``."""
        pos = int(np.searchsorted(self.xs_by_x, x_low, side="left"))
        return pos + k

    def kth_x_at_most(self, x_high: float, k: int) -> int:
        """Index of the k-th point with ``x <= x_high`` (0-based ``k``)."""
        return k

    def kth_y_at_least(self, y_low: float, k: int) -> int:
        """Index (position in the y-sorted view) of the k-th point with ``y >= y_low``."""
        pos = int(np.searchsorted(self.ys_by_y, y_low, side="left"))
        return pos + k

    def kth_y_at_most(self, y_high: float, k: int) -> int:
        """Index of the k-th point with ``y <= y_high`` (0-based ``k``)."""
        return k

    def point_by_x_order(self, index: int) -> tuple[int, float, float]:
        """Return ``(id, x, y)`` of the point at ``index`` in the x-sorted view."""
        return (
            int(self.ids_by_x[index]),
            float(self.xs_by_x[index]),
            float(self.ys_by_x[index]),
        )

    def point_by_y_order(self, index: int) -> tuple[int, float, float]:
        """Return ``(id, x, y)`` of the point at ``index`` in the y-sorted view."""
        return (
            int(self.ids_by_y[index]),
            float(self.xs_by_y[index]),
            float(self.ys_by_y[index]),
        )

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Approximate memory footprint of the stored arrays."""
        total = 0
        for arr in (
            self.xs_by_x,
            self.ys_by_x,
            self.ids_by_x,
            self.xs_by_y,
            self.ys_by_y,
            self.ids_by_y,
        ):
            total += int(arr.nbytes)
        return total
