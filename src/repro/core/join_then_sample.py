"""The naive comparator: materialise the join, then sample from it.

Section I argues this is infeasible for large inputs because the join result
can have Theta(nm) pairs; the class exists so that tests can cross-check the
clever samplers against an obviously-correct reference and so that the
benchmark harness can demonstrate the crossover the paper motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.base import JoinSampler
from repro.core.full_join import spatial_range_join_array
from repro.core.registry import register_sampler
from repro.grid.grid import Grid

__all__ = ["MaterialisedJoin", "JoinThenSample"]


@dataclass
class MaterialisedJoin:
    """The whole join ``J`` as ``(r_index, s_index)`` rows (the cached state)."""

    pairs: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.pairs.shape[0] == 0

    def result_metadata(self) -> dict[str, Any]:
        return {"join_size": int(self.pairs.shape[0])}


@register_sampler(
    "join-then-sample",
    aliases=("join_then_sample",),
    tags=("exhaustive",),
    summary="naive comparator: materialise the join, then sample from it",
)
class JoinThenSample(JoinSampler):
    """Materialise ``J`` with the exact grid join, then sample uniformly from it."""

    _grid: Grid | None = None

    @property
    def name(self) -> str:
        return "JoinThenSample"

    def index_nbytes(self) -> int:
        return self._grid.nbytes() if self._grid is not None else 0

    @property
    def exact_join_size(self) -> int | None:
        """Exact ``|J|`` of the materialised join (``None`` before preparing)."""
        return None if self._prepared is None else int(self._prepared.pairs.shape[0])

    # ------------------------------------------------------------------
    def _preprocess_impl(self) -> None:
        # The grid over S plays the role of the join index; building it is the
        # only step that can be shared across sample() calls.
        self._grid = Grid(self.spec.s_points, cell_size=self.spec.half_extent)

    def _count(self) -> MaterialisedJoin:
        """Materialise the join (reported as the UB column)."""
        return MaterialisedJoin(spatial_range_join_array(self.spec, self._grid))

    def _draw(
        self, state: MaterialisedJoin, t: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, int]:
        picks = rng.integers(state.pairs.shape[0], size=t)
        return state.pairs[picks, 0], state.pairs[picks, 1], t
