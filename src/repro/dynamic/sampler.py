"""Incremental insert/delete maintenance for the grid-decomposition samplers.

:class:`DynamicSampler` wraps a registered *maintainable* join sampler (one
whose registry entry advertises ``supports_updates``, i.e. the grid samplers
``bbst`` and ``cell-kdtree``) and keeps its online structures consistent
under point insertions and deletions **without rebuilding them**:

* the hash grid over ``S`` is patched cell by cell - only the cells whose
  membership changed are re-sorted, in the canonical order a fresh build
  produces, and the bucket envelopes are re-derived from the updated
  grid-flat view;
* the dense int32 ``(n, 9)`` per-point bound matrix and its float64 row
  totals ``mu(r)`` are maintained row-wise: an
  ``R`` insertion appends freshly counted rows, an ``R`` deletion compacts,
  and an ``S`` change recounts only the rows whose 3x3 block touches an
  affected cell (found through a packed-key dilation of the affected keys);
* the top-level structure over ``mu(r)`` follows a **lazy alias-rebuild
  policy**: while the total weight drift since the last
  :class:`~repro.alias.walker.AliasTable` build stays below
  ``rebuild_threshold``, draws are routed through a freshly cumsum'd
  :class:`~repro.alias.walker.CumulativeTable` over the *current* weights -
  O(n) to refresh and exactly proportional to ``mu`` - and the O(n) alias
  construction is deferred until the drift passes the threshold (or
  :meth:`DynamicSampler.flush` forces it).

Exactness guarantee
-------------------
Draws are **exactly uniform over the current join at all times**: every
routing structure is built over the up-to-date weights, every per-cell count
is recomputed for the affected rows before the next draw, and the final
``s in w(r)`` containment check is unchanged.  Moreover the maintained state
is *bit-identical* to a fresh build over the final ``(R, S)``: after
:meth:`flush` (which installs the same :class:`AliasTable` a fresh build
would), ``sample(t, seed=s)`` returns bit-identical pairs to a newly
constructed static sampler over :attr:`r_points` / :attr:`s_points` - the
differential tests in ``tests/dynamic`` pin this.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.alias.walker import AliasTable, CumulativeTable
from repro.core.base import JoinSampler, JoinSampleResult, PhaseTimings
from repro.core.config import JoinSpec
from repro.core.grid_sampler_base import GridJoinSamplerBase, PreparedGridState, row_totals
from repro.core.registry import get_sampler
from repro.dynamic.store import DynamicPointStore
from repro.errors import InvalidSpecError
from repro.geometry.point import PointSet
from repro.grid.grid import PACK_LIMIT, pack_cell_keys

__all__ = ["DynamicSampler", "UpdateReport"]

#: Fraction of the total weight that may drift before the lazy policy stops
#: serving draws from cumulative tables and rebuilds the alias structure.
DEFAULT_REBUILD_THRESHOLD = 0.1

_SIDES = ("r", "s")


def _writable(array: np.ndarray) -> np.ndarray:
    """A writable view of ``array``, copying read-only (memmapped) inputs.

    Warm-started samplers hold their bound matrix and cell-id matrix as
    read-only memory maps; the row-wise maintenance below mutates them in
    place, so the first update materialises private copies.
    """
    return array if array.flags.writeable else array.copy()


@dataclass
class UpdateReport:
    """Outcome of one :meth:`DynamicSampler.update` batch."""

    side: str
    inserted: int
    deleted: int
    #: Grid cells whose membership was rebuilt.
    affected_cells: int
    #: Bound-matrix rows recounted (R rows whose 3x3 block was affected).
    refreshed_rows: int
    #: Whether every cell's bucket partition changed (bucket capacity
    #: crossed a power of two), so every row was recounted.
    structure_rebuilt: bool
    seconds: float
    inserted_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


@dataclass
class _DynamicState:
    """The incrementally maintained online state.

    ``bounds`` and ``cell_ids`` are int32 ``(n, 9)`` matrices, as the static
    count phase leaves them; ``mu`` holds their float64 row totals.
    """

    bounds: np.ndarray
    mu: np.ndarray
    cell_ids: np.ndarray
    r_ix: np.ndarray
    r_iy: np.ndarray
    sum_mu: float
    #: Accumulated absolute weight drift since the last alias build.
    drift: float = 0.0


class DynamicSampler(JoinSampler):
    """A join sampler that stays exact under point insertions and deletions.

    Parameters
    ----------
    spec:
        The initial join instance.
    algorithm:
        Name (or alias) of a registered sampler whose entry advertises
        ``supports_updates`` (``ValueError`` otherwise).
    rebuild_threshold:
        Lazy-alias policy knob: relative weight drift tolerated before the
        alias table is rebuilt (dirty draws use exact cumulative routing).
    sampler_options:
        Extra keyword arguments forwarded to the inner sampler constructor.
    """

    def __init__(
        self,
        spec: JoinSpec,
        algorithm: str = "bbst",
        rebuild_threshold: float = DEFAULT_REBUILD_THRESHOLD,
        **sampler_options: Any,
    ) -> None:
        super().__init__(
            spec,
            batch_size=sampler_options.get("batch_size"),
            vectorized=sampler_options.get("vectorized", True),
            backend=sampler_options.get("backend"),
        )
        entry = get_sampler(algorithm)
        if not entry.supports_updates:
            raise InvalidSpecError(
                f"sampler {entry.name!r} does not support incremental updates; "
                "maintainable samplers advertise supports_updates in the registry"
            )
        if rebuild_threshold < 0:
            raise InvalidSpecError("rebuild_threshold must be non-negative")
        self._algorithm = entry.name
        self._rebuild_threshold = float(rebuild_threshold)
        inner = entry.create(spec, **sampler_options)
        if not isinstance(inner, GridJoinSamplerBase):  # pragma: no cover - defensive
            raise TypeError(
                f"sampler {entry.name!r} is not a grid-decomposition sampler; "
                "DynamicSampler maintenance requires the Algorithm 1 skeleton"
            )
        self._inner: GridJoinSamplerBase = inner
        # Built lazily on the first update: a never-updated wrapper (the
        # session wraps every maintainable serial entry) must not pay the
        # array copies and the id->position dict for read-only workloads.
        self._store_r: DynamicPointStore | None = None
        self._store_s: DynamicPointStore | None = None
        self._state: _DynamicState | None = None
        self._router_stale = False
        self._force_alias = False
        self._updates_applied = 0
        self._points_changed = 0
        self._alias_rebuilds = 0
        self._cumulative_rebuilds = 0

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"Dynamic[{self._inner.name}]"

    @property
    def algorithm(self) -> str:
        """Canonical registry name of the maintained algorithm."""
        return self._algorithm

    @property
    def inner(self) -> GridJoinSamplerBase:
        """The wrapped static sampler serving the draws."""
        return self._inner

    def _require_stores(self) -> tuple[DynamicPointStore, DynamicPointStore]:
        if self._store_r is None:
            self._store_r = DynamicPointStore(self.spec.r_points)
            self._store_s = DynamicPointStore(self.spec.s_points)
        assert self._store_s is not None
        return self._store_r, self._store_s

    @property
    def r_points(self) -> PointSet:
        """Snapshot of the current outer set ``R``."""
        if self._store_r is None:
            return self.spec.r_points
        return self._store_r.snapshot()

    @property
    def s_points(self) -> PointSet:
        """Snapshot of the current inner set ``S``."""
        if self._store_s is None:
            return self.spec.s_points
        return self._store_s.snapshot()

    @property
    def updates_applied(self) -> int:
        """Number of :meth:`update` batches applied so far."""
        return self._updates_applied

    @property
    def points_changed(self) -> int:
        """Total points inserted plus deleted across all updates."""
        return self._points_changed

    @property
    def rebuild_threshold(self) -> float:
        return self._rebuild_threshold

    @property
    def alias_rebuilds(self) -> int:
        """How often the lazy policy rebuilt the alias table."""
        return self._alias_rebuilds

    @property
    def cumulative_rebuilds(self) -> int:
        """How often dirty draws were served from a cumulative-table router."""
        return self._cumulative_rebuilds

    def index_nbytes(self) -> int:
        return self._inner.index_nbytes()

    def _has_online_state(self) -> bool:
        return self._inner.is_prepared

    # ------------------------------------------------------------------
    # Sampling (delegated to the maintained inner sampler)
    # ------------------------------------------------------------------
    def _preprocess_impl(self) -> None:
        self._inner.preprocess()

    def _sample_impl(self, t: int, rng: np.random.Generator) -> JoinSampleResult:
        if self._state is not None:
            self._sync_router()
        result = self._inner.sample(t, rng=rng)
        if self._updates_applied:
            result.metadata["dynamic_updates"] = self._updates_applied
        return result

    def prepare(self) -> PhaseTimings:
        timings = self._inner.prepare()
        self._preprocess_seconds = self._inner.preprocess_seconds
        self._preprocessed = True
        return timings

    # ------------------------------------------------------------------
    # The update API
    # ------------------------------------------------------------------
    def insert(
        self,
        side: str,
        points: PointSet | tuple[np.ndarray, np.ndarray],
        ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Insert a batch of points into one side; returns their ids."""
        report = self.update(side, insert=points, insert_ids=ids)
        return report.inserted_ids

    def delete(self, side: str, ids: np.ndarray) -> UpdateReport:
        """Delete a batch of points (by dataset id) from one side."""
        return self.update(side, delete=ids)

    def update(
        self,
        side: str,
        insert: PointSet | tuple[np.ndarray, np.ndarray] | None = None,
        delete: np.ndarray | None = None,
        insert_ids: np.ndarray | None = None,
    ) -> UpdateReport:
        """Apply one batch of deletions then insertions to one side.

        Deletions run first, so an id deleted and re-inserted in the same
        batch is legal.  The maintained structures are consistent (and draws
        exactly uniform over the new join) as soon as this returns.
        """
        if side not in _SIDES:
            raise InvalidSpecError(f"side must be one of {_SIDES}, got {side!r}")
        start = time.perf_counter()
        self._ensure_dynamic()
        ins_xs, ins_ys, ins_ids = self._coerce_insert(insert, insert_ids)
        del_ids = (
            np.asarray(delete, dtype=np.int64)
            if delete is not None
            else np.empty(0, dtype=np.int64)
        )
        if side == "r":
            refreshed_rows, inserted_ids, affected, rebuilt = self._apply_r_update(
                ins_xs, ins_ys, ins_ids, del_ids
            )
        else:
            refreshed_rows, inserted_ids, affected, rebuilt = self._apply_s_update(
                ins_xs, ins_ys, ins_ids, del_ids
            )
        self._finish_update()
        seconds = time.perf_counter() - start
        self._updates_applied += 1
        self._points_changed += int(inserted_ids.size + del_ids.size)
        return UpdateReport(
            side=side,
            inserted=int(inserted_ids.size),
            deleted=int(del_ids.size),
            affected_cells=affected,
            refreshed_rows=refreshed_rows,
            structure_rebuilt=rebuilt,
            seconds=seconds,
            inserted_ids=inserted_ids,
        )

    def flush(self) -> None:
        """Force the alias rebuild, restoring the exact fresh-build state.

        After ``flush()`` the maintained state (grid, bucket envelopes,
        bound matrix, alias) is bit-identical to a freshly built static
        sampler over the current ``(R, S)``, so draws with equal seeds match
        bit for bit.
        """
        if self._state is None:
            return
        self._force_alias = True
        self._router_stale = True
        self._sync_router()

    # ------------------------------------------------------------------
    # Prepared-state artifacts (persistence + warm start)
    # ------------------------------------------------------------------
    @property
    def artifact_kind(self) -> str:
        """Artifact payload identity — that of the maintained inner sampler."""
        return self._inner.artifact_kind

    @property
    def artifact_schema(self) -> int:
        """Artifact schema version — that of the maintained inner sampler."""
        return self._inner.artifact_schema

    def export_prepared_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Flush pending maintenance, then export the inner prepared state.

        :meth:`flush` installs the exact alias a fresh build produces, so the
        artifact is bit-identical to one exported from a static sampler built
        over the *current* ``(R, S)`` — including after updates.
        """
        self.flush()
        return self._inner.export_prepared_arrays()

    def adopt_prepared_arrays(
        self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Attach a persisted prepared state and reset the maintenance state.

        The first subsequent :meth:`update` re-captures the adopted runtime
        (copying any read-only memmapped arrays before mutating them).
        """
        self._inner.adopt_prepared_arrays(meta, arrays)
        self._preprocessed = True
        self._store_r = None
        self._store_s = None
        self._state = None
        self._router_stale = False
        self._force_alias = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_insert(
        insert: PointSet | tuple[np.ndarray, np.ndarray] | None,
        insert_ids: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        if insert is None:
            if insert_ids is not None:
                raise InvalidSpecError("insert_ids given without points to insert")
            return np.empty(0), np.empty(0), None
        if isinstance(insert, PointSet):
            ids = insert.ids if insert_ids is None else insert_ids
            return insert.xs, insert.ys, ids
        xs, ys = insert
        return np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64), insert_ids

    def _ensure_dynamic(self) -> None:
        """Capture the inner sampler's prepared state on the first update."""
        if self._state is not None:
            return
        self._require_stores()
        self._inner.prepare()
        self._preprocessed = True
        runtime = self._inner.runtime
        cell_ids = self._inner.cell_ids
        assert runtime is not None and cell_ids is not None
        r_ix, r_iy = self._keys_for(self.spec.r_points.xs, self.spec.r_points.ys)
        self._state = _DynamicState(
            bounds=_writable(runtime.bounds),
            mu=row_totals(runtime.bounds),
            cell_ids=_writable(cell_ids),
            r_ix=r_ix,
            r_iy=r_iy,
            sum_mu=runtime.sum_mu,
        )

    def _keys_for(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cell = self.spec.half_extent
        return (
            np.floor(xs / cell).astype(np.int64),
            np.floor(ys / cell).astype(np.int64),
        )

    def _apply_r_update(
        self,
        ins_xs: np.ndarray,
        ins_ys: np.ndarray,
        ins_ids: np.ndarray | None,
        del_ids: np.ndarray,
    ) -> tuple[int, np.ndarray, int, bool]:
        state = self._state
        assert state is not None
        store_r, _store_s = self._require_stores()
        index = self._inner.index
        assert index is not None
        if del_ids.size:
            positions, _xs, _ys = store_r.delete(del_ids)
            keep = np.ones(state.bounds.shape[0], dtype=bool)
            keep[positions] = False
            state.drift += float(state.mu[positions].sum())
            state.bounds = state.bounds[keep]
            state.mu = state.mu[keep]
            state.cell_ids = state.cell_ids[keep]
            state.r_ix = state.r_ix[keep]
            state.r_iy = state.r_iy[keep]
        inserted_ids = np.empty(0, dtype=np.int64)
        if ins_xs.size:
            inserted_ids = store_r.insert(ins_xs, ins_ys, ins_ids)
            grid = index.grid
            new_cell_ids = grid.neighbor_cell_ids(ins_xs, ins_ys)
            new_bounds = index.batch_bounds(ins_xs, ins_ys, new_cell_ids).astype(np.int32)
            new_mu = row_totals(new_bounds)
            state.drift += float(new_mu.sum())
            new_ix, new_iy = self._keys_for(ins_xs, ins_ys)
            # int64 operands would upcast the int32 matrices.
            state.bounds = np.concatenate((state.bounds, new_bounds))
            state.mu = np.concatenate((state.mu, new_mu))
            state.cell_ids = np.concatenate((state.cell_ids, new_cell_ids.astype(np.int32)))
            state.r_ix = np.concatenate((state.r_ix, new_ix))
            state.r_iy = np.concatenate((state.r_iy, new_iy))
        return int(ins_xs.size), inserted_ids, 0, False

    def _apply_s_update(
        self,
        ins_xs: np.ndarray,
        ins_ys: np.ndarray,
        ins_ids: np.ndarray | None,
        del_ids: np.ndarray,
    ) -> tuple[int, np.ndarray, int, bool]:
        state = self._state
        assert state is not None
        store_r, store_s = self._require_stores()
        index = self._inner.index
        assert index is not None
        grid = index.grid

        affected_keys: set[tuple[int, int]] = set()
        deleted_keys: set[tuple[int, int]] = set()
        deleted = np.sort(del_ids)
        if del_ids.size:
            _positions, rem_xs, rem_ys = store_s.delete(del_ids)
            rem_ix, rem_iy = self._keys_for(rem_xs, rem_ys)
            deleted_keys.update(zip(rem_ix.tolist(), rem_iy.tolist()))
            affected_keys.update(deleted_keys)
        inserted_ids = np.empty(0, dtype=np.int64)
        ins_by_key: dict[tuple[int, int], list[int]] = {}
        if ins_xs.size:
            inserted_ids = store_s.insert(ins_xs, ins_ys, ins_ids)
            new_ix, new_iy = self._keys_for(ins_xs, ins_ys)
            for slot, key in enumerate(zip(new_ix.tolist(), new_iy.tolist())):
                affected_keys.add(key)
                ins_by_key.setdefault(key, []).append(slot)

        # Rebuild the affected cells' membership in canonical (x, y) order.
        replacements: dict[tuple[int, int], Any] = {}
        structure_changed = False
        for key in affected_keys:
            cell = grid.get(key)
            if cell is not None:
                xs, ys, ids = cell.xs_by_x, cell.ys_by_x, cell.ids_by_x
                if key in deleted_keys:
                    found = np.minimum(np.searchsorted(deleted, ids), deleted.size - 1)
                    keep = deleted[found] != ids
                    xs, ys, ids = xs[keep], ys[keep], ids[keep]
            else:
                xs = np.empty(0, dtype=np.float64)
                ys = np.empty(0, dtype=np.float64)
                ids = np.empty(0, dtype=np.int64)
            slots = ins_by_key.get(key)
            if slots:
                take = np.asarray(slots, dtype=np.int64)
                xs = np.concatenate((xs, ins_xs[take]))
                ys = np.concatenate((ys, ins_ys[take]))
                ids = np.concatenate((ids, inserted_ids[take]))
            if xs.size == 0:
                replacements[key] = None
                structure_changed = True
            else:
                replacements[key] = grid.build_cell(key, xs, ys, ids)
                if cell is None:
                    structure_changed = True
        old_flat = grid.flat()
        grid.apply_cell_updates(replacements)
        rebuilt_all = index.apply_cell_updates(  # type: ignore[attr-defined]
            replacements,
            num_points=len(store_s),
            points=store_s.snapshot(),
        )

        r_xs = store_r.xs
        r_ys = store_r.ys
        rows = self._affected_rows(affected_keys, rebuilt_all)
        if structure_changed:
            # Cells were added or removed, so flat cell indices past each of
            # them shifted: map every old index to its cell's new one (-1 for
            # a removed cell; the appended -1 keeps empty entries empty).
            # Only a row whose block holds an added cell can gain an entry,
            # and an added cell's key is affected, so re-resolving the
            # affected rows completes the matrix.
            moved = grid.lookup_cell_ids(old_flat.keys_ix, old_flat.keys_iy)
            remap = np.append(moved, -1).astype(np.int32)
            state.cell_ids = remap[state.cell_ids]
            if rows.size:
                state.cell_ids[rows] = grid.neighbor_cell_ids(r_xs[rows], r_ys[rows])
        if rows.size:
            old_weights = state.mu[rows]
            new_bounds = index.batch_bounds(
                r_xs[rows], r_ys[rows], state.cell_ids[rows].astype(np.int64)
            ).astype(np.int32)
            state.bounds[rows] = new_bounds
            state.mu[rows] = row_totals(new_bounds)
            state.drift += float(np.abs(state.mu[rows] - old_weights).sum())
        return int(rows.size), inserted_ids, len(affected_keys), rebuilt_all

    def _affected_rows(
        self, affected_keys: set[tuple[int, int]], rebuilt_all: bool
    ) -> np.ndarray:
        """Rows of the bound matrix whose 3x3 block touches an affected cell."""
        state = self._state
        assert state is not None
        n = state.r_ix.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if rebuilt_all or not affected_keys:
            return np.arange(n, dtype=np.int64) if rebuilt_all else np.empty(0, dtype=np.int64)
        dilated_ix: list[int] = []
        dilated_iy: list[int] = []
        for ix, iy in affected_keys:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    dilated_ix.append(ix + dx)
                    dilated_iy.append(iy + dy)
        dix = np.asarray(dilated_ix, dtype=np.int64)
        diy = np.asarray(dilated_iy, dtype=np.int64)
        if (
            np.any(np.abs(dix) > PACK_LIMIT)
            or np.any(np.abs(diy) > PACK_LIMIT)
            or np.any(np.abs(state.r_ix) > PACK_LIMIT)
            or np.any(np.abs(state.r_iy) > PACK_LIMIT)
        ):
            # Key coordinates beyond the packed range: conservatively refresh
            # every row rather than probing per-row Python sets.
            return np.arange(n, dtype=np.int64)
        dilated = np.unique(pack_cell_keys(dix, diy))
        packed = pack_cell_keys(state.r_ix, state.r_iy)
        slots = np.searchsorted(dilated, packed)
        slots = np.minimum(slots, dilated.size - 1)
        return np.flatnonzero(dilated[slots] == packed)

    def _finish_update(self) -> None:
        """Refresh the scalar bookkeeping and rebind the inner sampler."""
        state = self._state
        assert state is not None
        store_r, store_s = self._require_stores()
        state.sum_mu = float(state.mu.sum()) if state.mu.size else 0.0
        new_spec = JoinSpec(
            r_points=store_r.snapshot(),
            s_points=store_s.snapshot(),
            half_extent=self.spec.half_extent,
        )
        self._spec = new_spec
        self._inner.rebind_spec(new_spec)
        self._router_stale = True

    def _sync_router(self) -> None:
        """Install the routing structure the lazy policy selects for draws."""
        state = self._state
        assert state is not None
        if not self._router_stale:
            return
        mu = state.mu
        if mu.size == 0 or state.sum_mu <= 0.0:
            router = None
        elif (
            self._force_alias
            or state.drift > self._rebuild_threshold * max(state.sum_mu, 1e-300)
        ):
            router = AliasTable(mu)
            state.drift = 0.0
            self._alias_rebuilds += 1
        else:
            router = CumulativeTable(mu)
            self._cumulative_rebuilds += 1
        self._force_alias = False
        self._router_stale = False
        self._inner.adopt_runtime(
            PreparedGridState(
                bounds=state.bounds,
                alias=router,
                sum_mu=state.sum_mu,
            ),
            state.cell_ids,
        )

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """JSON-friendly snapshot of the maintenance bookkeeping."""
        return {
            "algorithm": self._algorithm,
            "n": len(self.r_points),
            "m": len(self.s_points),
            "updates_applied": self._updates_applied,
            "points_changed": self._points_changed,
            "alias_rebuilds": self._alias_rebuilds,
            "cumulative_rebuilds": self._cumulative_rebuilds,
            "rebuild_threshold": self._rebuild_threshold,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicSampler(algorithm={self._algorithm!r}, "
            f"n={len(self.r_points)}, m={len(self.s_points)}, "
            f"updates={self._updates_applied})"
        )
