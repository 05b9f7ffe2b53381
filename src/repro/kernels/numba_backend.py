"""The compiled kernel backend: ``@njit`` per-attempt loops.

Import-guarded - this module is only imported after
:func:`repro.kernels.backends.numba_available` returned True.  Every kernel
is required to be bit-identical to its NumPy twin in
:mod:`repro.kernels.numpy_backend` (the differential suite in
``tests/kernels/`` pins this), which constrains the implementations:

* ``fastmath`` stays off - reassociation would change float comparisons;
* integer picks truncate toward zero exactly like ``astype(np.int64)``;
* binary searches replicate ``np.searchsorted`` side semantics;
* the kernels never draw randomness - all variates are pre-drawn arrays, so
  the RNG stream position after a round is backend-independent.

The win over the NumPy twin is the removal of per-round temporaries and of
the ragged (query, bucket) expansions: one fused pass per attempt instead of
a dozen full-array operations.
"""

from __future__ import annotations

import numpy as np
from numba import njit

__all__ = ["build_kernel_set", "warmup"]

#: ``nogil`` lets the count's threads run compiled kernels side by side.
_jit = njit(cache=True, fastmath=False, nogil=True)


@_jit
def _pick_int(u: float, bound: np.int64) -> np.int64:
    # Twin of repro.core.batching.pick_int for one variate: truncate
    # u * bound toward zero, clip to [0, max(bound - 1, 0)].
    pick = np.int64(u * np.float64(bound))
    cap = bound - 1
    if cap < 0:
        cap = 0
    if pick > cap:
        pick = cap
    return pick


@_jit
def _lower_bound(values, lo, hi, target):
    # np.searchsorted(values[lo:hi], target, side="left") + lo
    while lo < hi:
        mid = (lo + hi) // 2
        if values[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


@_jit
def _upper_bound(values, lo, hi, target):
    # np.searchsorted(values[lo:hi], target, side="right") + lo
    while lo < hi:
        mid = (lo + hi) // 2
        if values[mid] <= target:
            lo = mid + 1
        else:
            hi = mid
    return lo


@_jit
def column_select(rows, u_col):
    size = rows.shape[0]
    col = np.empty(size, dtype=np.int64)
    totals = np.empty(size, dtype=np.float64)
    for i in range(size):
        total = rows[i, 8]
        totals[i] = total
        target = u_col[i] * total
        count = 0
        for j in range(9):
            if rows[i, j] <= target:
                count += 1
        if count > 8:
            count = 8
        col[i] = count
    return col, totals


@_jit
def edge_positions(col, viable, cell_ids, counts, cell_starts, cell_lengths, u_point):
    size = col.size
    pos_x_view = np.full(size, -1, dtype=np.int64)
    pos_y_view = np.full(size, -1, dtype=np.int64)
    for i in range(size):
        if not viable[i]:
            continue
        column = col[i]
        if column >= 5:
            continue
        cid = cell_ids[i]
        start = cell_starts[cid]
        length = cell_lengths[cid]
        count = counts[i]
        if column == 0:  # CENTER
            pos_x_view[i] = start + _pick_int(u_point[i], length)
        elif column == 1:  # LEFT
            pos_x_view[i] = start + (length - count) + _pick_int(u_point[i], count)
        elif column == 2:  # RIGHT
            pos_x_view[i] = start + _pick_int(u_point[i], count)
        elif column == 3:  # DOWN
            pos_y_view[i] = start + (length - count) + _pick_int(u_point[i], count)
        else:  # UP
            pos_y_view[i] = start + _pick_int(u_point[i], count)
    return pos_x_view, pos_y_view


@_jit
def gather_accept(
    pos_x_view,
    pos_y_view,
    ids_by_x,
    xs_by_x,
    ys_by_x,
    ids_by_y,
    xs_by_y,
    ys_by_y,
    wxmin,
    wymin,
    wxmax,
    wymax,
):
    size = pos_x_view.size
    accept = np.zeros(size, dtype=np.bool_)
    cand_sid = np.full(size, -1, dtype=np.int64)
    for i in range(size):
        sid = np.int64(-1)
        x = 0.0
        y = 0.0
        px = pos_x_view[i]
        if px >= 0:
            sid = ids_by_x[px]
            x = xs_by_x[px]
            y = ys_by_x[px]
        py = pos_y_view[i]
        if py >= 0:  # the y gather overwrites, like the NumPy twin
            sid = ids_by_y[py]
            x = xs_by_y[py]
            y = ys_by_y[py]
        if sid >= 0 and x >= wxmin[i] and x <= wxmax[i] and y >= wymin[i] and y <= wymax[i]:
            accept[i] = True
            cand_sid[i] = sid
    return accept, cand_sid


@_jit
def sorted_block_counts(cell_ids, values, cell_starts, cell_lengths, sorted_flat, at_least):
    counts = np.empty(cell_ids.size, dtype=np.int64)
    for i in range(cell_ids.size):
        cid = cell_ids[i]
        lo = cell_starts[cid]
        hi = lo + cell_lengths[cid]
        if at_least:
            counts[i] = hi - _lower_bound(sorted_flat, lo, hi, values[i])
        else:
            counts[i] = _upper_bound(sorted_flat, lo, hi, values[i]) - lo
    return counts


@_jit
def corner_qualifying(
    cell_ids,
    wxmin,
    wymin,
    wxmax,
    wymax,
    bucket_starts,
    bucket_counts,
    bucket_min_x,
    bucket_max_x,
    bucket_min_y,
    bucket_max_y,
    use_max_x,
    use_max_y,
):
    out = np.zeros(cell_ids.size, dtype=np.int64)
    for i in range(cell_ids.size):
        cid = cell_ids[i]
        first = bucket_starts[cid]
        last = first + bucket_counts[cid]
        qualifying = 0
        for b in range(first, last):
            if use_max_x:
                ok = bucket_max_x[b] >= wxmin[i]
            else:
                ok = bucket_min_x[b] <= wxmax[i]
            if ok:
                if use_max_y:
                    ok = bucket_max_y[b] >= wymin[i]
                else:
                    ok = bucket_min_y[b] <= wymax[i]
            if ok:
                qualifying += 1
        out[i] = qualifying
    return out


@_jit
def corner_pick(
    cell_ids,
    bounds_col,
    u_point,
    u_slot,
    wxmin,
    wymin,
    wxmax,
    wymax,
    cell_starts,
    bucket_starts,
    bucket_counts,
    bucket_min_x,
    bucket_max_x,
    bucket_min_y,
    bucket_max_y,
    bucket_point_start,
    bucket_sizes,
    use_max_x,
    use_max_y,
    capacity,
):
    out = np.full(cell_ids.size, -1, dtype=np.int64)
    for i in range(cell_ids.size):
        cid = cell_ids[i]
        qualifying = bounds_col[i] // capacity
        rank = _pick_int(u_point[i], qualifying)
        first = bucket_starts[cid]
        last = first + bucket_counts[cid]
        seen = 0
        chosen = np.int64(-1)
        for b in range(first, last):
            if use_max_x:
                ok = bucket_max_x[b] >= wxmin[i]
            else:
                ok = bucket_min_x[b] <= wxmax[i]
            if ok:
                if use_max_y:
                    ok = bucket_max_y[b] >= wymin[i]
                else:
                    ok = bucket_min_y[b] <= wymax[i]
            if ok:
                if seen == rank:
                    chosen = b
                    break
                seen += 1
        if chosen < 0:
            continue
        slot = _pick_int(u_slot[i], capacity)
        if slot < bucket_sizes[chosen]:
            out[i] = cell_starts[cid] + bucket_point_start[chosen] + slot
    return out


@_jit
def packed_lookup(packed_keys, packed_cell_ids, queries):
    out = np.full(queries.size, -1, dtype=np.int64)
    n = packed_keys.size
    if n == 0:
        return out
    for i in range(queries.size):
        query = queries[i]
        slot = _lower_bound(packed_keys, 0, n, query)
        if slot > n - 1:
            slot = n - 1
        if packed_keys[slot] == query:
            out[i] = packed_cell_ids[slot]
    return out


@_jit
def counts_gather(cell_lengths, cell_ids):
    counts = np.zeros(cell_ids.size, dtype=np.int64)
    for i in range(cell_ids.size):
        cid = cell_ids[i]
        if cid >= 0:
            counts[i] = cell_lengths[cid]
    return counts


@_jit
def rejection_accept(exact, mu, u_accept):
    out = np.zeros(exact.size, dtype=np.bool_)
    for i in range(exact.size):
        if exact[i] > 0 and u_accept[i] < exact[i] / mu[i]:
            out[i] = True
    return out


def _packed_lookup_nd(packed_keys, packed_cell_ids, queries):
    # The grid passes (q, 9) key matrices; the compiled kernel is 1-D.
    queries = np.ascontiguousarray(queries)
    return packed_lookup(packed_keys, packed_cell_ids, queries.ravel()).reshape(
        queries.shape
    )


def _counts_gather_nd(cell_lengths, cell_ids):
    cell_ids = np.ascontiguousarray(cell_ids)
    return counts_gather(cell_lengths, cell_ids.ravel()).reshape(cell_ids.shape)


def warmup() -> None:
    """Compile every kernel on tiny inputs (used by CI's warm-cache step)."""
    i64 = np.zeros(1, dtype=np.int64)
    f64 = np.zeros(1, dtype=np.float64)
    rows = np.zeros((1, 9), dtype=np.float64)
    viable = np.ones(1, dtype=np.bool_)
    column_select(rows, f64)
    edge_positions(i64, viable, i64, i64 + 1, i64, i64 + 1, f64)
    gather_accept(i64, i64 - 1, i64, f64, f64, i64, f64, f64, f64, f64, f64 + 1, f64 + 1)
    sorted_block_counts(i64, f64, i64, i64 + 1, f64, True)
    corner_qualifying(i64, f64, f64, f64, f64, i64, i64 + 1, f64, f64, f64, f64, True, True)
    corner_pick(
        i64, i64 + 1, f64, f64, f64, f64, f64, f64,
        i64, i64, i64 + 1, f64, f64, f64, f64, i64, i64 + 1, True, True, np.int64(1),
    )
    packed_lookup(i64, i64, i64)
    counts_gather(i64 + 1, i64)
    rejection_accept(i64 + 1, i64 + 1, f64)


def build_kernel_set():
    from repro.kernels.backends import KernelSet

    return KernelSet(
        name="numba",
        column_select=column_select,
        edge_positions=edge_positions,
        gather_accept=gather_accept,
        sorted_block_counts=sorted_block_counts,
        corner_qualifying=corner_qualifying,
        corner_pick=corner_pick,
        packed_lookup=_packed_lookup_nd,
        counts_gather=_counts_gather_nd,
        rejection_accept=rejection_accept,
    )
