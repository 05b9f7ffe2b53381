"""The NumPy kernel twin: the reference implementation of every hot-path kernel.

Each function here is the *exact* expression the corresponding sampler hot
path ran before the kernel package existed, factored out so the compiled
backend has a pinned reference to be differentially tested against.  Do not
"optimise" these bodies - any change in floating-point evaluation order or
rounding is a silent break of the bit-identity contract with both the scalar
(``vectorized=False``) paths and the numba backend.  The one exception is
:func:`corner_qualifying`: it returns exact integer counts of the Lemma 5
predicate, so it may compute them in any exact way (a scan or rank tables).
"""

from __future__ import annotations

import numpy as np

from repro.core.batching import (
    group_blocks,
    pick_int,
    ragged_offsets,
    select_kth_true,
)
from repro.grid.neighbors import NEIGHBOR_OFFSETS, NeighborKind

__all__ = ["build_kernel_set"]

# The edge-position kernel hardcodes the first five bound-matrix columns;
# guard the NEIGHBOR_OFFSETS layout it assumes.
assert tuple(NEIGHBOR_OFFSETS[:5]) == (
    NeighborKind.CENTER,
    NeighborKind.LEFT,
    NeighborKind.RIGHT,
    NeighborKind.DOWN,
    NeighborKind.UP,
)

#: Bound-matrix columns resolved by :func:`edge_positions` (cases 1 and 2);
#: the remaining four (corner) columns go through the index's corner pick.
_CENTER, _LEFT, _RIGHT, _DOWN, _UP = range(5)

#: Queries x buckets of one corner cell from which :func:`corner_qualifying`
#: answers the cell's queries from rank tables instead of the ragged scan;
#: the pairs must also reach the entries the cell's tables cost to build.
#: Four corner counts of one prepare (2-core VM, l = 100, best of 3), at
#: 2,000 / all scanned / every cell tabled: NYC proxy (n = m = 10^6)
#: 0.71 / 7.8 / 2.1 s, uniform (10^6) 0.79 / 0.94 / 2.2 s, Foursquare proxy
#: (10^5) 0.056 / 0.19 / 1.07 s; a table costs one Python iteration, which
#: the light cells do not repay.  500 and 8,000 read within 15% of 2,000 on
#: all three.  Without the entries rule, 40 dense S cells of 50,000 points
#: with about 20 R points each beside them took 4.8 s instead of 0.25 s.
_DENSE_MIN_PAIRS = 2_000

#: Most buckets one rank table covers (longer cells are split into runs): a
#: table of ``(B + 1) x (B + 1)`` int32 entries, at most 16 MB.  Measured
#: with the NYC, uniform and Foursquare counts above; it also sets which
#: cells :func:`_tabled_cells` tables.
_TABLE_RUN = 1_999


def column_select(rows: np.ndarray, u_col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell-column choice from the cumulative bound rows (alias ``A_r``).

    ``searchsorted(row, u * total, side="right")`` per attempt, vectorised as
    a count of cumulative entries ``<= target`` over the 9 columns.  Returns
    ``(col, totals)``.
    """
    totals = rows[:, -1]
    target = u_col * totals
    col = np.minimum(np.sum(rows <= target[:, None], axis=1), 8)
    return col, totals


def edge_positions(
    col: np.ndarray,
    viable: np.ndarray,
    cell_ids: np.ndarray,
    counts: np.ndarray,
    cell_starts: np.ndarray,
    cell_lengths: np.ndarray,
    u_point: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Case 1/2 point picks: positions into the grid-flat sorted views.

    Returns ``(pos_x_view, pos_y_view)`` with ``-1`` for attempts not
    resolved here (non-viable attempts and the four corner columns, which
    the caller resolves through the index's corner pick).
    """
    size = col.size
    pos_x_view = np.full(size, -1, dtype=np.int64)
    pos_y_view = np.full(size, -1, dtype=np.int64)
    for column in range(5):
        sel = np.flatnonzero(viable & (col == column))
        if sel.size == 0:
            continue
        sel_counts = counts[sel]
        starts = cell_starts[cell_ids[sel]]
        lengths = cell_lengths[cell_ids[sel]]
        if column == _CENTER:
            pos_x_view[sel] = starts + pick_int(u_point[sel], lengths)
        elif column == _LEFT:
            pos_x_view[sel] = starts + (lengths - sel_counts) + pick_int(
                u_point[sel], sel_counts
            )
        elif column == _RIGHT:
            pos_x_view[sel] = starts + pick_int(u_point[sel], sel_counts)
        elif column == _DOWN:
            pos_y_view[sel] = starts + (lengths - sel_counts) + pick_int(
                u_point[sel], sel_counts
            )
        else:  # _UP
            pos_y_view[sel] = starts + pick_int(u_point[sel], sel_counts)
    return pos_x_view, pos_y_view


def gather_accept(
    pos_x_view: np.ndarray,
    pos_y_view: np.ndarray,
    ids_by_x: np.ndarray,
    xs_by_x: np.ndarray,
    ys_by_x: np.ndarray,
    ids_by_y: np.ndarray,
    xs_by_y: np.ndarray,
    ys_by_y: np.ndarray,
    wxmin: np.ndarray,
    wymin: np.ndarray,
    wxmax: np.ndarray,
    wymax: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gather candidates from the flat views and apply the window test.

    The y-view gather runs after the x-view gather (an attempt never sets
    both, but the overwrite order is part of the pinned semantics).  Windows
    are closed on every side.  Returns ``(accept, cand_sid)`` with ``-1``
    for rejected attempts.
    """
    size = pos_x_view.size
    cand_sid = np.full(size, -1, dtype=np.int64)
    cand_x = np.zeros(size, dtype=np.float64)
    cand_y = np.zeros(size, dtype=np.float64)
    from_x = pos_x_view >= 0
    if np.any(from_x):
        gathered = pos_x_view[from_x]
        cand_sid[from_x] = ids_by_x[gathered]
        cand_x[from_x] = xs_by_x[gathered]
        cand_y[from_x] = ys_by_x[gathered]
    from_y = pos_y_view >= 0
    if np.any(from_y):
        gathered = pos_y_view[from_y]
        cand_sid[from_y] = ids_by_y[gathered]
        cand_x[from_y] = xs_by_y[gathered]
        cand_y[from_y] = ys_by_y[gathered]
    accept = (
        (cand_sid >= 0)
        & (cand_x >= wxmin)
        & (cand_x <= wxmax)
        & (cand_y >= wymin)
        & (cand_y <= wymax)
    )
    cand_sid[~accept] = -1
    return accept, cand_sid


def sorted_block_counts(
    cell_ids: np.ndarray,
    values: np.ndarray,
    cell_starts: np.ndarray,
    cell_lengths: np.ndarray,
    sorted_flat: np.ndarray,
    at_least: bool,
) -> np.ndarray:
    """One-sided rank counts over per-cell sorted runs, grouped by cell.

    Per query: the number of values in the cell's sorted run that are
    ``>= values[i]`` (``at_least=True``, binary search side ``"left"``) or
    ``<= values[i]`` (``at_least=False``, side ``"right"``).  One vectorised
    ``searchsorted`` per distinct cell replaces one binary search per query.
    """
    counts = np.empty(cell_ids.size, dtype=np.int64)
    if cell_ids.size == 0:
        return counts
    order = np.argsort(cell_ids, kind="stable")
    sorted_ids = cell_ids[order]
    sorted_values = values[order]
    group_ends = np.flatnonzero(np.diff(sorted_ids) != 0) + 1
    starts = np.concatenate(([0], group_ends))
    ends = np.concatenate((group_ends, [sorted_ids.size]))
    for lo, hi in zip(starts, ends):
        cid = int(sorted_ids[lo])
        run = sorted_flat[cell_starts[cid] : cell_starts[cid] + cell_lengths[cid]]
        group_values = sorted_values[lo:hi]
        if at_least:
            cnt = cell_lengths[cid] - np.searchsorted(run, group_values, side="left")
        else:
            cnt = np.searchsorted(run, group_values, side="right")
        counts[order[lo:hi]] = cnt
    return counts


def corner_qualifying(
    cell_ids: np.ndarray,
    wxmin: np.ndarray,
    wymin: np.ndarray,
    wxmax: np.ndarray,
    wymax: np.ndarray,
    bucket_starts: np.ndarray,
    bucket_counts: np.ndarray,
    bucket_min_x: np.ndarray,
    bucket_max_x: np.ndarray,
    bucket_min_y: np.ndarray,
    bucket_max_y: np.ndarray,
    use_max_x: bool,
    use_max_y: bool,
) -> np.ndarray:
    """Qualifying-bucket counts per (query, corner cell) pair (Lemma 5).

    Counts the buckets of each query's corner cell that pass the
    bucket-envelope dominance predicate; the caller multiplies by the bucket
    capacity to get ``mu(r, c)``.  A cell's buckets are consecutive runs of
    its x-sorted points, so ``min_x`` and ``max_x`` are non-decreasing along
    them and the x test keeps a suffix (``max_x >= wxmin``) or a prefix
    (``min_x <= wxmax``) of the cell's buckets, found by one binary search.
    Cells with many queries and buckets answer each query from a rank table
    (:func:`_rank_table_counts`); the rest go through one ragged scan of
    every bucket.
    """
    heavy = _tabled_cells(cell_ids, bucket_counts)
    scan_args = (
        bucket_starts,
        bucket_counts,
        bucket_min_x,
        bucket_max_x,
        bucket_min_y,
        bucket_max_y,
        use_max_x,
        use_max_y,
    )
    if not heavy.any():
        return _corner_scan(cell_ids, wxmin, wymin, wxmax, wymax, *scan_args)
    in_heavy = heavy[cell_ids]
    out = np.zeros(cell_ids.size, dtype=np.int64)
    light = np.flatnonzero(~in_heavy)
    if light.size:
        out[light] = _corner_scan(
            cell_ids[light], wxmin[light], wymin[light], wxmax[light], wymax[light], *scan_args
        )
    dense = np.flatnonzero(in_heavy)
    dense = dense[np.argsort(cell_ids[dense], kind="stable")]
    x_bound, x_window = (bucket_max_x, wxmin) if use_max_x else (bucket_min_x, wxmax)
    y_bound, y_window = (bucket_max_y, wymin) if use_max_y else (bucket_min_y, wymax)
    for queries in np.split(dense, np.flatnonzero(np.diff(cell_ids[dense])) + 1):
        cid = cell_ids[queries[0]]
        first = int(bucket_starts[cid])
        stop = first + int(bucket_counts[cid])
        for lo in range(first, stop, _TABLE_RUN):
            hi = min(lo + _TABLE_RUN, stop)
            out[queries] += _rank_table_counts(
                x_bound[lo:hi],
                y_bound[lo:hi],
                x_window[queries],
                y_window[queries],
                use_max_x,
                use_max_y,
            )
    return out


def _tabled_cells(cell_ids: np.ndarray, bucket_counts: np.ndarray) -> np.ndarray:
    """Per cell: whether :func:`corner_qualifying` answers its queries from rank tables.

    A cell is tabled when its queries x buckets reach both
    ``_DENSE_MIN_PAIRS`` and the entries its tables cost to build.
    """
    pairs = np.bincount(cell_ids, minlength=bucket_counts.size) * bucket_counts
    entries = bucket_counts * np.minimum(bucket_counts, _TABLE_RUN)
    return pairs >= np.maximum(_DENSE_MIN_PAIRS, entries)


def _rank_table_counts(
    x_bound: np.ndarray,
    y_bound: np.ndarray,
    x_window: np.ndarray,
    y_window: np.ndarray,
    use_max_x: bool,
    use_max_y: bool,
) -> np.ndarray:
    """Qualifying counts over one run of a cell's buckets, through a rank table.

    With ``rho(b)`` the number of the run's buckets whose y bound is below
    bucket ``b``'s, and ``k`` the ``searchsorted`` of a query's y window edge
    in the sorted y bounds (side ``"left"`` for the max-y test, ``"right"``
    for the min-y one), ``y_b >= w`` holds exactly when ``rho(b) >= k`` and
    ``y_b <= w`` exactly when ``rho(b) < k``, ties included.  Entry
    ``[e, k]`` of the ``(B + 1) x (B + 1)`` table counts the buckets on the
    x-passing side of index ``e`` (at or after it for the max-x test, before
    it for the min-x one) whose rank passes ``k``, so each query costs two
    binary searches and one gather after O(B^2) work for the run.
    """
    size = x_bound.size
    edge = np.searchsorted(x_bound, x_window, side="left" if use_max_x else "right")
    y_sorted = np.sort(y_bound)
    rank = np.searchsorted(y_sorted, y_bound, side="left")
    k = np.searchsorted(y_sorted, y_window, side="left" if use_max_y else "right")
    # A suffix sum over an axis places bucket b at row (column) b and sums
    # from the end; a prefix sum places it one further and sums from 0.
    table = np.zeros((size + 1, size + 1), dtype=np.int32)
    table[np.arange(size) + (0 if use_max_x else 1), rank + (0 if use_max_y else 1)] = 1
    rows = table[::-1] if use_max_x else table
    np.cumsum(rows, axis=0, dtype=np.int32, out=rows)
    columns = table[:, ::-1] if use_max_y else table
    np.cumsum(columns, axis=1, dtype=np.int32, out=columns)
    return table[edge, k]


def _corner_scan(
    cell_ids: np.ndarray,
    wxmin: np.ndarray,
    wymin: np.ndarray,
    wxmax: np.ndarray,
    wymax: np.ndarray,
    bucket_starts: np.ndarray,
    bucket_counts: np.ndarray,
    bucket_min_x: np.ndarray,
    bucket_max_x: np.ndarray,
    bucket_min_y: np.ndarray,
    bucket_max_y: np.ndarray,
    use_max_x: bool,
    use_max_y: bool,
) -> np.ndarray:
    """:func:`corner_qualifying` over every bucket of every query's cell."""
    lengths = bucket_counts[cell_ids]
    out = np.zeros(cell_ids.size, dtype=np.int64)
    for lo, hi in group_blocks(lengths):
        block = slice(lo, hi)
        rep, offset = ragged_offsets(lengths[block])
        bucket = bucket_starts[cell_ids[block]][rep] + offset
        if use_max_x:
            ok = bucket_max_x[bucket] >= wxmin[block][rep]
        else:
            ok = bucket_min_x[bucket] <= wxmax[block][rep]
        if use_max_y:
            ok &= bucket_max_y[bucket] >= wymin[block][rep]
        else:
            ok &= bucket_min_y[bucket] <= wymax[block][rep]
        out[block] = np.bincount(rep, weights=ok, minlength=hi - lo).astype(np.int64)
    return out


def corner_pick(
    cell_ids: np.ndarray,
    bounds_col: np.ndarray,
    u_point: np.ndarray,
    u_slot: np.ndarray,
    wxmin: np.ndarray,
    wymin: np.ndarray,
    wxmax: np.ndarray,
    wymax: np.ndarray,
    cell_starts: np.ndarray,
    bucket_starts: np.ndarray,
    bucket_counts: np.ndarray,
    bucket_min_x: np.ndarray,
    bucket_max_x: np.ndarray,
    bucket_min_y: np.ndarray,
    bucket_max_y: np.ndarray,
    bucket_point_start: np.ndarray,
    bucket_sizes: np.ndarray,
    use_max_x: bool,
    use_max_y: bool,
    capacity: int,
) -> np.ndarray:
    """One corner (case 3) sampling attempt per (query, cell) pair.

    Draws the ``floor(u_point * #qualifying)``-th qualifying bucket in
    bucket-index order and the ``floor(u_slot * capacity)``-th slot; an empty
    slot of a partially filled bucket rejects (``-1``), exactly like the
    scalar bucket draw.  Returns positions into the grid-flat x-sorted views.
    """
    qualifying = bounds_col // capacity
    ranks = pick_int(u_point, qualifying)
    lengths = bucket_counts[cell_ids]
    out = np.full(cell_ids.size, -1, dtype=np.int64)
    for lo, hi in group_blocks(lengths):
        block = slice(lo, hi)
        rep, offset = ragged_offsets(lengths[block])
        bucket = bucket_starts[cell_ids[block]][rep] + offset
        if use_max_x:
            ok = bucket_max_x[bucket] >= wxmin[block][rep]
        else:
            ok = bucket_min_x[bucket] <= wxmax[block][rep]
        if use_max_y:
            ok &= bucket_max_y[bucket] >= wymin[block][rep]
        else:
            ok &= bucket_min_y[bucket] <= wymax[block][rep]
        hit = select_kth_true(rep, lengths[block], ok, ranks[block])
        found = np.flatnonzero(hit >= 0)
        if found.size == 0:
            continue
        chosen = bucket[hit[found]]
        slots = pick_int(
            u_slot[block][found], np.full(found.size, capacity, dtype=np.int64)
        )
        filled = slots < bucket_sizes[chosen]
        target = found[filled]
        out[lo + target] = (
            cell_starts[cell_ids[lo + target]]
            + bucket_point_start[chosen[filled]]
            + slots[filled]
        )
    return out


def packed_lookup(
    packed_keys: np.ndarray, packed_cell_ids: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """Sorted packed-key lookup: flat cell id per query key, ``-1`` on miss."""
    out = np.full(queries.shape, -1, dtype=np.int64)
    if packed_keys.size == 0:
        return out
    slots = np.searchsorted(packed_keys, queries)
    slots = np.minimum(slots, packed_keys.size - 1)
    found = packed_keys[slots] == queries
    out[found] = packed_cell_ids[slots[found]]
    return out


def counts_gather(cell_lengths: np.ndarray, cell_ids: np.ndarray) -> np.ndarray:
    """Per-cell point counts for flat cell ids (``0`` for ``-1`` entries)."""
    counts = np.zeros(cell_ids.shape, dtype=np.int64)
    present = cell_ids >= 0
    counts[present] = cell_lengths[cell_ids[present]]
    return counts


def rejection_accept(
    exact: np.ndarray, mu: np.ndarray, u_accept: np.ndarray
) -> np.ndarray:
    """The KDS-rejection coin: accept with probability ``|S(w(r))| / mu(r)``."""
    return (exact > 0) & (u_accept < exact / mu)


def build_kernel_set():
    from repro.kernels.backends import KernelSet

    return KernelSet(
        name="numpy",
        column_select=column_select,
        edge_positions=edge_positions,
        gather_accept=gather_accept,
        sorted_block_counts=sorted_block_counts,
        corner_qualifying=corner_qualifying,
        corner_pick=corner_pick,
        packed_lookup=packed_lookup,
        counts_gather=counts_gather,
        rejection_accept=rejection_accept,
    )
