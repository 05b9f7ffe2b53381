"""Shared primitives of the vectorised batch-sampling engine.

Every sampler's online hot path used to run one Python iteration per drawn
sample.  The batch engine instead draws its randomness in *rounds*: each
round pre-draws flat arrays of random variates (one value per attempt and
stage, in a fixed schedule), processes the whole round with numpy, and
refills adaptively from the observed acceptance rate.  The helpers here are
the round-level building blocks:

* :func:`pick_int` - map uniform variates to bounded integer picks;
* :func:`ragged_offsets` - expand per-group lengths into (group, offset)
  pairs, the standard trick behind all "loop over a variable-size candidate
  list per attempt" vectorisations;
* :func:`select_kth_true` - per group, locate the k-th item satisfying a
  vectorised predicate (used for "draw the j-th qualifying bucket / point");
* :func:`cutoff_at` - truncate a round at the attempt that produced the
  ``needed``-th accepted sample, so iteration counts match the sequential
  semantics;
* :func:`next_batch_size` - the acceptance-rate refill heuristic;
* :func:`rejection_rounds` - the round loop of the rejection samplers (BBST,
  its kd-tree ablation and KDS-rejection), built from the two above.

Both the vectorised and the scalar (``vectorized=False``) sampler paths
consume the *same* pre-drawn arrays, which is what makes their outputs
bit-identical and differential testing meaningful.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.alias.walker import AliasTable, CumulativeTable
from repro.core.guards import empty_join_guard
from repro.errors import SamplingExhaustedError

__all__ = [
    "MIN_BATCH",
    "MAX_BATCH",
    "MAX_BLOCK_ITEMS",
    "pick_int",
    "pick_int_scalar",
    "ragged_offsets",
    "group_blocks",
    "select_kth_true",
    "cutoff_at",
    "next_batch_size",
    "rejection_rounds",
    "window_bounds",
]

#: Smallest round the adaptive refill will draw.
MIN_BATCH = 64

#: Largest round the adaptive refill will draw (bounds per-round memory).
MAX_BATCH = 1 << 18

#: Largest expansion one block of :func:`group_blocks` holds (bounds the
#: temporary memory of the vectorised scans and picks, which hold several
#: 8-byte temporaries per expanded item).
MAX_BLOCK_ITEMS = 1 << 20

#: Refill overdraw factor: rounds request slightly more attempts than the
#: acceptance-rate estimate suggests so most requests finish in one round.
_REFILL_SLACK = 1.2


def window_bounds(
    xs: np.ndarray, ys: np.ndarray, half_extent: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parallel ``(wxmin, wymin, wxmax, wymax)`` arrays of the query windows."""
    return xs - half_extent, ys - half_extent, xs + half_extent, ys + half_extent


def pick_int(u: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Map uniform variates ``u in [0, 1)`` to integer picks ``in [0, bounds)``.

    ``bounds`` may be zero (the pick is meaningless and callers must mask it
    out); the result is clipped so float rounding at ``u -> 1`` can never
    produce an out-of-range index.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    picks = (np.asarray(u, dtype=np.float64) * bounds).astype(np.int64)
    return np.minimum(picks, np.maximum(bounds - 1, 0))


def pick_int_scalar(u: float, bound: int) -> int:
    """Scalar twin of :func:`pick_int` used by the scalar sampler paths."""
    if bound <= 0:
        return 0
    return min(int(u * bound), bound - 1)


def ragged_offsets(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-group lengths into parallel ``(group, offset)`` arrays.

    For ``lengths = [2, 0, 3]`` returns ``group = [0, 0, 2, 2, 2]`` and
    ``offset = [0, 1, 0, 1, 2]``.  The expansion is the vectorised
    counterpart of ``for g: for o in range(lengths[g])``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    group = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    if total == 0:
        return group, np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    offset = np.arange(total, dtype=np.int64) - starts[group]
    return group, offset


def select_kth_true(
    group: np.ndarray,
    lengths: np.ndarray,
    mask: np.ndarray,
    ranks: np.ndarray,
) -> np.ndarray:
    """Per group, the expanded-item index of the ``ranks[g]``-th True.

    Parameters
    ----------
    group:
        Group id per expanded item (as produced by :func:`ragged_offsets`,
        i.e. non-decreasing).
    lengths:
        Items per group; ``group``/``mask`` follow this layout.
    mask:
        Boolean predicate per expanded item.
    ranks:
        0-based rank wanted per group.

    Returns, per group, the global index into the expanded arrays of its
    selected item, or ``-1`` when the group has at most ``ranks[g]`` True
    items (including empty groups).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    num_groups = lengths.size
    out = np.full(num_groups, -1, dtype=np.int64)
    if mask.size == 0:
        return out
    cum = np.cumsum(mask, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    cum0 = np.concatenate(([0], cum))
    base = cum0[starts]
    rank_through = cum - base[group]
    hits = mask & (rank_through == np.asarray(ranks, dtype=np.int64)[group] + 1)
    out[group[hits]] = np.flatnonzero(hits)
    return out


def group_blocks(
    lengths: np.ndarray, max_items: int = MAX_BLOCK_ITEMS
) -> Iterator[tuple[int, int]]:
    """Split groups into contiguous blocks whose expansions stay bounded.

    Yields ``(start, stop)`` group ranges such that
    ``lengths[start:stop].sum() <= max_items`` (single oversized groups get a
    block of their own).  Used to cap the temporary memory of
    :func:`ragged_offsets` expansions.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.size
    if n == 0:
        return
    if int(lengths.sum()) <= max_items:
        yield 0, n
        return
    boundaries = np.cumsum(lengths)
    start = 0
    while start < n:
        offset = boundaries[start] - lengths[start]
        stop = int(np.searchsorted(boundaries, offset + max_items, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def cutoff_at(accept: np.ndarray, needed: int) -> tuple[int, np.ndarray]:
    """Truncate a round at the attempt yielding the ``needed``-th accept.

    Returns ``(attempts_used, accepted_positions)`` where
    ``accepted_positions`` indexes into the round's attempt arrays.  When the
    round holds fewer than ``needed`` accepted attempts the whole round is
    used.
    """
    if accept.size == 0 or needed <= 0:
        return (0, np.empty(0, dtype=np.int64))
    cum = np.cumsum(accept, dtype=np.int64)
    if cum[-1] >= needed:
        used = int(np.searchsorted(cum, needed, side="left")) + 1
    else:
        used = int(accept.size)
    return used, np.flatnonzero(accept[:used])


def next_batch_size(
    remaining: int,
    attempted: int,
    accepted: int,
    fixed: int | None = None,
) -> int:
    """Size of the next sampling round.

    With ``fixed`` set the engine always draws that many attempts (the
    ``batch_size=1`` escape hatch reproduces one-attempt-at-a-time
    semantics).  Otherwise the round is sized from the acceptance rate
    observed so far: ``remaining / rate`` attempts plus
    :data:`_REFILL_SLACK` overdraw, clipped to
    ``[MIN_BATCH, MAX_BATCH]``.  Before any attempt has been made the rate
    is assumed to be 1 (the engine learns it after the first round).
    """
    if fixed is not None:
        return max(1, int(fixed))
    if attempted <= 0:
        rate = 1.0
    else:
        rate = max(accepted / attempted, 1.0 / 256.0)
    want = int(np.ceil(_REFILL_SLACK * remaining / rate))
    return int(np.clip(want, MIN_BATCH, MAX_BATCH))


def rejection_rounds(
    t: int,
    router: AliasTable | CumulativeTable,
    rng: np.random.Generator,
    resolve: Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, np.ndarray]],
    batch_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run pre-drawn rejection rounds until ``t >= 1`` attempts are accepted.

    Each round is sized by :func:`next_batch_size` (``batch_size`` pins
    it), draws its outer picks ``r = router.draw_many(size, rng)`` *first*
    and then calls ``resolve(r, rng)``, which draws the sampler's uniforms
    in their fixed order and returns ``(accept, candidate)`` arrays in
    attempt order.  :func:`cutoff_at` truncates the round at the ``t``-th
    accept, so the iteration count matches one-attempt-at-a-time semantics.
    After :func:`~repro.core.guards.empty_join_guard` attempts without a
    single accept the join is presumed empty and
    :class:`~repro.errors.SamplingExhaustedError` is raised.

    Returns the accepted attempts' outer picks and candidates (in attempt
    order) and the number of attempts used.
    """
    accepted_r: list[np.ndarray] = []
    accepted_candidates: list[np.ndarray] = []
    accepted = 0
    iterations = 0
    guard = empty_join_guard(t)
    while accepted < t:
        if accepted == 0 and iterations >= guard:
            raise SamplingExhaustedError(
                f"no join sample accepted after {iterations} iterations; "
                "the join result is empty or vanishingly small"
            )
        size = next_batch_size(t - accepted, iterations, accepted, batch_size)
        r = router.draw_many(size, rng)
        accept, candidates = resolve(r, rng)
        used, taken = cutoff_at(accept, t - accepted)
        iterations += used
        accepted += taken.size
        if taken.size:
            accepted_r.append(r[taken])
            accepted_candidates.append(candidates[taken])
    return np.concatenate(accepted_r), np.concatenate(accepted_candidates), iterations
