"""Output checks applied to every reply the benchmark receives.

A reply passes when it holds exactly the requested number of pairs, every
pair names a known R point and a known S point whose coordinates (as the
benchmark generated or inserted them) lie within the window,
``|rx - sx| <= l`` and ``|ry - sy| <= l``, and no pair names an S point whose
deletion had been acknowledged before the request was sent.
"""

from __future__ import annotations

import math

import numpy as np


class PairCheck:
    """Id-addressed coordinates of both inputs plus S deletion times."""

    def __init__(self, r_points, s_points, half_extent: float) -> None:
        self.half_extent = float(half_extent)
        self._r = _Coordinates(r_points.ids, r_points.xs, r_points.ys)
        self._s = _Coordinates(s_points.ids, s_points.xs, s_points.ys)
        self.replies = 0
        self.failures: list[str] = []
        #: Replies still to corrupt before checking (the checks' own test hook).
        self.corrupt = 0

    def insert_s(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        self._s.add(ids, xs, ys)

    def delete_s(self, ids: np.ndarray, acknowledged_at: float) -> None:
        self._s.deleted_at[np.asarray(ids, dtype=np.int64)] = acknowledged_at

    def check(self, pairs: np.ndarray, t: int, sent_at: float = math.inf) -> bool:
        """Check one reply given as an ``(k, 2)`` array of ``(r_id, s_id)``.

        ``sent_at`` is when the request went out (same clock as the deletion
        acknowledgements); it defaults to "after every deletion".
        """
        self.replies += 1
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if self.corrupt > 0 and len(pairs):
            self.corrupt -= 1
            pairs = pairs.copy()
            # Pair the first R point with the S point farthest from it.
            far = self._s.farthest(*self._r.coordinates(pairs[:1, 0]))
            pairs[0, 1] = far
        problem = self._problem(pairs, t, sent_at)
        if problem is not None:
            self.failures.append(f"reply {self.replies}: {problem}")
            return False
        return True

    def _problem(self, pairs: np.ndarray, t: int, sent_at: float) -> str | None:
        if len(pairs) != t:
            return f"{len(pairs)} pairs for t={t}"
        if t == 0:
            return None
        r_ids, s_ids = pairs[:, 0], pairs[:, 1]
        if not (self._r.known(r_ids) and self._s.known(s_ids)):
            return "a pair names an unknown point id"
        rx, ry = self._r.coordinates(r_ids)
        sx, sy = self._s.coordinates(s_ids)
        l = self.half_extent
        outside = (np.abs(rx - sx) > l) | (np.abs(ry - sy) > l)
        if outside.any():
            row = int(np.flatnonzero(outside)[0])
            return f"pair {tuple(pairs[row])} lies outside the window"
        if (self._s.deleted_at[s_ids] < sent_at).any():
            return "a pair names an S point deleted before the request was sent"
        return None


class _Coordinates:
    """Dense id -> (x, y) lookup with room for inserted points."""

    def __init__(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        size = int(ids.max()) + 1 if ids.size else 0
        self.xs = np.full(size, np.nan)
        self.ys = np.full(size, np.nan)
        self.deleted_at = np.full(size, np.inf)
        self.add(ids, xs, ys)

    def add(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and int(ids.max()) >= self.xs.size:
            grow = int(ids.max()) + 1 - self.xs.size
            self.xs = np.concatenate((self.xs, np.full(grow, np.nan)))
            self.ys = np.concatenate((self.ys, np.full(grow, np.nan)))
            self.deleted_at = np.concatenate((self.deleted_at, np.full(grow, np.inf)))
        self.xs[ids] = xs
        self.ys[ids] = ys

    def known(self, ids: np.ndarray) -> bool:
        if ids.min() < 0 or ids.max() >= self.xs.size:
            return False
        return not np.isnan(self.xs[ids]).any()

    def coordinates(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.xs[ids], self.ys[ids]

    def farthest(self, x: np.ndarray, y: np.ndarray) -> int:
        distance = np.maximum(np.abs(self.xs - x[0]), np.abs(self.ys - y[0]))
        return int(np.nanargmax(distance))


def pairs_of(result) -> np.ndarray:
    """``(r_id, s_id)`` rows of an in-process ``JoinSampleResult``."""
    return np.array([(pair.r_id, pair.s_id) for pair in result.pairs], dtype=np.int64)
