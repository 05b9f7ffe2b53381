"""The store's sorted-id index stays exact under interleaved updates."""

import numpy as np
import pytest

from repro.dynamic import DynamicPointStore
from repro.errors import InvalidSpecError, UnknownKeyError
from repro.geometry.point import PointSet


def test_positions_match_a_fresh_store_after_interleaved_updates():
    rng = np.random.default_rng(11)
    n = 300
    store = DynamicPointStore(
        PointSet(
            xs=rng.uniform(0, 100, n),
            ys=rng.uniform(0, 100, n),
            ids=rng.permutation(10 * n)[:n],
            name="pts",
        )
    )
    deleted: list[int] = []
    for step in range(8):
        doomed = rng.choice(store.ids, size=17, replace=False)
        store.delete(doomed)
        deleted.extend(int(pid) for pid in doomed)
        if step % 2:
            # Explicit ids, some below the live maximum, in unsorted order.
            free = np.setdiff1d(np.arange(20 * n), store.ids)
            fresh_ids = rng.permutation(free)[:9]
            store.insert(rng.uniform(0, 100, 9), rng.uniform(0, 100, 9), ids=fresh_ids)
        else:
            store.insert(rng.uniform(0, 100, 9), rng.uniform(0, 100, 9))
        fresh = DynamicPointStore(store.snapshot())
        for position, pid in enumerate(store.ids.tolist()):
            assert store.position_of(pid) == fresh.position_of(pid) == position
            assert pid in store

    gone = next(pid for pid in deleted if pid not in store)
    assert gone not in store
    with pytest.raises(KeyError):
        store.position_of(gone)
    with pytest.raises(UnknownKeyError, match=f"point id {gone} is not present"):
        store.delete(np.array([int(store.ids[0]), gone]))
    live = int(store.ids[5])
    with pytest.raises(InvalidSpecError, match=f"point id {live} is already present"):
        store.insert(np.zeros(2), np.zeros(2), ids=np.array([20 * n + 1, live]))
    # A refused batch leaves the store untouched.
    assert store.position_of(live) == 5
    assert (20 * n + 1) not in store
