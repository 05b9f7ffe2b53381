"""White-box tests of the Algorithm 1 skeleton shared by the grid samplers."""

import contextvars
import itertools
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.bbst.join_index import BBSTJoinIndex
from repro.core.bbst_sampler import BBSTSampler
from repro.core.cell_kdtree_sampler import CellKDTreeSampler
from repro.core.config import JoinSpec
from repro.core import grid_sampler_base
from repro.core.grid_sampler_base import _KIND_COLUMN, row_totals
from repro.geometry.point import PointSet
from repro.grid.grid import Grid
from repro.grid.neighbors import NEIGHBOR_OFFSETS, NeighborKind


class TestKindColumnMapping:
    def test_every_kind_has_a_column(self):
        assert set(_KIND_COLUMN) == set(NEIGHBOR_OFFSETS)

    def test_columns_are_a_permutation_of_range_9(self):
        assert sorted(_KIND_COLUMN.values()) == list(range(9))

    def test_center_is_column_zero(self):
        assert _KIND_COLUMN[NeighborKind.CENTER] == 0


class TestCountOrder:
    @pytest.mark.parametrize("sampler_class", [BBSTSampler, CellKDTreeSampler])
    def test_permuting_r_permutes_the_bound_rows(self, sampler_class, medium_spec):
        """The count phase visits R in cell order but keeps its rows in R order."""
        perm = np.random.default_rng(5).permutation(medium_spec.n)
        permuted = JoinSpec(
            r_points=medium_spec.r_points.take(perm),
            s_points=medium_spec.s_points,
            half_extent=medium_spec.half_extent,
        )
        plain, shuffled = sampler_class(medium_spec), sampler_class(permuted)
        plain.sample(0, seed=0)
        shuffled.sample(0, seed=0)
        np.testing.assert_array_equal(shuffled.runtime.bounds, plain.runtime.bounds[perm])
        np.testing.assert_array_equal(shuffled.cell_ids, plain.cell_ids[perm])
        assert shuffled.runtime.sum_mu == plain.runtime.sum_mu


def _check_small_chunks(sampler_class, spec, monkeypatch, workers=None):
    """Chunks of whole R cells give one chunk's state and draws.

    The chunks hold cells larger than a chunk and several cells per chunk;
    ``workers`` pins the count's thread budget (``None`` keeps the CPUs').
    """
    whole = sampler_class(spec)
    whole_draws = whole.sample(300, seed=4)
    seen: list[np.ndarray] = []
    original = Grid.neighbor_cell_ids

    def recording(grid, xs, ys, kernels=None):
        seen.append(np.stack(grid._keys(xs, ys), axis=1))
        return original(grid, xs, ys, kernels=kernels)

    if workers is not None:
        monkeypatch.setattr(grid_sampler_base, "_count_workers", lambda: workers)
    monkeypatch.setattr(grid_sampler_base, "_COUNT_CHUNK_ROWS", 7)
    monkeypatch.setattr(Grid, "neighbor_cell_ids", recording)
    chunked = sampler_class(spec)
    chunked.prepare()
    monkeypatch.setattr(Grid, "neighbor_cell_ids", original)
    chunked_draws = chunked.sample(300, seed=4)

    sizes = [keys.shape[0] for keys in seen]
    assert sum(sizes) == spec.n
    assert max(sizes) > 7 and len(sizes) > 10
    cells = [{tuple(key) for key in keys.tolist()} for keys in seen]
    assert any(len(chunk) > 1 for chunk in cells)
    assert sum(len(chunk) for chunk in cells) == len(set().union(*cells))
    assert all(len(chunk) == 1 for chunk, size in zip(cells, sizes) if size > 7)

    np.testing.assert_array_equal(chunked.runtime.bounds, whole.runtime.bounds)
    np.testing.assert_array_equal(chunked.cell_ids, whole.cell_ids)
    assert chunked.runtime.bounds.dtype == chunked.cell_ids.dtype == np.int32
    assert chunked.runtime.sum_mu == whole.runtime.sum_mu
    np.testing.assert_array_equal(chunked_draws.index_pairs(), whole_draws.index_pairs())
    assert chunked_draws.iterations == whole_draws.iterations


class TestChunkedCount:
    @pytest.mark.parametrize("sampler_class", [BBSTSampler, CellKDTreeSampler])
    def test_small_chunks_give_the_same_state_and_draws(
        self, sampler_class, medium_spec, monkeypatch
    ):
        _check_small_chunks(sampler_class, medium_spec, monkeypatch)

    @pytest.mark.parametrize("workers", [3, 1])
    @pytest.mark.parametrize("sampler_class", [BBSTSampler, CellKDTreeSampler])
    def test_any_worker_count_gives_the_same_state_and_draws(
        self, sampler_class, workers, medium_spec, monkeypatch
    ):
        _check_small_chunks(sampler_class, medium_spec, monkeypatch, workers)


class _ChunkFailed(Exception):
    pass


class TestThreadedCount:
    """The count's chunks run on the calling thread plus a per-call pool."""

    @pytest.fixture
    def threaded(self, monkeypatch):
        """Chunks of at most 7 rows on up to ``workers`` threads."""

        def pin(workers: int) -> None:
            monkeypatch.setattr(grid_sampler_base, "_count_workers", lambda: workers)
            monkeypatch.setattr(grid_sampler_base, "_COUNT_CHUNK_ROWS", 7)

        return pin

    def test_a_failing_chunk_raises_and_the_next_prepare_succeeds(
        self, medium_spec, threaded, monkeypatch
    ):
        reference = BBSTSampler(medium_spec)
        reference.prepare()
        threaded(3)
        calls = itertools.count(1)
        original = BBSTJoinIndex.batch_bounds

        def third_call_fails(index, *args, **kwargs):
            if next(calls) == 3:
                raise _ChunkFailed("chunk 3")
            return original(index, *args, **kwargs)

        monkeypatch.setattr(BBSTJoinIndex, "batch_bounds", third_call_fails)
        sampler = BBSTSampler(medium_spec)
        with pytest.raises(_ChunkFailed, match="chunk 3"):
            sampler.prepare()
        # Every thread stops before its next chunk: each of the two helpers
        # may be inside a chunk when chunk 3 fails and take one more before
        # it sees the error.
        assert next(calls) - 1 <= 3 + 2 + 2
        assert not sampler.is_prepared

        monkeypatch.setattr(BBSTJoinIndex, "batch_bounds", original)
        sampler.prepare()
        np.testing.assert_array_equal(sampler.runtime.bounds, reference.runtime.bounds)
        np.testing.assert_array_equal(sampler.cell_ids, reference.cell_ids)

    def test_more_threads_than_cores_lose_no_chunk(self, medium_spec, threaded):
        """Fast thread switching over many small chunks: every row is written once."""
        reference = BBSTSampler(medium_spec)
        reference.prepare()
        threaded(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                sampler = BBSTSampler(medium_spec)
                sampler.prepare()
                np.testing.assert_array_equal(sampler.runtime.bounds, reference.runtime.bounds)
                np.testing.assert_array_equal(sampler.cell_ids, reference.cell_ids)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_a_forked_child_counts_after_a_threaded_count(self, medium_spec, threaded):
        threaded(2)
        parent = BBSTSampler(medium_spec)
        parent.prepare()
        expected = parent.runtime.sum_mu

        def count_in_child() -> None:
            child = BBSTSampler(medium_spec)
            child.prepare()
            assert child.runtime.sum_mu == expected

        process = multiprocessing.get_context("fork").Process(target=count_in_child)
        process.start()
        process.join(timeout=60)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the count in the forked child did not finish")
        assert process.exitcode == 0

    def test_the_callers_context_reaches_every_thread(
        self, medium_spec, threaded, monkeypatch
    ):
        threaded(2)
        request = contextvars.ContextVar("request", default=None)
        seen: dict[int, list] = {}
        lock = threading.Lock()
        # The first chunk of each thread waits for the other's, so both
        # threads count at least one chunk.
        both_started = threading.Barrier(2, timeout=30)
        original = BBSTJoinIndex.batch_bounds

        def recording(index, *args, **kwargs):
            with lock:
                values = seen.setdefault(threading.get_ident(), [])
                values.append(request.get())
            if len(values) == 1:
                both_started.wait()
            return original(index, *args, **kwargs)

        monkeypatch.setattr(BBSTJoinIndex, "batch_bounds", recording)
        token = request.set("request-7")
        try:
            BBSTSampler(medium_spec).prepare()
        finally:
            request.reset(token)
        assert len(seen) == 2
        assert all(value == "request-7" for values in seen.values() for value in values)


class TestSkeletonBehaviour:
    def test_sorted_s_available_after_preprocess(self, small_uniform_spec):
        sampler = BBSTSampler(small_uniform_spec)
        assert sampler.sorted_s is None
        sampler.preprocess()
        assert sampler.sorted_s is not None
        assert len(sampler.sorted_s) == small_uniform_spec.m

    def test_runtime_cache_round_trips_sum_mu(self, small_uniform_spec):
        sampler = BBSTSampler(small_uniform_spec)
        first = sampler.sample(20, seed=0)
        second = sampler.sample(20, seed=1)
        assert first.metadata["sum_mu"] == second.metadata["sum_mu"]

    def test_per_point_bounds_sum_to_global_bound(self, small_uniform_spec):
        """The cached (n, 9) bound matrix must be consistent with the index."""
        sampler = BBSTSampler(small_uniform_spec)
        sampler.sample(0, seed=0)
        state = sampler._prepared
        bounds, sum_mu = state.bounds, state.sum_mu
        assert bounds.shape == (small_uniform_spec.n, 9)
        assert bounds.dtype == np.int32
        assert sum_mu == float(row_totals(bounds).sum())
        assert sum_mu == pytest.approx(float(bounds.sum()))
        index = sampler.index
        r_points = small_uniform_spec.r_points
        for i in range(0, small_uniform_spec.n, 37):
            assert bounds[i].sum() == pytest.approx(
                index.upper_bound(float(r_points.xs[i]), float(r_points.ys[i]))
            )

    def test_guard_raises_instead_of_hanging(self):
        """A join that is empty despite positive bounds must abort cleanly."""
        # R's windows overlap S's cells but contain no S point: S points sit
        # in a corner of their cell, R points in the opposite corner two cells
        # away... easier: craft S so every bound comes from corner cells whose
        # buckets never match.  Simplest robust construction: monkey-patch the
        # guard to a small value and use a vanishingly selective join.
        from repro.core import batching

        r_points = PointSet(xs=[100.0], ys=[100.0])
        s_points = PointSet(xs=[199.0, 198.0, 197.0], ys=[199.0, 198.0, 197.0])
        # half_extent 98: window of r is [2, 198] x [2, 198]; S point (198,198)
        # is outside but shares the 3x3 block, so mu > 0 while |J| may be 0.
        spec = JoinSpec(r_points=r_points, s_points=s_points, half_extent=96.0)
        from repro.core.full_join import join_size

        assert join_size(spec) == 0
        sampler = BBSTSampler(spec)
        original_guard = batching.empty_join_guard
        batching.empty_join_guard = lambda t: 500
        try:
            with pytest.raises((RuntimeError, ValueError)):
                sampler.sample(5, seed=0)
        finally:
            batching.empty_join_guard = original_guard
