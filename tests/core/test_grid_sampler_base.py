"""White-box tests of the Algorithm 1 skeleton shared by the grid samplers."""

import numpy as np
import pytest

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


class TestChunkedCount:
    @pytest.mark.parametrize("sampler_class", [BBSTSampler, CellKDTreeSampler])
    def test_small_chunks_give_the_same_state_and_draws(
        self, sampler_class, medium_spec, monkeypatch
    ):
        """Chunks of whole R cells: cells larger than a chunk, several cells per chunk."""
        whole = sampler_class(medium_spec)
        whole_draws = whole.sample(300, seed=4)
        seen: list[np.ndarray] = []
        original = Grid.neighbor_cell_ids

        def recording(grid, xs, ys, kernels=None):
            seen.append(np.stack(grid._keys(xs, ys), axis=1))
            return original(grid, xs, ys, kernels=kernels)

        monkeypatch.setattr(grid_sampler_base, "_COUNT_CHUNK_ROWS", 7)
        monkeypatch.setattr(Grid, "neighbor_cell_ids", recording)
        chunked = sampler_class(medium_spec)
        chunked.prepare()
        monkeypatch.setattr(Grid, "neighbor_cell_ids", original)
        chunked_draws = chunked.sample(300, seed=4)

        sizes = [keys.shape[0] for keys in seen]
        assert sum(sizes) == medium_spec.n
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
