"""Algorithm-specific tests for the KDS baseline (Section III-A)."""

import pytest

from repro.core.full_join import join_size
from repro.core.kds_sampler import KDSSampler


class TestKDSSampler:
    def test_name(self, small_uniform_spec):
        assert KDSSampler(small_uniform_spec).name == "KDS"

    def test_every_iteration_accepts(self, small_uniform_spec):
        """KDS uses exact counts, so #iterations == t (Table IV's KDS row)."""
        result = KDSSampler(small_uniform_spec).sample(500, seed=0)
        assert result.iterations == 500
        assert result.acceptance_rate == pytest.approx(1.0)

    def test_reports_exact_join_size(self, small_uniform_spec):
        result = KDSSampler(small_uniform_spec).sample(10, seed=1)
        assert result.metadata["join_size"] == join_size(small_uniform_spec)

    def test_no_grid_mapping_phase(self, small_uniform_spec):
        """KDS has no grid; its GM column is empty in Table III."""
        result = KDSSampler(small_uniform_spec).sample(10, seed=2)
        assert result.timings.build_seconds == 0.0
        assert result.timings.count_seconds > 0.0

    def test_preprocessing_builds_kdtree(self, small_uniform_spec):
        sampler = KDSSampler(small_uniform_spec)
        sampler.preprocess()
        assert sampler.index_nbytes() > 0

    def test_r_points_with_empty_windows_never_sampled(self, small_clustered_spec):
        """Points of R whose window is empty have zero alias weight."""
        spec = small_clustered_spec
        result = KDSSampler(spec).sample(400, seed=4)
        empty_window_rows = {
            i
            for i in range(spec.n)
            if not any(spec.pair_matches(i, j) for j in range(spec.m))
        }
        sampled_rows = {pair.r_index for pair in result.pairs}
        assert sampled_rows.isdisjoint(empty_window_rows)
