"""Differential tests: the vectorised and scalar sampler paths are twins.

Every sampler pre-draws its per-round variate arrays in a fixed schedule and
then processes them either with numpy (``vectorized=True``, the default) or
with a per-attempt Python loop (``vectorized=False``).  Because both
processors consume the same variates with the same selection rules, they
must return the *exact same pairs* for an identical ``(spec, seed)`` - which
is what pins the vectorised gather/mask logic to the easily-auditable scalar
code.
"""

import numpy as np
import pytest

from repro.core.bbst_sampler import BBSTSampler
from repro.core.cell_kdtree_sampler import CellKDTreeSampler
from repro.core.config import JoinSpec
from repro.core.full_join import brute_force_join
from repro.core.kds_rejection import KDSRejectionSampler
from repro.core.kds_sampler import KDSSampler
from repro.datasets.partition import split_r_s
from repro.datasets.synthetic import zipf_cluster_points
from repro.geometry.point import PointSet

ALL_SAMPLERS = [KDSSampler, KDSRejectionSampler, BBSTSampler, CellKDTreeSampler]


@pytest.fixture(params=ALL_SAMPLERS, ids=lambda cls: cls.__name__)
def sampler_class(request):
    return request.param


@pytest.fixture
def singleton_spec() -> JoinSpec:
    """A join with exactly one pair."""
    r_points = PointSet(xs=[100.0, 5_000.0], ys=[100.0, 5_000.0])
    s_points = PointSet(xs=[105.0, 9_000.0], ys=[95.0, 9_000.0])
    return JoinSpec(r_points=r_points, s_points=s_points, half_extent=10.0)


@pytest.fixture
def empty_join_spec() -> JoinSpec:
    """Windows that overlap no inner point at all."""
    r_points = PointSet(xs=[0.0, 1.0], ys=[0.0, 1.0])
    s_points = PointSet(xs=[9_000.0, 9_100.0], ys=[9_000.0, 9_100.0])
    return JoinSpec(r_points=r_points, s_points=s_points, half_extent=5.0)


@pytest.fixture
def skewed_spec() -> JoinSpec:
    """Heavily clustered points: skewed cell occupancies and mu(r) weights."""
    rng = np.random.default_rng(4242)
    points = zipf_cluster_points(900, rng, num_clusters=5, skew=1.6, name="skewed")
    r_points, s_points = split_r_s(points, rng)
    return JoinSpec(r_points=r_points, s_points=s_points, half_extent=350.0)


def _pairs(result):
    return [pair.as_index_tuple() for pair in result.pairs]


class TestExactPairEquality:
    @pytest.mark.parametrize("seed", [0, 7, 91])
    def test_skewed_dataset(self, sampler_class, skewed_spec, seed):
        vectorized = sampler_class(skewed_spec).sample(250, seed=seed)
        scalar = sampler_class(skewed_spec, vectorized=False).sample(250, seed=seed)
        assert _pairs(vectorized) == _pairs(scalar)
        assert vectorized.iterations == scalar.iterations
        assert vectorized.metadata == scalar.metadata

    def test_singleton_join(self, sampler_class, singleton_spec):
        vectorized = sampler_class(singleton_spec).sample(40, seed=3)
        scalar = sampler_class(singleton_spec, vectorized=False).sample(40, seed=3)
        assert _pairs(vectorized) == _pairs(scalar)
        assert set(_pairs(vectorized)) == {(0, 0)}

    def test_empty_join_raises_identically(self, sampler_class, empty_join_spec):
        with pytest.raises((ValueError, RuntimeError)) as vectorized_error:
            sampler_class(empty_join_spec).sample(10, seed=5)
        with pytest.raises((ValueError, RuntimeError)) as scalar_error:
            sampler_class(empty_join_spec, vectorized=False).sample(10, seed=5)
        assert type(vectorized_error.value) is type(scalar_error.value)

    def test_small_uniform_join(self, sampler_class, small_uniform_spec):
        vectorized = sampler_class(small_uniform_spec).sample(300, seed=11)
        scalar = sampler_class(small_uniform_spec, vectorized=False).sample(300, seed=11)
        assert _pairs(vectorized) == _pairs(scalar)

    def test_batch_size_one_escape_hatch(self, sampler_class, small_uniform_spec):
        """batch_size=1 replays the one-attempt-at-a-time schedule on both paths."""
        vectorized = sampler_class(small_uniform_spec, batch_size=1).sample(25, seed=13)
        scalar = sampler_class(
            small_uniform_spec, batch_size=1, vectorized=False
        ).sample(25, seed=13)
        assert _pairs(vectorized) == _pairs(scalar)

    def test_pairs_are_valid_on_both_paths(self, sampler_class, skewed_spec):
        join = set(brute_force_join(skewed_spec))
        for vectorized in (True, False):
            result = sampler_class(skewed_spec, vectorized=vectorized).sample(100, seed=17)
            assert set(_pairs(result)) <= join


class TestCountingPhaseEquality:
    """The vectorised counting phase reproduces the scalar bounds exactly."""

    @pytest.mark.parametrize("sampler_class", [BBSTSampler, CellKDTreeSampler])
    def test_bound_matrix_identical(self, sampler_class, skewed_spec):
        vectorized = sampler_class(skewed_spec)
        scalar = sampler_class(skewed_spec, vectorized=False)
        vectorized.sample(0, seed=0)
        scalar.sample(0, seed=0)
        v_state = vectorized._prepared
        s_state = scalar._prepared
        np.testing.assert_array_equal(v_state.bounds, s_state.bounds)
        assert v_state.sum_mu == s_state.sum_mu

    def test_kds_counts_identical(self, small_uniform_spec):
        vectorized = KDSSampler(small_uniform_spec).sample(0, seed=0)
        scalar = KDSSampler(small_uniform_spec, vectorized=False).sample(0, seed=0)
        assert vectorized.metadata["join_size"] == scalar.metadata["join_size"]

    def test_rejection_mu_identical(self, small_clustered_spec):
        vectorized = KDSRejectionSampler(small_clustered_spec).sample(0, seed=0)
        scalar = KDSRejectionSampler(small_clustered_spec, vectorized=False).sample(
            0, seed=0
        )
        assert vectorized.metadata["sum_mu"] == scalar.metadata["sum_mu"]


class TestKnobValidation:
    def test_zero_batch_size_rejected(self, small_uniform_spec, sampler_class):
        with pytest.raises(ValueError):
            sampler_class(small_uniform_spec, batch_size=0)

    def test_knobs_are_exposed(self, small_uniform_spec, sampler_class):
        sampler = sampler_class(small_uniform_spec, batch_size=32, vectorized=False)
        assert sampler.batch_size == 32
        assert sampler.vectorized is False
