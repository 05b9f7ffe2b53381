"""Pins the picklable-prepared-state contract of the sampler stack.

The shard workers ship specs and tasks across process boundaries and keep
prepared samplers resident; the refactor that made this possible moved every
cached phase result into plain dataclasses of arrays
(:class:`~repro.core.grid_sampler_base.PreparedGridState`,
:class:`~repro.core.kds_sampler.PreparedExactCounts`,
:class:`~repro.core.kds_rejection.PreparedGridBounds`).  These tests pin the
stronger end-to-end property: a fully prepared sampler pickles whole and the
clone draws bit-identical pairs.
"""

import pickle

import numpy as np
import pytest

from repro.core.bbst_sampler import BBSTSampler
from repro.core.cell_kdtree_sampler import CellKDTreeSampler
from repro.core.grid_sampler_base import PreparedGridState
from repro.core.join_then_sample import JoinThenSample
from repro.core.kds_rejection import KDSRejectionSampler, PreparedGridBounds
from repro.core.kds_sampler import KDSSampler, PreparedExactCounts

SAMPLERS = [
    KDSSampler,
    KDSRejectionSampler,
    BBSTSampler,
    CellKDTreeSampler,
    JoinThenSample,
]


@pytest.mark.parametrize("sampler_class", SAMPLERS, ids=lambda cls: cls.__name__)
class TestPreparedSamplersPickle:
    def test_prepared_round_trip_draws_identically(self, sampler_class, small_uniform_spec):
        sampler = sampler_class(small_uniform_spec)
        sampler.prepare()
        clone = pickle.loads(pickle.dumps(sampler))
        assert clone.is_prepared
        original = sampler.sample(60, seed=3).index_pairs()
        restored = clone.sample(60, seed=3).index_pairs()
        np.testing.assert_array_equal(original, restored)

    def test_unprepared_round_trip(self, sampler_class, small_uniform_spec):
        clone = pickle.loads(pickle.dumps(sampler_class(small_uniform_spec)))
        assert not clone.is_prepared
        assert len(clone.sample(20, seed=1)) == 20


class TestPreparedStateDataclasses:
    def test_grid_state_is_a_plain_dataclass(self, small_uniform_spec):
        sampler = BBSTSampler(small_uniform_spec)
        sampler.prepare()
        state = sampler._prepared
        assert isinstance(state, PreparedGridState)
        assert state.bounds.shape == (small_uniform_spec.n, 9)
        assert state.sum_mu == pytest.approx(float(state.bounds.sum()))

    def test_kds_state_is_a_plain_dataclass(self, small_uniform_spec):
        sampler = KDSSampler(small_uniform_spec)
        sampler.prepare()
        state = sampler._prepared
        assert isinstance(state, PreparedExactCounts)
        assert state.join_size == int(state.counts.sum())
        assert sampler.exact_join_size == state.join_size

    def test_rejection_state_is_a_plain_dataclass(self, small_uniform_spec):
        sampler = KDSRejectionSampler(small_uniform_spec)
        sampler.prepare()
        state = sampler._prepared
        assert isinstance(state, PreparedGridBounds)
        assert state.sum_mu == int(state.mu.sum())
