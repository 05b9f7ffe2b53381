"""Differential tests: the numpy kernels are twins of the scalar expressions.

Every kernel in :mod:`repro.kernels.numpy_backend` is the factored-out body
of a sampler hot path.  These tests pin each kernel, under hypothesis-driven
adversarial inputs, to an independently written per-element Python reference
- and pin the full samplers running with ``backend="numpy"`` to the scalar
(``vectorized=False``) engine, including empty cells, single-point cells,
denormal acceptance ratios and grids whose cell keys overflow the packed
32-bit representation (``supports_packing=False``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bbst.join_index import BBSTJoinIndex
from repro.core.bbst_sampler import BBSTSampler
from repro.core.config import JoinSpec
from repro.core.kds_rejection import KDSRejectionSampler
from repro.core.kds_sampler import KDSSampler
from repro.geometry.point import PointSet
from repro.grid.grid import Grid
from repro.kernels import get_kernels
from repro.kernels import numpy_backend
from repro.kernels.numpy_backend import _tabled_cells

KERNELS = get_kernels("numpy")

ALL_SAMPLERS = [BBSTSampler, KDSSampler, KDSRejectionSampler]


def _pairs(result):
    return [pair.as_index_tuple() for pair in result.pairs]


# ----------------------------------------------------------------------
# Kernel-level twins (vs per-element Python references)
# ----------------------------------------------------------------------
class TestColumnSelect:
    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=1_000), min_size=9, max_size=9),
            min_size=1,
            max_size=24,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_row_searchsorted(self, rows, seed):
        cumulative = np.cumsum(np.asarray(rows, dtype=np.float64), axis=1)
        u_col = np.random.default_rng(seed).random(cumulative.shape[0])
        col, totals = KERNELS.column_select(cumulative, u_col)
        for i in range(cumulative.shape[0]):
            target = u_col[i] * cumulative[i, -1]
            expected = min(int(np.searchsorted(cumulative[i], target, side="right")), 8)
            assert int(col[i]) == expected
            assert totals[i] == cumulative[i, -1]


class TestSortedBlockCounts:
    @given(
        cells=st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=0,  # empty cells are legal
                max_size=12,
            ),
            min_size=1,
            max_size=8,
        ),
        queries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=0,
            max_size=30,
        ),
        at_least=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_query_comparison_count(self, cells, queries, at_least):
        runs = [np.sort(np.asarray(cell, dtype=np.float64)) for cell in cells]
        lengths = np.array([run.size for run in runs], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        sorted_flat = (
            np.concatenate(runs) if any(r.size for r in runs) else np.empty(0)
        )
        cell_ids = np.array(
            [min(cid, len(runs) - 1) for cid, _ in queries], dtype=np.int64
        )
        values = np.array([value for _, value in queries], dtype=np.float64)
        counts = KERNELS.sorted_block_counts(
            cell_ids, values, starts, lengths, sorted_flat, at_least
        )
        for i, (cid, value) in enumerate(zip(cell_ids, values)):
            run = runs[int(cid)]
            expected = int(np.sum(run >= value) if at_least else np.sum(run <= value))
            assert int(counts[i]) == expected


class TestPackedLookup:
    @given(
        keys=st.lists(
            st.integers(min_value=-(2**62), max_value=2**62),
            min_size=0,
            max_size=20,
            unique=True,
        ),
        probes=st.lists(
            st.integers(min_value=-(2**62), max_value=2**62), min_size=0, max_size=20
        ),
        reuse=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_probe(self, keys, probes, reuse):
        packed_keys = np.sort(np.asarray(keys, dtype=np.int64))
        packed_cell_ids = np.arange(packed_keys.size, dtype=np.int64)
        if reuse and keys:
            probes = probes + keys[: len(keys) // 2 + 1]  # guarantee some hits
        queries = np.asarray(probes, dtype=np.int64)
        out = KERNELS.packed_lookup(packed_keys, packed_cell_ids, queries)
        lookup = {int(k): int(c) for k, c in zip(packed_keys, packed_cell_ids)}
        for i, query in enumerate(queries):
            assert int(out[i]) == lookup.get(int(query), -1)


class TestCountsGather:
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=16),
        ids=st.lists(st.integers(min_value=-1, max_value=15), min_size=0, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_id_gather(self, lengths, ids):
        cell_lengths = np.asarray(lengths, dtype=np.int64)
        cell_ids = np.array(
            [min(cid, len(lengths) - 1) for cid in ids], dtype=np.int64
        )
        counts = KERNELS.counts_gather(cell_lengths, cell_ids)
        for i, cid in enumerate(cell_ids):
            assert int(counts[i]) == (0 if cid < 0 else int(cell_lengths[cid]))


class TestRejectionAccept:
    # Includes denormal magnitudes: the acceptance ratio exact/mu must be
    # evaluated with the exact same IEEE semantics as the scalar coin.
    _tiny = st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=True
    )

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=1, max_value=40),
                _tiny,
            ),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_coin(self, rows):
        exact = np.array([e for e, _, _ in rows], dtype=np.float64)
        mu = np.array([m for _, m, _ in rows], dtype=np.float64)
        u_accept = np.array([u for _, _, u in rows], dtype=np.float64)
        accept = KERNELS.rejection_accept(exact, mu, u_accept)
        for i in range(len(rows)):
            assert bool(accept[i]) == (
                exact[i] > 0 and u_accept[i] < exact[i] / mu[i]
            )

    def test_denormal_ratio(self):
        smallest = np.nextafter(0.0, 1.0)  # 5e-324, subnormal
        exact = np.array([smallest, smallest, 0.0])
        mu = np.array([1.0, smallest, 1.0])
        u_accept = np.array([0.0, 0.5, 0.0])
        accept = KERNELS.rejection_accept(exact, mu, u_accept)
        assert accept.tolist() == [True, True, False]


# ----------------------------------------------------------------------
# Corner counts: the kernel vs Definition 3 and Lemma 5, pair by pair
# ----------------------------------------------------------------------
#: ``(use_max_x, use_max_y)`` of the four corner kinds (Lemma 5).
CORNER_FLAGS = [(True, True), (True, False), (False, True), (False, False)]


def _definition_counts(cell_ids, wxmin, wymin, wxmax, wymax, arrays, use_max_x, use_max_y):
    """Qualifying buckets per query, evaluating the dominance test on every bucket."""
    out = np.zeros(cell_ids.size, dtype=np.int64)
    for i, cid in enumerate(cell_ids.tolist()):
        run = slice(arrays.starts[cid], arrays.starts[cid] + arrays.counts[cid])
        if use_max_x:
            ok_x = arrays.max_x[run] >= wxmin[i]
        else:
            ok_x = arrays.min_x[run] <= wxmax[i]
        if use_max_y:
            ok_y = arrays.max_y[run] >= wymin[i]
        else:
            ok_y = arrays.min_y[run] <= wymax[i]
        out[i] = np.count_nonzero(ok_x & ok_y)
    return out


def _corner_queries(index, rng, cell_ids, snap_share=0.0):
    """Windows of side ``2l`` around each query's cell, some snapped to envelopes.

    A snapped query takes all four window edges from the envelope of one
    bucket of its cell, so every comparison it makes hits a tie.
    """
    arrays = index.bucket_arrays()
    keys = np.array([cell.key for cell in index.grid.flat().cells], dtype=np.float64)
    size = index.grid.cell_size
    wxmin = (keys[cell_ids, 0] + rng.uniform(-1.0, 1.0, cell_ids.size)) * size
    wymin = (keys[cell_ids, 1] + rng.uniform(-1.0, 1.0, cell_ids.size)) * size
    wxmax = wxmin + 2 * index.half_extent
    wymax = wymin + 2 * index.half_extent
    for i in np.flatnonzero(rng.random(cell_ids.size) < snap_share):
        cid = cell_ids[i]
        bucket = arrays.starts[cid] + rng.integers(arrays.counts[cid])
        wxmin[i], wxmax[i] = arrays.max_x[bucket], arrays.min_x[bucket]
        wymin[i], wymax[i] = arrays.max_y[bucket], arrays.min_y[bucket]
    return wxmin, wymin, wxmax, wymax


def _check_corner_counts(index, cell_ids, windows):
    arrays = index.bucket_arrays()
    for use_max_x, use_max_y in CORNER_FLAGS:
        got = KERNELS.corner_qualifying(
            cell_ids,
            *windows,
            arrays.starts,
            arrays.counts,
            arrays.min_x,
            arrays.max_x,
            arrays.min_y,
            arrays.max_y,
            use_max_x,
            use_max_y,
        )
        expected = _definition_counts(cell_ids, *windows, arrays, use_max_x, use_max_y)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)


def _tabled(index, cell_ids):
    return _tabled_cells(cell_ids, index.bucket_arrays().counts)



class TestCornerQualifying:
    def test_light_and_dense_groups(self):
        rng = np.random.default_rng(2024)
        # One hotspot cell among uniformly scattered points.
        xs = np.concatenate((rng.uniform(500.0, 600.0, 3_000), rng.uniform(0.0, 2_000.0, 1_500)))
        ys = np.concatenate((rng.uniform(500.0, 600.0, 3_000), rng.uniform(0.0, 2_000.0, 1_500)))
        index = BBSTJoinIndex(PointSet(xs=xs, ys=ys), half_extent=100.0)
        cell_ids = np.concatenate(
            (
                np.full(400, index.grid.flat().cells.index(index.grid.get((5, 5)))),
                rng.integers(0, index.grid.num_cells, 600),
            )
        )
        rng.shuffle(cell_ids)
        tabled = _tabled(index, cell_ids)
        assert tabled.any()
        assert (~tabled[cell_ids]).any()
        _check_corner_counts(index, cell_ids, _corner_queries(index, rng, cell_ids, 0.2))

    def test_dense_cell_past_the_block_cap(self):
        rng = np.random.default_rng(7)
        points = PointSet(xs=rng.uniform(0.0, 100.0, 50_000), ys=rng.uniform(0.0, 100.0, 50_000))
        index = BBSTJoinIndex(points, half_extent=100.0)
        assert index.grid.num_cells == 1
        cell_ids = np.zeros(2_000, dtype=np.int64)
        # 3,125 buckets: more than one table of at most _TABLE_RUN buckets.
        assert index.bucket_arrays().counts[0] > numpy_backend._TABLE_RUN
        assert _tabled(index, cell_ids)[0]
        _check_corner_counts(index, cell_ids, _corner_queries(index, rng, cell_ids, 0.1))

    @pytest.mark.parametrize("queries", [8, 600], ids=["light", "dense"])
    def test_duplicate_x_across_bucket_boundaries(self, queries):
        rng = np.random.default_rng(31)
        # 40 distinct x values over 2,000 points: runs of equal x straddle
        # bucket boundaries, and windows snap onto the shared envelopes.
        xs = rng.integers(0, 40, 2_000) * 2.5
        ys = rng.integers(0, 50, 2_000) * 2.0
        index = BBSTJoinIndex(PointSet(xs=xs, ys=ys), half_extent=100.0)
        assert (np.diff(index.bucket_arrays().max_x) == 0).any()
        cell_ids = np.zeros(queries, dtype=np.int64)
        assert _tabled(index, cell_ids)[0] == (queries == 600)
        _check_corner_counts(index, cell_ids, _corner_queries(index, rng, cell_ids, 0.5))

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_y_envelopes_in_tabled_cells(self, seed):
        rng = np.random.default_rng(seed)
        # Four hotspot cells whose points take six y values, so most buckets
        # share their min_y and max_y with other buckets of the cell.
        centres = rng.integers(1, 9, (4, 2)) * 100.0
        xs = np.concatenate([rng.uniform(c[0], c[0] + 100.0, 900) for c in centres])
        ys = np.concatenate([c[1] + rng.integers(0, 6, 900) * 19.0 for c in centres])
        index = BBSTJoinIndex(PointSet(xs=xs, ys=ys), half_extent=100.0)
        arrays = index.bucket_arrays()
        cell_ids = rng.integers(0, index.grid.num_cells, 2_000)
        assert _tabled(index, cell_ids).all()
        for cid in range(index.grid.num_cells):
            run = slice(arrays.starts[cid], arrays.starts[cid] + arrays.counts[cid])
            assert np.unique(arrays.min_y[run]).size < arrays.counts[cid] // 4
            assert np.unique(arrays.max_y[run]).size < arrays.counts[cid] // 4
        wxmin, wymin, wxmax, wymax = _corner_queries(index, rng, cell_ids, 0.2)
        # Snap most y edges onto some bucket's y envelope in the same cell.
        for i in np.flatnonzero(rng.random(cell_ids.size) < 0.7):
            cid = cell_ids[i]
            pick = arrays.starts[cid] + rng.integers(arrays.counts[cid], size=2)
            wymin[i] = rng.choice([arrays.min_y[pick[0]], arrays.max_y[pick[0]]])
            wymax[i] = rng.choice([arrays.min_y[pick[1]], arrays.max_y[pick[1]]])
        _check_corner_counts(index, cell_ids, (wxmin, wymin, wxmax, wymax))

    def test_tabled_cases_split_into_short_bucket_runs(self, monkeypatch):
        """Every tabled case again, with each cell's tables covering 7 buckets."""
        monkeypatch.setattr(numpy_backend, "_TABLE_RUN", 7)
        self.test_light_and_dense_groups()
        self.test_dense_cell_past_the_block_cap()
        self.test_duplicate_x_across_bucket_boundaries(600)
        for seed in range(4):
            self.test_tie_heavy_y_envelopes_in_tabled_cells(seed)

    def test_empty_input(self):
        rng = np.random.default_rng(3)
        index = BBSTJoinIndex(
            PointSet(xs=rng.uniform(0.0, 500.0, 300), ys=rng.uniform(0.0, 500.0, 300)),
            half_extent=100.0,
        )
        empty = np.empty(0, dtype=np.float64)
        _check_corner_counts(index, np.empty(0, dtype=np.int64), (empty,) * 4)


# ----------------------------------------------------------------------
# Grid lookups: kernel path vs the kernel-less path
# ----------------------------------------------------------------------
class TestGridLookups:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_lookup_cell_ids_matches_plain_path(self, seed):
        rng = np.random.default_rng(seed)
        points = PointSet(
            xs=rng.uniform(0.0, 500.0, 80), ys=rng.uniform(0.0, 500.0, 80)
        )
        grid = Grid(points, cell_size=50.0)
        ix = rng.integers(-3, 13, size=60)
        iy = rng.integers(-3, 13, size=60)
        plain = grid.lookup_cell_ids(ix, iy)
        kerneled = grid.lookup_cell_ids(ix, iy, kernels=KERNELS)
        np.testing.assert_array_equal(plain, kerneled)

    def test_wide_key_grid_disables_packing_and_still_matches(self):
        # Cell indices ~1e12 overflow the 32-bit packed keys: the flat view
        # must mark supports_packing=False and the lookup (with or without a
        # kernel set) must agree with per-point dict probes.
        base = 1.0e13
        xs = np.array([base, base + 10.0, base + 25.0, base + 1_000.0])
        ys = np.array([base, base + 5.0, base + 25.0, base + 1_000.0])
        grid = Grid(PointSet(xs=xs, ys=ys), cell_size=10.0)
        assert grid.flat().supports_packing is False
        ix = np.floor(xs / 10.0).astype(np.int64)
        iy = np.floor(ys / 10.0).astype(np.int64)
        probes_ix = np.concatenate((ix, ix + 1))
        probes_iy = np.concatenate((iy, iy))
        plain = grid.lookup_cell_ids(probes_ix, probes_iy)
        kerneled = grid.lookup_cell_ids(probes_ix, probes_iy, kernels=KERNELS)
        np.testing.assert_array_equal(plain, kerneled)
        assert (plain[: ix.size] >= 0).all()

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_neighborhood_counts_match(self, seed):
        rng = np.random.default_rng(seed)
        points = PointSet(
            xs=rng.uniform(0.0, 300.0, 50), ys=rng.uniform(0.0, 300.0, 50)
        )
        grid = Grid(points, cell_size=40.0)
        xs = rng.uniform(-50.0, 350.0, 25)
        ys = rng.uniform(-50.0, 350.0, 25)
        np.testing.assert_array_equal(
            grid.neighborhood_counts(xs, ys),
            grid.neighborhood_counts(xs, ys, kernels=KERNELS),
        )


# ----------------------------------------------------------------------
# Full samplers: backend="numpy" vs the scalar engine
# ----------------------------------------------------------------------
@pytest.fixture(params=ALL_SAMPLERS, ids=lambda cls: cls.__name__)
def sampler_class(request):
    return request.param


class TestFullSamplerTwins:
    @pytest.mark.parametrize("cls", ALL_SAMPLERS, ids=lambda c: c.__name__)
    @given(seed=st.integers(min_value=0, max_value=2**31), t=st.integers(10, 120))
    @settings(max_examples=15, deadline=None)
    def test_random_instances_bit_identical(self, cls, seed, t):
        sampler_class = cls
        rng = np.random.default_rng(seed)
        size = int(rng.integers(20, 120))
        points = PointSet(
            xs=rng.uniform(0.0, 800.0, size), ys=rng.uniform(0.0, 800.0, size)
        )
        half = len(points) // 2
        spec = JoinSpec(
            r_points=PointSet(xs=points.xs[:half], ys=points.ys[:half]),
            s_points=PointSet(xs=points.xs[half:], ys=points.ys[half:]),
            half_extent=150.0,
        )
        rng_a = np.random.default_rng(seed + 1)
        rng_b = np.random.default_rng(seed + 1)
        kerneled = sampler_class(spec, backend="numpy").sample(t, rng=rng_a)
        scalar = sampler_class(spec, vectorized=False).sample(t, rng=rng_b)
        assert _pairs(kerneled) == _pairs(scalar)
        assert kerneled.iterations == scalar.iterations
        # Both engines must consume the generator identically, draw for draw.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_single_point_cells(self, sampler_class):
        # A tiny half-extent scatters every point into its own cell: all
        # neighbourhood cells are empty or singletons.
        rng = np.random.default_rng(77)
        xs = rng.uniform(0.0, 1_000.0, 40)
        ys = rng.uniform(0.0, 1_000.0, 40)
        spec = JoinSpec(
            r_points=PointSet(xs=xs[:20], ys=ys[:20]),
            s_points=PointSet(xs=xs[:20] + 1.0, ys=ys[:20] - 1.0),
            half_extent=2.0,
        )
        kerneled = sampler_class(spec, backend="numpy").sample(60, seed=13)
        scalar = sampler_class(spec, vectorized=False).sample(60, seed=13)
        assert _pairs(kerneled) == _pairs(scalar)

    def test_wide_key_instances_bit_identical(self, sampler_class):
        # Coordinates ~1e13 with l=10 produce cell keys far beyond the packed
        # 32-bit range: the whole pipeline must run on the dict-probe
        # fallback and still match the scalar engine exactly.
        base = 1.0e13
        rng = np.random.default_rng(5150)
        xs = base + rng.uniform(0.0, 200.0, 60)
        ys = base + rng.uniform(0.0, 200.0, 60)
        spec = JoinSpec(
            r_points=PointSet(xs=xs[:30], ys=ys[:30]),
            s_points=PointSet(xs=xs[30:], ys=ys[30:]),
            half_extent=10.0,
        )
        kerneled = sampler_class(spec, backend="numpy").sample(50, seed=23)
        scalar = sampler_class(spec, vectorized=False).sample(50, seed=23)
        assert _pairs(kerneled) == _pairs(scalar)

    def test_empty_join_raises_identically(self, sampler_class):
        spec = JoinSpec(
            r_points=PointSet(xs=[0.0, 1.0], ys=[0.0, 1.0]),
            s_points=PointSet(xs=[9_000.0], ys=[9_000.0]),
            half_extent=5.0,
        )
        with pytest.raises((ValueError, RuntimeError)) as kerneled_error:
            sampler_class(spec, backend="numpy").sample(10, seed=5)
        with pytest.raises((ValueError, RuntimeError)) as scalar_error:
            sampler_class(spec, vectorized=False).sample(10, seed=5)
        assert type(kerneled_error.value) is type(scalar_error.value)
