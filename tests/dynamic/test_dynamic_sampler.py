"""Unit tests of the incremental maintenance inside :class:`DynamicSampler`."""

import numpy as np
import pytest

from repro.core.config import JoinSpec
from repro.core.full_join import brute_force_join, join_size
from repro.core.registry import create_sampler
from repro.datasets.partition import split_r_s
from repro.datasets.synthetic import uniform_points, zipf_cluster_points
from repro.dynamic import DynamicSampler
from repro.geometry.point import PointSet
from repro.grid.grid import Grid

HALF = 300.0


def _spec(total: int = 1_200, seed: int = 11, half: float = HALF) -> JoinSpec:
    rng = np.random.default_rng(seed)
    points = uniform_points(total, rng, name="dyn")
    r_points, s_points = split_r_s(points, rng)
    return JoinSpec(r_points=r_points, s_points=s_points, half_extent=half)


def _final_spec(dyn: DynamicSampler) -> JoinSpec:
    return JoinSpec(
        r_points=dyn.r_points, s_points=dyn.s_points, half_extent=dyn.spec.half_extent
    )


class TestConstruction:
    def test_non_maintainable_algorithms_rejected(self):
        spec = _spec()
        for name in ("kds", "kds-rejection", "join-then-sample"):
            with pytest.raises(ValueError, match="supports_updates"):
                DynamicSampler(spec, algorithm=name)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="rebuild_threshold"):
            DynamicSampler(_spec(), rebuild_threshold=-0.1)

    def test_bad_side_rejected(self):
        dyn = DynamicSampler(_spec())
        with pytest.raises(ValueError, match="side"):
            dyn.update("q", delete=np.array([0]))

    def test_passthrough_before_first_update_is_bit_identical(self):
        spec = _spec()
        dyn = DynamicSampler(spec)
        static = create_sampler("bbst", spec)
        assert dyn.sample(100, seed=5).id_pairs() == static.sample(100, seed=5).id_pairs()


class TestMaintainedState:
    @pytest.mark.parametrize("algorithm", ["bbst", "cell-kdtree"])
    def test_state_matches_fresh_build_after_updates(self, algorithm):
        spec = _spec()
        dyn = DynamicSampler(spec, algorithm=algorithm)
        dyn.prepare()
        rng = np.random.default_rng(2)
        ins = uniform_points(60, rng)
        dyn.update("s", insert=(ins.xs, ins.ys), delete=dyn.s_points.ids[::9][:30])
        ins_r = uniform_points(40, rng)
        dyn.update("r", insert=(ins_r.xs, ins_r.ys), delete=dyn.r_points.ids[::7][:20])
        dyn.flush()
        fresh = create_sampler(algorithm, _final_spec(dyn))
        fresh.prepare()
        assert dyn.inner.runtime.sum_mu == fresh.runtime.sum_mu
        assert np.array_equal(dyn.inner.runtime.bounds, fresh.runtime.bounds)
        assert np.array_equal(dyn.inner.cell_ids, fresh.cell_ids)

    def test_state_stays_int32_through_updates(self):
        """No update path upcasts the int32 bound and cell-id matrices."""
        dyn = DynamicSampler(_spec())
        dyn.prepare()

        def assert_int32():
            dyn.sample(5, seed=0)  # installs the maintained state in the inner sampler
            state = dyn.inner.runtime
            assert state.bounds.dtype == dyn.inner.cell_ids.dtype == np.int32
            assert state.bounds.shape == dyn.inner.cell_ids.shape == (len(dyn.r_points), 9)

        assert_int32()
        rng = np.random.default_rng(3)
        dyn.update("r", insert=(rng.uniform(0, 10_000, 30), rng.uniform(0, 10_000, 30)))
        assert_int32()
        dyn.update("r", delete=dyn.r_points.ids[::5])
        assert_int32()
        cells = dyn.inner.index.grid.num_cells
        far = np.array([50_000.0, 50_010.0])  # both in cell (166, 166)
        dyn.update("s", insert=(far, far), delete=dyn.inner.index.grid.flat().cells[0].ids_by_x)
        assert_int32()
        assert dyn.inner.index.grid.num_cells == cells  # one cell removed, one added
        assert dyn.inner.index.grid.get((166, 166)) is not None

    def test_draws_map_ids_to_positions_after_an_s_update(self):
        """The cached id -> position lookup follows S through deletes and inserts."""
        dyn = DynamicSampler(_spec())
        dyn.sample(200, seed=1)  # caches the lookup over the initial S
        rng = np.random.default_rng(9)
        dyn.update(
            "s",
            insert=(rng.uniform(0, 10_000, 80), rng.uniform(0, 10_000, 80)),
            delete=dyn.s_points.ids[1::3],
        )
        result = dyn.sample(400, seed=2)
        final = _final_spec(dyn)
        s_ids = final.s_points.ids
        assert all(pair.s_id == s_ids[pair.s_index] for pair in result.pairs)
        assert all(final.pair_matches(p.r_index, p.s_index) for p in result.pairs)
        dyn.flush()
        fresh = create_sampler("bbst", final)
        assert dyn.sample(400, seed=5).id_pairs() == fresh.sample(400, seed=5).id_pairs()

    def test_weights_stay_exact_on_skewed_data(self):
        rng = np.random.default_rng(4)
        points = zipf_cluster_points(900, rng, num_clusters=6, skew=1.5)
        r_points, s_points = split_r_s(points, rng)
        spec = JoinSpec(r_points=r_points, s_points=s_points, half_extent=400.0)
        dyn = DynamicSampler(spec)
        dyn.prepare()
        ins = zipf_cluster_points(80, rng, num_clusters=6, skew=1.5)
        dyn.update("s", insert=(ins.xs, ins.ys))
        dyn.update("s", delete=dyn.s_points.ids[::5][:40])
        dyn.flush()
        fresh = create_sampler("bbst", _final_spec(dyn))
        fresh.prepare()
        assert dyn.inner.runtime.sum_mu == fresh.runtime.sum_mu

    def test_bucket_capacity_crossing_rebuilds_all_cells(self):
        # Push m across a power of two so ceil(log2 m) changes; the report
        # must flag the full rebuild and the state still match a fresh build.
        rng = np.random.default_rng(6)
        points = uniform_points(500, rng)
        r_points, s_points = split_r_s(points, rng)
        spec = JoinSpec(r_points=r_points, s_points=s_points, half_extent=500.0)
        dyn = DynamicSampler(spec)
        dyn.prepare()
        m = len(dyn.s_points)
        target = 2 ** int(np.ceil(np.log2(m)))
        extra = target - m + 10
        ins = uniform_points(extra, rng)
        report = dyn.update("s", insert=(ins.xs, ins.ys))
        assert report.structure_rebuilt
        dyn.flush()
        fresh = create_sampler("bbst", _final_spec(dyn))
        fresh.prepare()
        assert np.array_equal(dyn.inner.runtime.bounds, fresh.runtime.bounds)

    def test_cell_ids_follow_an_added_and_a_removed_cell(self, monkeypatch):
        """Old flat indices are remapped; only the affected rows are re-resolved."""
        spec = _spec(total=2_000, half=100.0)
        dyn = DynamicSampler(spec)
        dyn.prepare()
        grid = dyn.inner.index.grid
        # An R point whose own cell holds no S point, and the first S cell.
        r_xs, r_ys = spec.r_points.xs, spec.r_points.ys
        empty = grid.lookup_cell_ids(*grid._keys(r_xs, r_ys)) < 0
        target = int(np.flatnonzero(empty)[0])
        removed = grid.flat().cells[0]
        cells = grid.num_cells
        seen: list[int] = []
        original = Grid.neighbor_cell_ids

        def recording(grid, xs, ys, kernels=None):
            seen.append(len(xs))
            return original(grid, xs, ys, kernels=kernels)

        monkeypatch.setattr(Grid, "neighbor_cell_ids", recording)
        report = dyn.update(
            "s",
            insert=(r_xs[target : target + 1], r_ys[target : target + 1]),
            delete=removed.ids_by_x,
        )
        monkeypatch.setattr(Grid, "neighbor_cell_ids", original)
        assert not report.structure_rebuilt
        assert grid.num_cells == cells
        assert grid.get(removed.key) is None
        assert seen == [report.refreshed_rows]
        assert 0 < report.refreshed_rows < len(dyn.r_points) / 4
        dyn.flush()
        fresh = create_sampler("bbst", _final_spec(dyn))
        fresh.prepare()
        assert dyn.inner.cell_ids.dtype == np.int32
        assert np.array_equal(dyn.inner.cell_ids, fresh.cell_ids)
        assert np.array_equal(dyn.inner.runtime.bounds, fresh.runtime.bounds)
        assert dyn.inner.cell_ids[target, 0] >= 0

    def test_affected_rows_are_a_small_subset_for_local_updates(self):
        spec = _spec(total=2_000, half=100.0)
        dyn = DynamicSampler(spec)
        dyn.prepare()
        # One point inserted into one cell only touches the rows whose 3x3
        # block contains it.
        report = dyn.update("s", insert=(np.array([5_000.0]), np.array([5_000.0])))
        assert report.affected_cells == 1
        assert report.refreshed_rows < len(dyn.r_points) / 4

    def test_empty_join_after_deleting_all_of_s(self):
        dyn = DynamicSampler(_spec(total=400))
        dyn.prepare()
        dyn.update("s", delete=dyn.s_points.ids)
        assert len(dyn.sample(0)) == 0
        with pytest.raises(ValueError, match="empty"):
            dyn.sample(5, seed=0)

    def test_grow_from_empty_instance(self):
        spec = JoinSpec(
            r_points=PointSet.empty("R"), s_points=PointSet.empty("S"), half_extent=50.0
        )
        dyn = DynamicSampler(spec)
        pts = uniform_points(300, np.random.default_rng(8), domain=400.0)
        dyn.update("r", insert=(pts.xs[:150], pts.ys[:150]))
        dyn.update("s", insert=(pts.xs[150:], pts.ys[150:]))
        result = dyn.sample(40, seed=3)
        final = _final_spec(dyn)
        assert all(final.pair_matches(p.r_index, p.s_index) for p in result.pairs)


class TestLazyAliasPolicy:
    def test_small_updates_use_cumulative_routing(self):
        dyn = DynamicSampler(_spec(), rebuild_threshold=1e9)
        dyn.prepare()
        dyn.update("s", insert=(np.array([10.0]), np.array([10.0])))
        dyn.sample(10, seed=0)
        assert dyn.cumulative_rebuilds == 1
        assert dyn.alias_rebuilds == 0

    def test_large_drift_rebuilds_the_alias(self):
        dyn = DynamicSampler(_spec(), rebuild_threshold=0.0)
        dyn.prepare()
        ins = uniform_points(50, np.random.default_rng(1))
        dyn.update("s", insert=(ins.xs, ins.ys))
        dyn.sample(10, seed=0)
        assert dyn.alias_rebuilds == 1
        assert dyn.cumulative_rebuilds == 0

    def test_dirty_draws_are_exactly_uniform(self):
        # With an enormous threshold the alias is never rebuilt: draws route
        # through cumulative tables and must still be uniform over J.
        spec = _spec(total=500, half=400.0)
        dyn = DynamicSampler(spec, rebuild_threshold=1e9)
        dyn.prepare()
        ins = uniform_points(40, np.random.default_rng(2))
        dyn.update("s", insert=(ins.xs, ins.ys))
        dyn.update("r", delete=dyn.r_points.ids[:10])
        result = dyn.sample(30_000, seed=7)
        final = _final_spec(dyn)
        pairs = set(brute_force_join(final))
        drawn = [p.as_index_tuple() for p in result.pairs]
        assert set(drawn) <= pairs
        # chi-square against the uniform distribution over J
        from collections import Counter

        counts = Counter(drawn)
        expected = len(drawn) / len(pairs)
        observed = np.array([counts.get(pair, 0) for pair in pairs], dtype=float)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        dof = len(pairs) - 1
        # mean chi2 is dof with std ~ sqrt(2 dof); 5 sigma keeps flakes out
        assert chi2 < dof + 5.0 * np.sqrt(2.0 * dof)

    def test_router_not_rebuilt_without_updates(self):
        dyn = DynamicSampler(_spec())
        dyn.prepare()
        ins = uniform_points(10, np.random.default_rng(3))
        dyn.update("s", insert=(ins.xs, ins.ys))
        dyn.sample(10, seed=0)
        rebuilds = dyn.alias_rebuilds + dyn.cumulative_rebuilds
        dyn.sample(10, seed=1)
        dyn.sample(10, seed=2)
        assert dyn.alias_rebuilds + dyn.cumulative_rebuilds == rebuilds


class TestReports:
    def test_update_report_bookkeeping(self):
        dyn = DynamicSampler(_spec())
        ins = uniform_points(25, np.random.default_rng(5))
        report = dyn.update("s", insert=(ins.xs, ins.ys), delete=dyn.s_points.ids[:5])
        assert report.side == "s"
        assert report.inserted == 25
        assert report.deleted == 5
        assert report.inserted_ids.size == 25
        assert report.seconds >= 0.0
        assert dyn.updates_applied == 1
        assert dyn.points_changed == 30

    def test_describe_is_json_friendly(self):
        import json

        dyn = DynamicSampler(_spec())
        dyn.update("s", insert=(np.array([1.0]), np.array([1.0])))
        payload = dyn.describe()
        json.dumps(payload)
        assert payload["updates_applied"] == 1

    def test_join_size_consistency_after_interleaving(self):
        dyn = DynamicSampler(_spec(total=600))
        rng = np.random.default_rng(9)
        for round_index in range(4):
            side = "s" if round_index % 2 == 0 else "r"
            live = dyn.s_points if side == "s" else dyn.r_points
            ins = uniform_points(30, rng)
            dyn.update(
                side,
                insert=(ins.xs, ins.ys),
                delete=rng.choice(live.ids, size=15, replace=False),
            )
        # The maintained sum over exact per-row counts must agree with the
        # exact join size whenever mu is exact (cell-kdtree bounds are exact).
        final = _final_spec(dyn)
        dyn_exact = DynamicSampler(
            JoinSpec(
                r_points=final.r_points,
                s_points=final.s_points,
                half_extent=final.half_extent,
            ),
            algorithm="cell-kdtree",
        )
        dyn_exact.prepare()
        assert int(dyn_exact.inner.runtime.sum_mu) == join_size(final)
