"""The batched bound matrix reproduces the scalar contributions exactly."""

import numpy as np
import pytest

from repro.artifacts import attach_sampler_artifact, save_sampler_artifact
from repro.bbst.cell_index import CellIndex
from repro.bbst.join_index import BBSTJoinIndex, corner_bucket_qualifies
from repro.core.bbst_sampler import BBSTSampler
from repro.core.cell_kdtree_sampler import CellKDTreeJoinIndex
from repro.core.config import JoinSpec
from repro.dynamic import DynamicSampler
from repro.geometry.point import PointSet
from repro.grid.neighbors import NEIGHBOR_OFFSETS
from repro.kernels.numpy_backend import _tabled_cells

_COLUMN = {kind: column for column, kind in enumerate(NEIGHBOR_OFFSETS)}


@pytest.fixture(params=[BBSTJoinIndex, CellKDTreeJoinIndex], ids=lambda cls: cls.__name__)
def index_class(request):
    return request.param


def _scalar_bounds(index, x: float, y: float) -> np.ndarray:
    row = np.zeros(9)
    for contribution in index.contributions(x, y):
        row[_COLUMN[contribution.kind]] = contribution.upper_bound
    return row


class TestBatchBounds:
    def test_matches_scalar_contributions(self, index_class, rng):
        points = PointSet(xs=np.sort(rng.random(400) * 800), ys=rng.random(400) * 800)
        index = index_class(points, half_extent=70.0)
        qx = rng.random(150) * 900 - 50
        qy = rng.random(150) * 900 - 50
        bounds = index.batch_bounds(qx, qy)
        for i in range(150):
            np.testing.assert_array_equal(
                bounds[i], _scalar_bounds(index, float(qx[i]), float(qy[i]))
            )

    def test_matches_scalar_contributions_on_a_hotspot(self, rng):
        # 2,500 queries around one dense cell make it a corner cell answered
        # from rank tables (past the kernel's light/tabled threshold).
        xs = np.concatenate((rng.uniform(300.0, 400.0, 3_000), rng.uniform(0.0, 1_000.0, 500)))
        ys = np.concatenate((rng.uniform(300.0, 400.0, 3_000), rng.uniform(0.0, 1_000.0, 500)))
        index = BBSTJoinIndex(PointSet(xs=xs, ys=ys), half_extent=100.0)
        qx = rng.uniform(200.0, 500.0, 2_500)
        qy = rng.uniform(200.0, 500.0, 2_500)
        hotspot = index.grid.flat().cells.index(index.grid.get((3, 3)))
        corner_ids = index.grid.neighbor_cell_ids(qx, qy)[:, 5:]
        counts = index.bucket_arrays().counts
        assert all(_tabled_cells(ids[ids >= 0], counts)[hotspot] for ids in corner_ids.T)
        bounds = index.batch_bounds(qx, qy)
        for i in range(qx.size):
            np.testing.assert_array_equal(
                bounds[i], _scalar_bounds(index, float(qx[i]), float(qy[i]))
            )

    def test_matches_upper_bound_sum(self, index_class, rng):
        points = PointSet(xs=np.sort(rng.random(200) * 500), ys=rng.random(200) * 500)
        index = index_class(points, half_extent=60.0)
        qx = rng.random(80) * 500
        qy = rng.random(80) * 500
        bounds = index.batch_bounds(qx, qy)
        for i in range(0, 80, 7):
            assert bounds[i].sum() == index.upper_bound(float(qx[i]), float(qy[i]))


class TestCornerDominance:
    def test_qualifying_set_equals_the_bbst_runs(self, rng):
        """Envelope dominance == the tree's qualifying-runs membership (Lemma 5)."""
        points = PointSet(xs=np.sort(rng.random(300) * 600), ys=rng.random(300) * 600)
        index = BBSTJoinIndex(points, half_extent=55.0)
        corner_kinds = [kind for kind in NEIGHBOR_OFFSETS if kind.is_corner]
        checked = 0
        for cell in list(index.grid.cells.values())[:20]:
            cell_index = index.cell_index(cell.key)
            for kind in corner_kinds:
                window = index.window_for(
                    float(cell.xs_by_x[0]) + 11.0, float(cell.ys_by_x[0]) - 17.0
                )
                runs = cell_index.corner_runs(kind, window)
                from_tree = sorted(
                    int(run.bucket_indices[offset])
                    for run in runs
                    for offset in range(run.lo, run.hi)
                )
                from_dominance = sorted(
                    bucket.index
                    for bucket in cell_index.buckets
                    if corner_bucket_qualifies(bucket, kind, window)
                )
                assert from_tree == from_dominance
                checked += 1
        assert checked > 0

    def test_needs_slot_variates_flags(self):
        assert BBSTJoinIndex.needs_slot_variates is True
        assert CellKDTreeJoinIndex.needs_slot_variates is False


def _assert_arrays_mirror_the_buckets(index):
    arrays = index.bucket_arrays()
    flat = index.grid.flat()
    assert arrays.counts.size == len(flat.cells)
    for cell_id, cell in enumerate(flat.cells):
        buckets = index.cell_index(cell.key).buckets
        lo = int(arrays.starts[cell_id])
        assert arrays.counts[cell_id] == len(buckets)
        for j, bucket in enumerate(buckets):
            assert arrays.min_x[lo + j] == bucket.min_x
            assert arrays.max_x[lo + j] == bucket.max_x
            assert arrays.min_y[lo + j] == bucket.min_y
            assert arrays.max_y[lo + j] == bucket.max_y
            assert arrays.point_start[lo + j] == bucket.start
            assert arrays.sizes[lo + j] == bucket.size


def _spec(rng, n: int, m: int) -> JoinSpec:
    return JoinSpec(
        r_points=PointSet(xs=rng.uniform(0, 400, n), ys=rng.uniform(0, 400, n), name="R"),
        s_points=PointSet(xs=rng.uniform(0, 400, m), ys=rng.uniform(0, 400, m), name="S"),
        half_extent=45.0,
    )


def _s_update(sampler, rng, inserts: int, deletes: int):
    doomed = rng.choice(sampler.s_points.ids, size=deletes, replace=False)
    return sampler.update(
        "s",
        insert=(rng.uniform(0, 400, inserts), rng.uniform(0, 400, inserts)),
        delete=doomed,
    )


class TestBucketArrays:
    def test_arrays_mirror_the_buckets(self, rng):
        points = PointSet(xs=np.sort(rng.random(250) * 400), ys=rng.random(250) * 400)
        index = BBSTJoinIndex(points, half_extent=45.0)
        _assert_arrays_mirror_the_buckets(index)

        # The envelopes track S updates, before and after a capacity change
        # (m = 240 -> 250 keeps ceil(log2 m) = 8; 250 -> 260 makes it 9).
        sampler = DynamicSampler(_spec(rng, 200, 240), algorithm="bbst")
        sampler.prepare()
        report = _s_update(sampler, rng, inserts=20, deletes=10)
        assert not report.structure_rebuilt
        _assert_arrays_mirror_the_buckets(sampler.inner.index)
        report = _s_update(sampler, rng, inserts=15, deletes=5)
        assert report.structure_rebuilt and sampler.inner.index.bucket_capacity == 9
        _assert_arrays_mirror_the_buckets(sampler.inner.index)


class TestNoTreesOnTheBatchPath:
    """Only the scalar (``vectorized=False``) oracle builds per-cell BBSTs."""

    @pytest.fixture
    def no_trees(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the batch path built a per-cell BBST")

        monkeypatch.setattr(CellIndex, "__init__", refuse)

    def test_cold_prepare_and_sample(self, no_trees, rng):
        sampler = BBSTSampler(_spec(rng, 300, 400))
        sampler.prepare()
        assert len(sampler.sample(200, seed=1)) == 200
        assert sampler.index_nbytes() > 0

    def test_updates_and_a_capacity_crossing(self, no_trees, rng):
        sampler = DynamicSampler(_spec(rng, 300, 500), algorithm="bbst")
        sampler.prepare()
        assert not _s_update(sampler, rng, inserts=10, deletes=10).structure_rebuilt
        assert _s_update(sampler, rng, inserts=30, deletes=0).structure_rebuilt
        sampler.flush()
        fresh = BBSTSampler(JoinSpec(sampler.r_points, sampler.s_points, 45.0))
        assert [p.as_index_tuple() for p in sampler.sample(200, seed=3).pairs] == [
            p.as_index_tuple() for p in fresh.sample(200, seed=3).pairs
        ]

    def test_attach_then_update(self, no_trees, rng, tmp_path):
        spec = _spec(rng, 300, 400)
        built = BBSTSampler(spec)
        built.prepare()
        save_sampler_artifact(built, tmp_path / "bbst")
        warm = DynamicSampler(spec, algorithm="bbst")
        attach_sampler_artifact(warm, tmp_path / "bbst")
        _s_update(warm, rng, inserts=10, deletes=10)
        assert len(warm.sample(100, seed=2)) == 100

    def test_the_scalar_oracle_builds_the_trees(self, rng, monkeypatch):
        built = []
        original = CellIndex.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CellIndex, "__init__", counting)
        spec = _spec(rng, 300, 400)
        BBSTSampler(spec).sample(100, seed=4)
        assert not built
        BBSTSampler(spec, vectorized=False).sample(100, seed=4)
        assert built
