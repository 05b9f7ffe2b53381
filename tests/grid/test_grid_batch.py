"""Equivalence tests of the grid's batched lookups against the scalar API."""

import numpy as np
import pytest

from repro.geometry.point import PointSet
from repro.grid.grid import Grid
from repro.grid.neighbors import NEIGHBOR_OFFSETS


@pytest.fixture
def grid(rng) -> Grid:
    points = PointSet(xs=rng.random(800) * 900 - 450, ys=rng.random(800) * 900 - 450)
    return Grid(points, cell_size=60.0)


class TestFlatView:
    def test_flat_is_cached(self, grid):
        assert grid.flat() is grid.flat()

    def test_slices_reproduce_every_cell(self, grid):
        flat = grid.flat()
        assert len(flat.cells) == grid.num_cells
        for cell_id, cell in enumerate(flat.cells):
            lo = int(flat.starts[cell_id])
            hi = lo + int(flat.lengths[cell_id])
            np.testing.assert_array_equal(flat.xs_by_x[lo:hi], cell.xs_by_x)
            np.testing.assert_array_equal(flat.ids_by_x[lo:hi], cell.ids_by_x)
            np.testing.assert_array_equal(flat.ys_by_y[lo:hi], cell.ys_by_y)
            np.testing.assert_array_equal(flat.ids_by_y[lo:hi], cell.ids_by_y)


class TestBatchLookups:
    def test_neighbor_cell_ids_match_scalar_neighborhood(self, grid, rng):
        scattered = (rng.random(200) * 1000 - 500, rng.random(200) * 1000 - 500)
        # Hundreds of queries in each of a few cells, some of them empty in S
        # (the grid spans keys -8..7), shuffled so no cell's queries are adjacent.
        keys = np.array([(-8, -8), (-1, 3), (0, 0), (7, -2), (-11, 5), (9, 9)])
        per_cell = rng.integers(100, 400, len(keys))
        which = np.repeat(np.arange(len(keys)), per_cell)
        rng.shuffle(which)
        clustered = tuple(
            (keys[which, axis] + rng.random(which.size)) * grid.cell_size for axis in (0, 1)
        )
        assert any(grid.get(tuple(key)) is None for key in keys.tolist())
        flat = grid.flat()
        for qx, qy in (scattered, clustered):
            cell_ids = grid.neighbor_cell_ids(qx, qy)
            assert cell_ids.shape == (qx.size, 9)
            for i in range(qx.size):
                scalar = dict(grid.neighborhood(float(qx[i]), float(qy[i])))
                for column, kind in enumerate(NEIGHBOR_OFFSETS):
                    cell = scalar.get(kind)
                    if cell is None:
                        assert cell_ids[i, column] == -1
                    else:
                        assert flat.cells[cell_ids[i, column]] is cell

    def test_neighborhood_counts_match_scalar_mu(self, grid, rng):
        qx = rng.random(300) * 1000 - 500
        qy = rng.random(300) * 1000 - 500
        mu = grid.neighborhood_counts(qx, qy).sum(axis=1)
        for i in range(300):
            expected = sum(
                len(cell) for _kind, cell in grid.neighborhood(float(qx[i]), float(qy[i]))
            )
            assert mu[i] == expected

    def test_lookup_missing_keys_return_minus_one(self, grid):
        ids = grid.lookup_cell_ids(np.array([10**6]), np.array([10**6]))
        assert ids[0] == -1

    def test_far_coordinates_use_the_dict_fallback(self, rng):
        """Keys beyond the 32-bit packing range must still resolve correctly."""
        points = PointSet(xs=rng.random(50) * 1e12, ys=rng.random(50) * 1e12)
        grid = Grid(points, cell_size=1e-2)  # cell indices far outside int32
        assert not grid.flat().supports_packing
        repeats = rng.integers(0, 20, 60)  # each of 20 points queried about three times
        qx, qy = points.xs[repeats], points.ys[repeats]
        cell_ids = grid.neighbor_cell_ids(qx, qy)
        flat = grid.flat()
        for i in range(60):
            base = grid.cell_of(float(qx[i]), float(qy[i]))
            assert base is not None
            assert flat.cells[cell_ids[i, 0]] is base
