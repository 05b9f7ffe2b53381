"""Tests for the non-empty hash grid."""

import numpy as np
import pytest

from repro.geometry.point import PointSet
from repro.geometry.predicates import count_in_rect
from repro.geometry.rect import window_around
from repro.grid.grid import Grid, _is_xy_sorted
from repro.grid.neighbors import NeighborKind


class TestConstruction:
    def test_rejects_non_positive_cell_size(self, grid_friendly_points):
        with pytest.raises(ValueError):
            Grid(grid_friendly_points, cell_size=0.0)

    def test_empty_point_set(self):
        grid = Grid(PointSet.empty(), cell_size=10.0)
        assert grid.num_cells == 0
        assert grid.num_points == 0

    def test_every_point_is_assigned(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=500.0)
        assert sum(len(cell) for cell in grid) == len(grid_friendly_points)

    def test_only_non_empty_cells_exist(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=500.0)
        assert all(len(cell) > 0 for cell in grid)

    def test_points_in_their_cell_bounds(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=777.0)
        for cell in grid:
            assert cell.bounds is not None
            assert np.all(cell.xs_by_x >= cell.bounds.xmin)
            assert np.all(cell.xs_by_x < cell.bounds.xmax + 1e-9)
            assert np.all(cell.ys_by_x >= cell.bounds.ymin)
            assert np.all(cell.ys_by_x < cell.bounds.ymax + 1e-9)

    def test_cells_are_x_sorted(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=300.0)
        for cell in grid:
            assert np.all(np.diff(cell.xs_by_x) >= 0)

    def test_cells_y_view_sorted(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=300.0)
        for cell in grid:
            assert np.all(np.diff(cell.ys_by_y) >= 0)

    def test_presorted_input_gives_the_same_flat_view(self, rng):
        """(x, y)-sorted input skips the full sort and still gives identical cells."""
        xs = np.round(rng.random(1_500) * 2_000 - 1_000, 0)  # many equal x
        ys = rng.random(1_500) * 2_000 - 1_000
        xs[1_000:] = xs[:500]  # exact duplicates under other ids
        ys[1_000:] = ys[:500]
        shuffled = PointSet(xs=xs, ys=ys).take(rng.permutation(1_500))
        presorted = shuffled.sorted_by_x()
        assert _is_xy_sorted(presorted.xs, presorted.ys)
        assert not _is_xy_sorted(shuffled.xs, shuffled.ys)
        a = Grid(presorted, cell_size=150.0).flat()
        b = Grid(shuffled, cell_size=150.0).flat()
        assert [cell.key for cell in a.cells] == [cell.key for cell in b.cells]
        assert min(cell.key[1] for cell in a.cells) < 0
        for name in ("starts", "lengths", "xs_by_x", "ys_by_x", "ids_by_x",
                     "xs_by_y", "ys_by_y", "ids_by_y", "packed_keys", "packed_cell_ids"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


class TestLookup:
    def test_key_for_and_cell_of(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=250.0)
        point = grid_friendly_points[0]
        key = grid.key_for(point.x, point.y)
        cell = grid.cell_of(point.x, point.y)
        assert cell is not None
        assert cell.key == key
        assert point.pid in set(cell.ids_by_x.tolist())

    def test_get_missing_cell_returns_none(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=250.0)
        assert grid.get((10_000, 10_000)) is None

    def test_contains(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=250.0)
        some_key = next(iter(grid.cells))
        assert some_key in grid
        assert (9999, 9999) not in grid

    def test_occupancy_sums_to_points(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=200.0)
        assert int(grid.occupancy().sum()) == len(grid_friendly_points)

    def test_nbytes_positive(self, grid_friendly_points):
        assert Grid(grid_friendly_points, cell_size=200.0).nbytes() > 0


class TestNeighborhood:
    def test_neighborhood_kinds_are_unique(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=250.0)
        kinds = [kind for kind, _cell in grid.neighborhood(5000.0, 5000.0)]
        assert len(kinds) == len(set(kinds))

    def test_neighborhood_offsets_are_adjacent(self, grid_friendly_points):
        grid = Grid(grid_friendly_points, cell_size=250.0)
        base = grid.key_for(5000.0, 5000.0)
        for kind, cell in grid.neighborhood(5000.0, 5000.0):
            assert cell.key == (base[0] + kind.offset[0], base[1] + kind.offset[1])

    def test_window_covered_by_neighborhood(self, grid_friendly_points):
        """Every point of S inside w(r) lies in one of the 3x3 block cells.

        This is the geometric fact (cell side == half extent) the whole
        decomposition rests on.
        """
        half_extent = 313.0
        grid = Grid(grid_friendly_points, cell_size=half_extent)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.uniform(0, 10_000, size=2)
            window = window_around(x, y, half_extent)
            expected = count_in_rect(grid_friendly_points, window)
            covered = 0
            for _kind, cell in grid.neighborhood(x, y):
                covered += int(
                    (
                        (cell.xs_by_x >= window.xmin)
                        & (cell.xs_by_x <= window.xmax)
                        & (cell.ys_by_x >= window.ymin)
                        & (cell.ys_by_x <= window.ymax)
                    ).sum()
                )
            assert covered == expected

    def test_center_cell_fully_covered_by_window(self, grid_friendly_points):
        """The centre cell of the block is always fully inside w(r) (case 1)."""
        half_extent = 400.0
        grid = Grid(grid_friendly_points, cell_size=half_extent)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = rng.uniform(0, 10_000, size=2)
            window = window_around(x, y, half_extent)
            cell = grid.cell_of(x, y)
            if cell is None:
                continue
            assert window.contains_rect(cell.bounds)

    def test_edge_cells_covered_along_one_axis(self, grid_friendly_points):
        """Edge neighbours are fully covered along the non-offset axis (case 2)."""
        half_extent = 350.0
        grid = Grid(grid_friendly_points, cell_size=half_extent)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.uniform(500, 9_500, size=2)
            window = window_around(x, y, half_extent)
            for kind, cell in grid.neighborhood(x, y):
                if kind in (NeighborKind.LEFT, NeighborKind.RIGHT):
                    assert window.ymin <= cell.bounds.ymin
                    assert cell.bounds.ymax <= window.ymax
                elif kind in (NeighborKind.DOWN, NeighborKind.UP):
                    assert window.xmin <= cell.bounds.xmin
                    assert cell.bounds.xmax <= window.xmax
