"""Tests for the non-empty hash grid."""

import numpy as np
import pytest

from repro.geometry.point import PointSet
from repro.geometry.predicates import count_in_rect
from repro.geometry.rect import window_around
from repro.grid import grid as grid_module
from repro.grid.cell import GridCell
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


_VIEWS = ("xs_by_x", "ys_by_x", "ids_by_x", "xs_by_y", "ys_by_y", "ids_by_y")


def _assert_cells_slice_the_flat_view(grid: Grid) -> None:
    flat = grid.flat()
    assert len(flat.cells) == grid.num_cells
    for cell, start, length in zip(flat.cells, flat.starts, flat.lengths):
        for name in _VIEWS:
            view = getattr(cell, name)
            assert np.shares_memory(view, getattr(flat, name)), name
            np.testing.assert_array_equal(view, getattr(flat, name)[start : start + length])


class TestOneCopyOfS:
    """The cells are slices of the flat views, so the grid holds S once."""

    def test_cells_share_memory_with_the_flat_views(self, rng):
        xs = np.round(rng.random(2_000) * 3_000, 0)  # ties in x and in y
        ys = np.round(rng.random(2_000) * 3_000, 0)
        grid = Grid(PointSet(xs=xs, ys=ys), cell_size=250.0)
        _assert_cells_slice_the_flat_view(grid)
        # Each cell's y view is the (y, x) order a standalone cell computes.
        for cell in grid:
            alone = GridCell(cell.key, cell.xs_by_x, cell.ys_by_x, cell.ids_by_x)
            for name in ("xs_by_y", "ys_by_y", "ids_by_y"):
                np.testing.assert_array_equal(getattr(cell, name), getattr(alone, name))

    def test_cells_are_re_sliced_after_cell_updates(self, rng):
        points = PointSet(xs=rng.random(1_000) * 2_000, ys=rng.random(1_000) * 2_000)
        grid = Grid(points, cell_size=250.0)
        old = grid.flat()
        removed = old.cells[0]
        shrunk = next(cell for cell in old.cells[1:] if len(cell) > 1)
        replacements = {
            removed.key: None,
            shrunk.key: grid.build_cell(
                shrunk.key, shrunk.xs_by_x[1:], shrunk.ys_by_x[1:], shrunk.ids_by_x[1:]
            ),
            (50, 50): grid.build_cell(
                (50, 50), np.array([12_600.0]), np.array([12_510.0]), np.array([5_000])
            ),
        }
        grid.apply_cell_updates(replacements)
        _assert_cells_slice_the_flat_view(grid)
        assert grid.flat().xs_by_x.size == grid.num_points == 1_000 - len(removed)
        for cell in grid:
            for name in _VIEWS:
                assert not np.shares_memory(getattr(cell, name), getattr(old, name)), name


_FLAT_ARRAYS = ("keys_ix", "keys_iy", "starts", "lengths", *_VIEWS, "packed_keys",
                "packed_cell_ids")


class TestLazyCells:
    """A cell is cut from the flat views when first asked for, and only once."""

    def test_build_and_attach_make_no_cells(self, rng, monkeypatch):
        made = []
        real = grid_module.GridCell
        monkeypatch.setattr(
            grid_module, "GridCell", lambda *args, **kw: made.append(args[0]) or real(*args, **kw)
        )
        points = PointSet(xs=rng.random(2_000) * 3_000, ys=rng.random(2_000) * 3_000)
        flat = Grid(points, cell_size=250.0).flat()
        attached = Grid.from_cell_arrays(
            250.0, flat.keys_ix, flat.keys_iy, flat.lengths, *(getattr(flat, n) for n in _VIEWS)
        )
        assert attached.num_cells == flat.lengths.size > 1
        assert made == []
        key = (int(flat.keys_ix[3]), int(flat.keys_iy[3]))
        cell = attached.get(key)
        assert made == [key]
        assert attached.get(key) is cell is attached.flat().cells[3]
        assert attached.flat().cells[-len(flat.cells) + 3] is cell
        assert made == [key]

    @pytest.mark.parametrize("seed", range(3))
    def test_spliced_views_equal_a_fresh_build(self, seed):
        rng = np.random.default_rng(seed)
        size = 250.0
        xs, ys = rng.random(1_500) * 2_000, rng.random(1_500) * 2_000
        ids = np.arange(1_500)
        grid = Grid(PointSet(xs=xs, ys=ys, ids=ids), cell_size=size)
        for step in range(8):
            keys = np.floor(np.column_stack((xs, ys)) / size).astype(np.int64)
            present = sorted(set(map(tuple, keys.tolist())))
            # Change some cells (always the first and the last), drop points
            # from them, and add points to a few old and new cells.
            changed = set()
            if present:
                changed = {present[0], present[-1]}
                changed.update(present[i] for i in rng.choice(len(present), 4).tolist())
            in_changed = np.array([tuple(k) in changed for k in keys.tolist()], dtype=bool)
            keep = ~in_changed | (rng.random(xs.size) < (0.0 if step == 6 else 0.6))
            xs, ys, ids = xs[keep], ys[keep], ids[keep]
            new_xs = np.concatenate((rng.random(5) * 2_000, 3_000 + rng.random(3) * 400 * step))
            new_ys = np.concatenate((rng.random(5) * 2_000, rng.random(3) * 2_000))
            new_ids = 10_000 * (step + 1) + np.arange(new_xs.size)
            if step == 5:  # every point leaves: the grid empties
                new_xs, new_ys, new_ids = new_xs[:0], new_ys[:0], new_ids[:0]
                xs, ys, ids = xs[:0], ys[:0], ids[:0]
                changed = set(present)
            xs, ys = np.concatenate((xs, new_xs)), np.concatenate((ys, new_ys))
            ids = np.concatenate((ids, new_ids))
            changed.update(grid.key_for(x, y) for x, y in zip(new_xs, new_ys))
            keys = np.floor(np.column_stack((xs, ys)) / size).astype(np.int64)
            replacements = {}
            for key in changed:
                mine = (keys[:, 0] == key[0]) & (keys[:, 1] == key[1])
                replacements[key] = (
                    grid.build_cell(key, xs[mine], ys[mine], ids[mine]) if mine.any() else None
                )
            grid.apply_cell_updates(replacements)
            fresh = Grid(PointSet(xs=xs, ys=ys, ids=ids), cell_size=size).flat()
            flat = grid.flat()
            for name in _FLAT_ARRAYS:
                np.testing.assert_array_equal(getattr(flat, name), getattr(fresh, name), name)
            assert grid.num_points == xs.size
            assert [cell.key for cell in grid] == [cell.key for cell in fresh.cells]


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
