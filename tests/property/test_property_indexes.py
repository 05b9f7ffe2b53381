"""Property-based tests for the spatial indexes (kd-tree, grid).

One shared strategy generates random point clouds and random query windows;
the property under test is always the same: every index agrees exactly with
the brute-force predicate evaluation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import PointSet
from repro.geometry.predicates import count_in_rect
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.kdtree.tree import KDTree

coordinate = st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False, allow_infinity=False)


@st.composite
def point_cloud(draw, min_size=1, max_size=120):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(
        st.lists(coordinate, min_size=n, max_size=n)
    )
    ys = draw(
        st.lists(coordinate, min_size=n, max_size=n)
    )
    return PointSet(xs=xs, ys=ys, name="hypothesis")


@st.composite
def query_rect(draw):
    x1 = draw(coordinate)
    x2 = draw(coordinate)
    y1 = draw(coordinate)
    y2 = draw(coordinate)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class TestKDTreeProperties:
    @given(points=point_cloud(), rect=query_rect(), leaf_size=st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_count_matches_brute_force(self, points, rect, leaf_size):
        tree = KDTree(points, leaf_size=leaf_size)
        assert tree.count(rect) == count_in_rect(points, rect)

    @given(points=point_cloud(), rect=query_rect(), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_sample_is_inside_range_or_none(self, points, rect, seed):
        tree = KDTree(points, leaf_size=8)
        rng = np.random.default_rng(seed)
        position = tree.sample(rect, rng)
        if count_in_rect(points, rect) == 0:
            assert position is None
        else:
            assert position is not None
            assert rect.contains(float(points.xs[position]), float(points.ys[position]))


class TestGridProperties:
    @given(points=point_cloud(), cell_size=st.floats(min_value=1.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_grid_partitions_every_point(self, points, cell_size):
        grid = Grid(points, cell_size=cell_size)
        assert sum(len(cell) for cell in grid) == len(points)
        assert int(grid.occupancy().sum()) == len(points)

    @given(
        points=point_cloud(),
        cell_size=st.floats(min_value=10.0, max_value=500.0),
        qx=coordinate,
        qy=coordinate,
    )
    @settings(max_examples=60, deadline=None)
    def test_window_points_always_in_neighborhood(self, points, cell_size, qx, qy):
        """Cell side == window half-extent implies 3x3 coverage of the window."""
        grid = Grid(points, cell_size=cell_size)
        window = Rect(qx - cell_size, qy - cell_size, qx + cell_size, qy + cell_size)
        covered = 0
        for _kind, cell in grid.neighborhood(qx, qy):
            covered += int(
                (
                    (cell.xs_by_x >= window.xmin)
                    & (cell.xs_by_x <= window.xmax)
                    & (cell.ys_by_x >= window.ymin)
                    & (cell.ys_by_x <= window.ymax)
                ).sum()
            )
        assert covered == count_in_rect(points, window)
