"""Tests for the KD-tree spatial backend."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import euclidean, squared_distance
from repro.spatial.kdtree import KDTree


class TestBasics:
    def test_empty_tree(self):
        tree = KDTree([])
        assert len(tree) == 0
        assert tree.query_radius((0, 0), 1.0) == []

    def test_single_point(self):
        tree = KDTree([(7, (0.5, 0.5))])
        assert tree.query_radius((0.5, 0.5), 0.0) == [7]
        assert tree.query_radius((0.9, 0.9), 0.1) == []

    def test_negative_radius(self):
        tree = KDTree([(1, (0.0, 0.0))])
        assert tree.query_radius((0.0, 0.0), -1.0) == []

    def test_boundary_inclusive(self):
        tree = KDTree([(1, (0.3, 0.0))])
        assert tree.query_radius((0.0, 0.0), 0.3) == [1]

    def test_duplicate_coordinates(self):
        # 100 points on the same spot (degenerate split axis).
        tree = KDTree([(i, (0.5, 0.5)) for i in range(100)])
        assert sorted(tree.query_radius((0.5, 0.5), 0.01)) == list(
            range(100)
        )

    def test_collinear_points(self):
        tree = KDTree([(i, (0.1 * i, 0.0)) for i in range(50)])
        hits = tree.query_radius((0.0, 0.0), 0.25)
        assert sorted(hits) == [0, 1, 2]


@st.composite
def clouds(draw):
    n = draw(st.integers(0, 120))
    coords = st.floats(-5.0, 5.0, allow_nan=False)
    points = [(i, (draw(coords), draw(coords))) for i in range(n)]
    center = (draw(coords), draw(coords))
    radius = draw(st.floats(0.0, 8.0, allow_nan=False))
    return points, center, radius


class TestAgainstBruteForce:
    @given(clouds())
    @settings(max_examples=100, deadline=None)
    def test_matches_linear_scan(self, cloud):
        points, center, radius = cloud
        tree = KDTree(points)
        expected = {
            item_id
            for item_id, p in points
            if euclidean(p, center) <= radius
        }
        observed = set(tree.query_radius(center, radius))
        for item_id in expected ^ observed:
            point = dict(points)[item_id]
            assert abs(euclidean(point, center) - radius) < 1e-9


class TestAgainstGrid:
    def test_agrees_with_grid_index_on_clusters(self):
        from repro.spatial.grid_index import GridIndex

        rng = np.random.default_rng(4)
        centres = rng.uniform(size=(5, 2))
        points = []
        for i in range(1_000):
            c = centres[i % 5]
            points.append(
                (i, tuple(np.clip(c + rng.normal(0, 0.03, 2), 0, 1)))
            )
        tree = KDTree(points)
        grid = GridIndex.build(points, cell_size=0.08)
        for _ in range(40):
            center = tuple(rng.uniform(size=2))
            radius = float(rng.uniform(0.01, 0.2))
            assert sorted(tree.query_radius(center, radius)) == sorted(
                grid.query_radius(center, radius)
            )


class TestHitOrder:
    def test_hits_follow_constructor_order_whatever_the_tree_shape(self):
        # The same points under shuffled ids and a grown point list
        # build differently shaped trees; each query still lists its
        # hits in the order the points were given, as a linear scan
        # (and a cold rebuild) would.
        rng = np.random.default_rng(9)
        xy = rng.uniform(size=(300, 2))
        ids = rng.permutation(1_000)[:300].tolist()
        points = [(ids[i], tuple(xy[i])) for i in range(300)]
        small, grown = KDTree(points[:200]), KDTree(points)
        for _ in range(30):
            center = tuple(rng.uniform(size=2))
            radius = float(rng.uniform(0.05, 0.4))
            scan = [
                item_id
                for item_id, p in points
                if squared_distance(p, center) <= radius * radius
            ]
            assert grown.query_radius(center, radius) == scan
            assert small.query_radius(center, radius) == [
                item_id for item_id in scan if ids.index(item_id) < 200
            ]
