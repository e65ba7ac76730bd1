"""Unit and property tests for the uniform grid index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import euclidean
from repro.spatial.grid_index import GridIndex
from tests.conftest import within_seconds


class TestBasics:
    def test_rejects_non_positive_cell(self):
        with pytest.raises(ValueError):
            GridIndex(0.0)

    def test_insert_and_query(self):
        index = GridIndex(0.1)
        index.insert(1, (0.5, 0.5))
        index.insert(2, (0.9, 0.9))
        assert sorted(index.query_radius((0.5, 0.5), 0.2)) == [1]
        assert sorted(index.query_radius((0.7, 0.7), 0.5)) == [1, 2]

    def test_len_and_contains(self):
        index = GridIndex(0.1)
        index.insert(1, (0.0, 0.0))
        assert len(index) == 1
        assert 1 in index
        assert 2 not in index

    def test_reinsert_moves_point(self):
        index = GridIndex(0.1)
        index.insert(1, (0.0, 0.0))
        index.insert(1, (0.9, 0.9))
        assert len(index) == 1
        assert index.query_radius((0.0, 0.0), 0.1) == []
        assert index.query_radius((0.9, 0.9), 0.1) == [1]

    def test_remove(self):
        index = GridIndex(0.1)
        index.insert(1, (0.0, 0.0))
        index.remove(1)
        assert len(index) == 0
        with pytest.raises(KeyError):
            index.remove(1)

    def test_negative_radius_returns_empty(self):
        index = GridIndex(0.1)
        index.insert(1, (0.0, 0.0))
        assert index.query_radius((0.0, 0.0), -1.0) == []

    def test_boundary_inclusive(self):
        index = GridIndex(0.1)
        index.insert(1, (0.3, 0.0))
        assert index.query_radius((0.0, 0.0), 0.3) == [1]

    def test_negative_coordinates(self):
        index = GridIndex(0.1)
        index.insert(1, (-0.5, -0.5))
        assert index.query_radius((-0.5, -0.5), 0.05) == [1]

    def test_build_classmethod(self):
        index = GridIndex.build([(1, (0.1, 0.1)), (2, (0.2, 0.2))], 0.1)
        assert len(index) == 2
        assert index.location(1) == (0.1, 0.1)

    def test_items_iteration(self):
        index = GridIndex.build([(1, (0.1, 0.1))], 0.1)
        assert dict(index.items()) == {1: (0.1, 0.1)}


@st.composite
def point_clouds(draw):
    n = draw(st.integers(0, 60))
    coords = st.floats(-10.0, 10.0, allow_nan=False)
    pts = [
        (i, (draw(coords), draw(coords)))
        for i in range(n)
    ]
    center = (draw(coords), draw(coords))
    radius = draw(st.floats(0.0, 15.0, allow_nan=False))
    cell = draw(st.floats(0.05, 5.0, allow_nan=False))
    return pts, center, radius, cell


class TestWideQueries:
    """Radii far above the cell size (the 1e-6 fallback cell of an
    index built over no vendors) must cost the occupied cells, not
    (2r / cell)^2 empty ones."""

    def test_empty_index_answers_wide_query(self):
        index = GridIndex(1e-6)
        with within_seconds(5):
            assert index.query_radius((0.5, 0.5), 0.03) == []

    def test_sparse_fine_grid_matches_linear_scan_in_cell_order(self):
        rng = np.random.default_rng(3)
        points = {i: tuple(rng.random(2)) for i in range(40)}
        index = GridIndex.build(list(points.items()), 1e-6)
        center, radius = (0.5, 0.5), 0.3
        with within_seconds(5):
            got = index.query_radius(center, radius)
        expected = [
            i for i, p in points.items() if euclidean(p, center) <= radius
        ]
        assert got == sorted(expected, key=lambda i: index.cell_of(points[i]))


class TestAgainstBruteForce:
    @given(point_clouds())
    @settings(max_examples=120, deadline=None)
    def test_query_matches_linear_scan(self, cloud):
        pts, center, radius, cell = cloud
        index = GridIndex.build(pts, cell)
        expected = sorted(
            item_id for item_id, p in pts if euclidean(p, center) <= radius
        )
        observed = sorted(index.query_radius(center, radius))
        # Boundary points may differ by float rounding between hypot and
        # squared compare; re-check any symmetric difference strictly.
        for item_id in set(expected) ^ set(observed):
            p = dict(pts)[item_id]
            assert abs(euclidean(p, center) - radius) < 1e-9
        # Interior agreement must be exact.
        strict_expected = sorted(
            item_id for item_id, p in pts
            if euclidean(p, center) < radius - 1e-9
        )
        assert set(strict_expected) <= set(observed)


def test_large_uniform_cloud_query():
    rng = np.random.default_rng(0)
    pts = [(i, (float(x), float(y)))
           for i, (x, y) in enumerate(rng.uniform(size=(2000, 2)))]
    index = GridIndex.build(pts, 0.05)
    hits = index.query_radius((0.5, 0.5), 0.1)
    brute = [i for i, p in pts if euclidean(p, (0.5, 0.5)) <= 0.1]
    assert sorted(hits) == sorted(brute)
