"""Tests for the weighted Pearson preference (Eq. 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utility.preference import (
    positive_preference,
    weighted_covariance,
    weighted_mean,
    weighted_pearson,
)


class TestWeightedMean:
    def test_uniform_weights_reduce_to_mean(self):
        v = np.array([1.0, 2.0, 3.0])
        w = np.ones(3)
        assert weighted_mean(v, w) == pytest.approx(2.0)

    def test_weights_shift_the_mean(self):
        v = np.array([0.0, 10.0])
        w = np.array([1.0, 3.0])
        assert weighted_mean(v, w) == pytest.approx(7.5)

    def test_zero_weight_sum_raises(self):
        with pytest.raises(ValueError):
            weighted_mean(np.array([1.0]), np.array([0.0]))


class TestWeightedCovariance:
    def test_self_covariance_is_variance(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.ones(4)
        assert weighted_covariance(v, v, w) == pytest.approx(np.var(v))

    def test_constant_vector_has_zero_variance(self):
        v = np.full(5, 3.0)
        w = np.ones(5)
        assert weighted_covariance(v, v, w) == pytest.approx(0.0)


class TestWeightedPearson:
    def test_perfect_positive_correlation(self):
        a = np.array([0.0, 1.0, 2.0])
        assert weighted_pearson(a, 2 * a + 1) == pytest.approx(1.0)

    def test_perfect_negative_correlation(self):
        a = np.array([0.0, 1.0, 2.0])
        assert weighted_pearson(a, -a) == pytest.approx(-1.0)

    def test_constant_vector_gives_zero(self):
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([0.0, 1.0, 2.0])
        assert weighted_pearson(a, b) == 0.0

    def test_matches_numpy_corrcoef_with_uniform_weights(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=20)
        b = rng.uniform(size=20)
        expected = np.corrcoef(a, b)[0, 1]
        assert weighted_pearson(a, b) == pytest.approx(expected, rel=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_pearson(np.zeros(3), np.zeros(4))

    def test_weights_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_pearson(np.zeros(3), np.zeros(3), np.ones(4))

    def test_zero_weight_entries_are_ignored(self):
        a = np.array([0.0, 1.0, 100.0])
        b = np.array([0.0, 1.0, -100.0])
        w = np.array([1.0, 1.0, 0.0])
        # With the third entry masked out the correlation is perfect.
        # Two points always correlate perfectly (or -1), so expect 1.
        assert weighted_pearson(a, b, w) == pytest.approx(1.0)

    @given(
        hnp.arrays(
            np.float64, 8, elements=st.floats(0, 1, allow_nan=False)
        ),
        hnp.arrays(
            np.float64, 8, elements=st.floats(0, 1, allow_nan=False)
        ),
        hnp.arrays(
            np.float64, 8, elements=st.floats(0.01, 1, allow_nan=False)
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_and_symmetric(self, a, b, w):
        r_ab = weighted_pearson(a, b, w)
        r_ba = weighted_pearson(b, a, w)
        assert -1.0 <= r_ab <= 1.0
        assert r_ab == pytest.approx(r_ba, abs=1e-9)

    @given(
        hnp.arrays(
            np.float64, 6, elements=st.floats(0, 1, allow_nan=False)
        ),
        hnp.arrays(
            np.float64, 6, elements=st.floats(0.01, 1, allow_nan=False)
        ),
        st.floats(0.1, 5.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_positive_affine_transform(
        self, a, w, scale, shift
    ):
        # Near-constant vectors sit at VARIANCE_EPS, where a rescale can
        # flip the "undefined correlation" cut-off and invariance is
        # false: keep the variance well clear of it at the smallest
        # scale (0.1, which multiplies the variance by 0.01).
        assume(weighted_covariance(a, a, w) * 0.1**2 >= 1e-6)
        b = np.linspace(0, 1, 6)
        before = weighted_pearson(a, b, w)
        after = weighted_pearson(a * scale + shift, b, w)
        assert before == pytest.approx(after, abs=1e-7)


class TestPositivePreference:
    def test_clips_negative_correlation(self):
        a = np.array([0.0, 1.0, 2.0])
        assert positive_preference(a, -a) == 0.0

    def test_preserves_positive_correlation(self):
        a = np.array([0.0, 1.0, 2.0])
        assert positive_preference(a, a) == pytest.approx(1.0)
