"""Validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_matrix,
    check_positive,
    check_probabilities,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0.0)

    def test_allow_zero(self):
        assert check_positive("x", 0.0, allow_zero=True) == 0.0
        with pytest.raises(ValueError, match=">= 0"):
            check_positive("x", -0.1, allow_zero=True)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", float("nan"))
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_positive("x", float("nan"), allow_zero=True)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("x", 0.0, 0.0, 1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0.0, 1.0\]"):
            check_in_range("x", 1.5, 0.0, 1.0)


class TestCheckMatrix:
    def test_accepts_finite_2d(self):
        out = check_matrix("m", [[1, 2], [3, 4]])
        assert out.dtype == float

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_matrix("m", np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_matrix("m", np.array([[np.nan, 1.0]]))

    def test_custom_ndim(self):
        assert check_matrix("m", np.zeros((2, 2, 2)), ndim=3).shape == (2, 2, 2)


class TestCheckProbabilities:
    def test_accepts_valid_rows(self):
        probs = np.array([[0.25, 0.75], [0.5, 0.5]])
        np.testing.assert_array_equal(check_probabilities("p", probs), probs)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            check_probabilities("p", np.array([[-0.1, 1.1]]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_probabilities("p", np.array([[0.4, 0.4]]))
