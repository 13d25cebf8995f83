"""Binary LUT thresholding and combination (paper Sec. VI.B)."""

import numpy as np
import pytest

from repro.core.binary_lut import (
    binarize_at_most,
    binarize_below,
    combine_and,
)
from repro.errors import TuningError


VALUES = np.array([[0.0, 0.5], [1.0, 2.0]])


class TestBinarize:
    def test_strictly_below(self):
        binary = binarize_below(VALUES, 1.0)
        assert binary.tolist() == [[True, True], [False, False]]

    def test_at_most_includes_equal(self):
        binary = binarize_at_most(VALUES, 1.0)
        assert binary.tolist() == [[True, True], [True, False]]

    def test_stack_with_one_threshold_per_lut(self):
        stack = np.stack([VALUES, VALUES])
        binary = binarize_at_most(stack, np.array([1.0, 0.0])[:, None, None])
        assert binary.tolist() == [
            [[True, True], [True, False]],
            [[True, False], [False, False]],
        ]

    def test_non_2d_rejected(self):
        with pytest.raises(TuningError):
            binarize_below(np.zeros(3), 1.0)
        with pytest.raises(TuningError):
            binarize_at_most(np.zeros(3), 1.0)


class TestCombine:
    def test_logic_and(self):
        a = np.array([[True, True], [False, True]])
        b = np.array([[True, False], [True, True]])
        assert combine_and(a, b).tolist() == [[True, False], [False, True]]

    def test_three_way(self):
        a = np.ones((2, 2), dtype=bool)
        b = np.eye(2, dtype=bool)
        c = np.ones((2, 2), dtype=bool)
        assert np.array_equal(combine_and(a, b, c), np.eye(2, dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TuningError):
            combine_and(np.ones((2, 2), dtype=bool), np.ones((3, 2), dtype=bool))

    def test_empty_rejected(self):
        with pytest.raises(TuningError):
            combine_and()

