"""Largest-rectangle extraction (paper Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.rectangle import (
    Rectangle,
    largest_rectangle,
    largest_rectangle_paper,
    largest_rectangles,
)
from repro.errors import TuningError


class TestKnownCases:
    def test_all_ones(self):
        rect = largest_rectangle(np.ones((3, 4), dtype=bool))
        assert rect == Rectangle(0, 0, 2, 3)
        assert rect.area == 12

    def test_all_zeros_returns_none(self):
        assert largest_rectangle(np.zeros((3, 3), dtype=bool)) is None
        assert largest_rectangle_paper(np.zeros((3, 3), dtype=bool)) is None

    def test_single_one(self):
        matrix = np.zeros((3, 3), dtype=bool)
        matrix[1, 2] = True
        rect = largest_rectangle(matrix)
        assert rect == Rectangle(1, 2, 1, 2)
        assert rect.area == 1

    def test_l_shape_picks_larger_arm(self):
        matrix = np.array([
            [1, 1, 1, 1],
            [1, 1, 0, 0],
            [1, 1, 0, 0],
        ], dtype=bool)
        rect = largest_rectangle(matrix)
        assert rect.area == 6  # the 3x2 left block beats the 1x4 top row
        assert rect == Rectangle(0, 0, 2, 1)

    def test_origin_anchored_lut_shape(self):
        """Typical tuning shape: flat region near origin."""
        matrix = np.array([
            [1, 1, 1, 0],
            [1, 1, 1, 0],
            [1, 1, 0, 0],
            [0, 0, 0, 0],
        ], dtype=bool)
        rect = largest_rectangle(matrix)
        # ties between the 2x3 and 3x2 blocks resolve by scan order
        assert rect.area == 6
        assert rect == largest_rectangle_paper(matrix)
        assert rect.far_corner == (rect.row_hi, rect.col_hi)

    def test_tie_break_follows_paper_scan_order(self):
        # two disjoint 2x1 blocks; paper scan (ll_x outer) finds the
        # leftmost column first
        matrix = np.array([
            [1, 0, 1],
            [1, 0, 1],
        ], dtype=bool)
        rect = largest_rectangle(matrix)
        assert rect == Rectangle(0, 0, 1, 0)

    def test_contains(self):
        rect = Rectangle(1, 1, 2, 3)
        assert rect.contains(2, 2)
        assert not rect.contains(0, 1)
        assert not rect.contains(2, 4)

    def test_invalid_input_rejected(self):
        with pytest.raises(TuningError):
            largest_rectangle(np.zeros((0, 3), dtype=bool))
        with pytest.raises(TuningError):
            largest_rectangle(np.zeros(5, dtype=bool))
        with pytest.raises(TuningError):
            largest_rectangles(np.zeros((3, 3), dtype=bool))
        with pytest.raises(TuningError):
            largest_rectangles(np.zeros((2, 0, 3), dtype=bool))


class TestEquivalenceProperty:
    """The optimized version must match the literal Algorithm 1 on
    every matrix — including the scan-order tie-breaking."""

    @given(
        hnp.arrays(
            dtype=bool,
            shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_paper_algorithm(self, matrix):
        assert largest_rectangle(matrix) == largest_rectangle_paper(matrix)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_on_lut_like_binaries(self, seed):
        """Monotone threshold patterns, the shape tuning produces."""
        rng = np.random.default_rng(seed)
        sigma = np.add.outer(rng.random(7).cumsum(), rng.random(7).cumsum())
        matrix = sigma <= rng.uniform(sigma.min(), sigma.max())
        assert largest_rectangle(matrix) == largest_rectangle_paper(matrix)

    @given(
        hnp.arrays(dtype=bool, shape=st.tuples(st.integers(1, 6), st.integers(1, 6)))
    )
    @settings(max_examples=200, deadline=None)
    def test_result_is_all_ones_and_maximal(self, matrix):
        rect = largest_rectangle(matrix)
        if rect is None:
            assert not matrix.any()
            return
        block = matrix[rect.row_lo : rect.row_hi + 1, rect.col_lo : rect.col_hi + 1]
        assert block.all()
        # no all-ones rectangle can be strictly larger (brute force)
        best = largest_rectangle_paper(matrix)
        assert best is not None and best.area == rect.area
