"""Property-based invariants of largest-rectangle extraction.

Paper Algorithm 1 contract: the returned rectangle is contained in the
binary LUT (all ones), has maximal area (cross-checked against the
literal quadruple-loop specification), and therefore cannot be grown
in any direction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.rectangle import (
    Rectangle,
    largest_rectangle,
    largest_rectangle_paper,
    largest_rectangles,
)

#: Random binary matrices big enough to be interesting, small enough
#: for the O(N^3 M^3) reference implementation.
MATRICES = arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    elements=st.booleans(),
)

#: Stacks of random binary LUTs sharing one grid shape.
STACKS = st.tuples(
    st.integers(1, 6), st.integers(1, 7), st.integers(1, 7)
).flatmap(lambda shape: arrays(dtype=bool, shape=shape, elements=st.booleans()))

#: Larger matrices for the optimized implementation's own invariants.
LARGE_MATRICES = arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 14), st.integers(1, 14)),
    elements=st.booleans(),
)


class TestContainment:
    @given(matrix=LARGE_MATRICES)
    @settings(max_examples=200, deadline=None)
    def test_rectangle_is_contained_in_the_binary_lut(self, matrix):
        """Every entry inside the returned rectangle is a one."""
        rect = largest_rectangle(matrix)
        if rect is None:
            assert not matrix.any()
            return
        block = matrix[rect.row_lo : rect.row_hi + 1, rect.col_lo : rect.col_hi + 1]
        assert block.all()
        assert block.size == rect.area

    @given(matrix=LARGE_MATRICES)
    @settings(max_examples=200, deadline=None)
    def test_rectangle_cannot_be_extended(self, matrix):
        """Maximality: growing one step in any direction either leaves
        the matrix or covers a zero."""
        rect = largest_rectangle(matrix)
        if rect is None:
            return
        n_rows, n_cols = matrix.shape
        if rect.row_lo > 0:
            assert not matrix[
                rect.row_lo - 1, rect.col_lo : rect.col_hi + 1
            ].all()
        if rect.row_hi < n_rows - 1:
            assert not matrix[
                rect.row_hi + 1, rect.col_lo : rect.col_hi + 1
            ].all()
        if rect.col_lo > 0:
            assert not matrix[
                rect.row_lo : rect.row_hi + 1, rect.col_lo - 1
            ].all()
        if rect.col_hi < n_cols - 1:
            assert not matrix[
                rect.row_lo : rect.row_hi + 1, rect.col_hi + 1
            ].all()


class TestAgainstPaperSpecification:
    @given(matrix=MATRICES)
    @settings(max_examples=150, deadline=None)
    def test_matches_literal_algorithm_including_tie_break(self, matrix):
        """The summed-area-table version returns the *same* rectangle
        as the paper's quadruple loop — same area, same corner, which
        pins the origin-preferring tie-break."""
        fast = largest_rectangle(matrix)
        reference = largest_rectangle_paper(matrix)
        assert fast == reference

    @given(matrix=MATRICES)
    @settings(max_examples=100, deadline=None)
    def test_area_is_globally_maximal(self, matrix):
        """No all-ones rectangle anywhere in the matrix beats the
        returned area (brute-force check)."""
        rect = largest_rectangle(matrix)
        best = 0
        n_rows, n_cols = matrix.shape
        for row_lo in range(n_rows):
            for col_lo in range(n_cols):
                for row_hi in range(row_lo, n_rows):
                    for col_hi in range(col_lo, n_cols):
                        if matrix[row_lo : row_hi + 1, col_lo : col_hi + 1].all():
                            best = max(
                                best,
                                (row_hi - row_lo + 1) * (col_hi - col_lo + 1),
                            )
        assert (rect.area if rect else 0) == best


def batched(stack: np.ndarray) -> list:
    """:func:`largest_rectangles` rows as ``Rectangle``/``None``."""
    return [
        None if row[0] < 0 else Rectangle(*(int(v) for v in row))
        for row in largest_rectangles(stack)
    ]


def literal(stack: np.ndarray) -> list:
    return [largest_rectangle_paper(matrix) for matrix in stack]


def monotone_binaries(rng, count: int, n_rows: int, n_cols: int) -> np.ndarray:
    """Threshold patterns of increasing sigma surfaces, the shape
    tuning produces."""
    out = []
    for _ in range(count):
        sigma = np.add.outer(rng.random(n_rows).cumsum(), rng.random(n_cols).cumsum())
        out.append(sigma <= rng.uniform(sigma.min(), sigma.max()))
    return np.stack(out)


class TestBatchedSearch:
    """One ``largest_rectangles`` call over a stack equals the literal
    Algorithm 1 on each member, scan-order tie-break included."""

    @given(stack=STACKS)
    @settings(max_examples=200, deadline=None)
    def test_random_stacks_match_literal_algorithm(self, stack):
        assert batched(stack) == literal(stack)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_lut_shaped_stacks_match_literal_algorithm(self, seed, n_rows, n_cols):
        stack = monotone_binaries(np.random.default_rng(seed), 8, n_rows, n_cols)
        assert batched(stack) == literal(stack)

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1), (7, 7)])
    def test_edge_shapes_all_zero_all_one_and_random(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = np.concatenate([
            np.zeros((1,) + shape, dtype=bool),
            np.ones((1,) + shape, dtype=bool),
            rng.random((40,) + shape) < 0.6,
            monotone_binaries(rng, 20, *shape),
        ])
        result = largest_rectangles(stack)
        assert result.shape == (len(stack), 4)
        assert (result[0] == -1).all()
        assert batched(stack[1:2]) == [Rectangle(0, 0, shape[0] - 1, shape[1] - 1)]
        assert batched(stack) == literal(stack)

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_tied_areas_break_in_scan_order(self, height, width, corners):
        """Several equal-sized blocks: the first one in the paper's scan
        order must win, exactly as in the literal loop."""
        matrix = np.zeros((7, 7), dtype=bool)
        for row, col in corners:
            matrix[row : row + height, col : col + width] = True
        stack = np.stack([matrix, matrix.T, matrix[::-1], matrix[:, ::-1]])
        assert batched(stack) == literal(stack)

    def test_empty_stack(self):
        assert largest_rectangles(np.zeros((0, 3, 4), dtype=bool)).shape == (0, 4)

