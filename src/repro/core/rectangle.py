"""Largest-rectangle extraction (paper Algorithm 1).

Given a binary LUT, find the largest all-ones axis-aligned rectangle,
preferring — among equal areas — the one "starting as close as
possible to the origin".  The paper's pseudo-code scans lower-left
corners (``ll_x`` outer, then ``ll_y``) and upper-right corners
(``ur_x``, then ``ur_y``) and replaces the best only on *strictly*
larger area, so the tie-break is the scan order itself.  Two
implementations preserve that order exactly:

* :func:`largest_rectangle_paper` — the literal quadruple loop with an
  explicit all-ones check (O(N^3 M^3)); kept as executable
  specification;
* :func:`largest_rectangles` — the one search every tuning stage runs:
  a whole stack of binary LUTs is scored against every candidate
  rectangle of the grid shape (listed once, in scan order) with one
  summed-area gather, and each LUT keeps its first maximal candidate.
  :func:`largest_rectangle` is its one-matrix call.  Property tests
  hold both to the literal loop.

Conventions: the matrix is indexed ``[row, col]`` = ``[slew, load]``;
in the paper's MATLAB code ``x`` is the column (load) index and ``y``
the row (slew) index.  Returned coordinates are 0-based and inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.errors import TuningError


@dataclass(frozen=True)
class Rectangle:
    """An inclusive rectangle of LUT entries."""

    row_lo: int
    col_lo: int
    row_hi: int
    col_hi: int

    @property
    def area(self) -> int:
        """Number of entries covered."""
        return (self.row_hi - self.row_lo + 1) * (self.col_hi - self.col_lo + 1)

    @property
    def far_corner(self) -> tuple:
        """The (row, col) furthest from the origin — where the sigma
        threshold is read (paper Fig. 6, marked entry)."""
        return (self.row_hi, self.col_hi)

    def contains(self, row: int, col: int) -> bool:
        """True when (row, col) lies inside the rectangle."""
        return self.row_lo <= row <= self.row_hi and self.col_lo <= col <= self.col_hi


def _check_binary(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=bool)
    if matrix.ndim != 2 or matrix.size == 0:
        raise TuningError(f"binary LUT must be a non-empty 2-D matrix, got {matrix.shape}")
    return matrix


def largest_rectangle_paper(matrix: np.ndarray) -> Optional[Rectangle]:
    """Literal Algorithm 1 (executable specification, O(N^3 M^3)).

    Returns ``None`` when the matrix contains no ones (the paper's code
    returns all-zero coordinates with ``best_area = 0``).
    """
    matrix = _check_binary(matrix)
    n_rows, n_cols = matrix.shape
    best_area = 0
    best: Optional[Rectangle] = None
    for ll_x in range(n_cols):           # paper: for ll_x = 1:N
        for ll_y in range(n_rows):       # paper: for ll_y = 1:M
            for ur_x in range(ll_x, n_cols):
                for ur_y in range(ll_y, n_rows):
                    area = (ur_x - ll_x + 1) * (ur_y - ll_y + 1)
                    if area > best_area and matrix[ll_y : ur_y + 1, ll_x : ur_x + 1].all():
                        best_area = area
                        best = Rectangle(row_lo=ll_y, col_lo=ll_x, row_hi=ur_y, col_hi=ur_x)
    return best


@lru_cache(maxsize=None)
def _candidates(n_rows: int, n_cols: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every rectangle of an ``(n_rows, n_cols)`` grid, in Algorithm 1's
    scan order (``ll_x``, ``ll_y``, ``ur_x``, ``ur_y``).

    Returns the ``(K, 4)`` corners ``row_lo, col_lo, row_hi, col_hi``,
    the ``(K,)`` areas and the ``(4, K)`` flat positions, in the
    ``(n_rows + 1, n_cols + 1)`` summed-area table, of the four terms
    that count a candidate's ones.
    """
    rows, cols = np.arange(n_rows), np.arange(n_cols)
    ll_x, ll_y, ur_x, ur_y = (
        axis.ravel() for axis in np.meshgrid(cols, rows, cols, rows, indexing="ij")
    )
    keep = (ur_x >= ll_x) & (ur_y >= ll_y)
    row_lo, col_lo, row_hi, col_hi = ll_y[keep], ll_x[keep], ur_y[keep], ur_x[keep]
    corners = np.stack([row_lo, col_lo, row_hi, col_hi], axis=1)
    # The narrowest unsigned type that holds every count of ones.
    areas = ((row_hi - row_lo + 1) * (col_hi - col_lo + 1)).astype(
        np.min_scalar_type(n_rows * n_cols)
    )
    width = n_cols + 1
    terms = np.stack([
        (row_hi + 1) * width + col_hi + 1,
        row_lo * width + col_hi + 1,
        (row_hi + 1) * width + col_lo,
        row_lo * width + col_lo,
    ])
    for array in (corners, areas, terms):
        array.flags.writeable = False
    return corners, areas, terms


def largest_rectangles(binary: np.ndarray) -> np.ndarray:
    """Algorithm 1 on a ``(n, R, C)`` stack of binary LUTs at once.

    Returns an ``(n, 4)`` integer array of inclusive ``row_lo, col_lo,
    row_hi, col_hi`` per LUT, ``-1`` throughout for a LUT with no ones.
    Each LUT's ones are counted in every candidate rectangle through
    its summed-area table; the first candidate (in scan order) whose
    count equals its area and whose area is maximal wins, which is the
    literal loop's strict-``>`` replacement rule.  The gather holds
    ``n * K`` counts, ``K`` = 784 candidates on the 7x7 library grid.
    """
    binary = np.asarray(binary, dtype=bool)
    if binary.ndim != 3 or binary.shape[1] == 0 or binary.shape[2] == 0:
        raise TuningError(
            f"binary LUT stack must be (n, rows, cols) with non-empty LUTs, "
            f"got {binary.shape}"
        )
    n, n_rows, n_cols = binary.shape
    corners, areas, terms = _candidates(n_rows, n_cols)
    # Counts never exceed n_rows * n_cols, so unsigned wrap-around in
    # the four-term sum below cancels out exactly.
    dtype = areas.dtype
    summed = np.zeros((n, n_rows + 1, n_cols + 1), dtype=dtype)
    summed[:, 1:, 1:] = binary.cumsum(axis=1, dtype=dtype).cumsum(axis=2, dtype=dtype)
    summed = summed.reshape(n, (n_rows + 1) * (n_cols + 1))
    ones = summed[:, terms[0]] - summed[:, terms[1]] - summed[:, terms[2]] + summed[:, terms[3]]
    scores = np.where(ones == areas, areas, 0)
    best = scores.argmax(axis=1)
    result = corners[best]
    result[scores[np.arange(n), best] == 0] = -1
    return result


def largest_rectangle(matrix: np.ndarray) -> Optional[Rectangle]:
    """:func:`largest_rectangles` on one matrix, as a :class:`Rectangle`
    (``None`` when the matrix has no ones)."""
    row_lo, col_lo, row_hi, col_hi = largest_rectangles(_check_binary(matrix)[None])[0]
    if row_lo < 0:
        return None
    return Rectangle(int(row_lo), int(col_lo), int(row_hi), int(col_hi))
