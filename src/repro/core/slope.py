"""Slope tables of a sigma LUT (paper eqs. 12-13).

The paper differentiates the maximum-equivalent sigma LUT along the
slew and the load axes *in index space*::

    slew(i, j) = (Q(i, j) - Q(i-1, j)) / delta_i        (eq. 12)
    load(i, j) = (Q(i, j) - Q(i, j-1)) / delta_j        (eq. 13)

with ``delta_i = delta_j = 1`` (the indexes step by one), so the slope
is simply the forward difference between adjacent entries.  "Because
the indexes start at greater than one, the first row or column of the
slew and load slope tables is filled with zeros."

Index-space (rather than physical-unit) slopes make the bounds of
Table 2 (1, 0.05, 0.03, 0.01) dimensionally sigma-per-grid-step, which
is how we interpret and reproduce them.  Both functions take one LUT
or a stack of them (the last two axes are slew and load).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TuningError


def _check_values(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim < 2:
        raise TuningError(
            f"slope tables need a 2-D LUT (or a stack), got shape {values.shape}"
        )
    return values


def slew_slope_table(values: np.ndarray) -> np.ndarray:
    """Eq. 12: forward difference along the slew axis (rows).

    Row 0 is zero-filled, matching the paper's convention.
    """
    values = _check_values(values)
    slope = np.zeros_like(values)
    slope[..., 1:, :] = values[..., 1:, :] - values[..., :-1, :]
    return slope


def load_slope_table(values: np.ndarray) -> np.ndarray:
    """Eq. 13: forward difference along the load axis (columns).

    Column 0 is zero-filled, matching the paper's convention.
    """
    values = _check_values(values)
    slope = np.zeros_like(values)
    slope[..., 1:] = values[..., 1:] - values[..., :-1]
    return slope

