"""Binary LUTs (paper Sec. VI.B).

"Both slew and load slope tables are converted to binary slew and load
tables, thresholded by an upper slope limit.  This means that all table
entries which are smaller than the slope threshold become a logic one
and the remaining a logic zero.  The contents of both binary load and
slew tables are combined by taking the logic 'and'."
"""

from __future__ import annotations

import numpy as np

from repro.errors import TuningError


def _check_luts(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim < 2:
        raise TuningError(
            f"binary LUTs are 2-D (or stacks of them), got shape {values.shape}"
        )
    return values


def binarize_below(values: np.ndarray, threshold) -> np.ndarray:
    """Logic one where ``values < threshold`` (strictly smaller).

    ``values`` is one LUT or a stack of LUTs; ``threshold`` a scalar or
    any array broadcasting against it (one bound per LUT of a stack).
    """
    return _check_luts(values) < threshold


def binarize_at_most(values: np.ndarray, threshold) -> np.ndarray:
    """Logic one where ``values <= threshold`` (shapes as
    :func:`binarize_below`).

    Used by the LUT-restriction stage, where the paper maps values
    "greater than the threshold" to logic zero — so an entry exactly at
    the threshold (e.g. the entry the threshold was read from) stays
    acceptable.
    """
    return _check_luts(values) <= threshold


def combine_and(*tables: np.ndarray) -> np.ndarray:
    """Logic AND of several binary tables (or stacks) of identical shape."""
    if not tables:
        raise TuningError("combine_and needs at least one table")
    result = np.asarray(tables[0], dtype=bool)
    for table in tables[1:]:
        table = np.asarray(table, dtype=bool)
        if table.shape != result.shape:
            raise TuningError(
                f"binary tables disagree on shape: {table.shape} vs {result.shape}"
            )
        result = result & table
    return result

