"""Slope tables (paper eqs. 12-13)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from repro.core.slope import (
    load_slope_table,
    slew_slope_table,
)
from repro.errors import TuningError


VALUES = np.array([
    [1.0, 2.0, 4.0],
    [2.0, 3.0, 6.0],
    [5.0, 5.0, 9.0],
])


class TestEquations:
    def test_slew_slope_is_row_difference(self):
        slope = slew_slope_table(VALUES)
        assert np.allclose(slope[1], VALUES[1] - VALUES[0])
        assert np.allclose(slope[2], VALUES[2] - VALUES[1])

    def test_load_slope_is_column_difference(self):
        slope = load_slope_table(VALUES)
        assert np.allclose(slope[:, 1], VALUES[:, 1] - VALUES[:, 0])
        assert np.allclose(slope[:, 2], VALUES[:, 2] - VALUES[:, 1])

    def test_first_row_and_column_zero_filled(self):
        """Paper: "the first row or column ... is filled with zeros"."""
        assert np.all(slew_slope_table(VALUES)[0] == 0)
        assert np.all(load_slope_table(VALUES)[:, 0] == 0)

    def test_constant_lut_has_zero_slopes(self):
        flat = np.full((4, 5), 3.3)
        assert np.all(slew_slope_table(flat) == 0)
        assert np.all(load_slope_table(flat) == 0)

    @given(hnp.arrays(np.float64, (5, 6), elements=st.floats(0, 10)))
    @settings(max_examples=60, deadline=None)
    def test_slopes_reconstruct_table(self, values):
        """Cumulative-summing the slope tables recovers the LUT."""
        slew = slew_slope_table(values)
        recovered = values[0] + slew.cumsum(axis=0) - slew[0]
        assert np.allclose(recovered, values)

    def test_non_2d_rejected(self):
        with pytest.raises(TuningError):
            slew_slope_table(np.zeros(4))

    def test_stack_is_per_lut(self):
        stack = np.stack([VALUES, 2 * VALUES, VALUES[::-1]])
        for table in (slew_slope_table, load_slope_table):
            assert np.array_equal(table(stack), np.stack([table(v) for v in stack]))
