"""Property-based invariants of the tuning core (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binary_lut import binarize_at_most
from repro.core.rectangle import largest_rectangle
from repro.core.restriction import SlewLoadWindow, pin_equivalent_sigma
from repro.core.threshold import extract_slope_threshold
from repro.core.tuner import LibraryTuner


def _window_area(window):
    if window is None:
        return 0.0
    return (window.max_slew - window.min_slew) * (window.max_load - window.min_load)


class TestRestrictionMonotonicity:
    @given(
        quantiles=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
        cell=st.sampled_from(["INV_1", "INV_4", "ND2_2", "ADDF_2"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_looser_threshold_never_shrinks_usable_area(
        self, statistical_library, quantiles, cell
    ):
        """A higher sigma threshold accepts a superset of LUT entries,
        so the largest all-ones rectangle cannot cover *fewer entries*.

        Entry count is the monotone quantity — Algorithm 1 maximizes
        covered grid entries, and the characterization grid is
        non-uniform, so the *physical* (ns x pF) window area of a
        larger-count rectangle can legitimately be smaller.
        """
        pin = statistical_library.cell(cell).output_pins()[0]
        values = pin_equivalent_sigma(pin).values
        low_q, high_q = sorted(quantiles)
        t_low = float(np.quantile(values, low_q))
        t_high = float(np.quantile(values, high_q))
        if t_low <= 0 or t_low == t_high:
            return
        rect_low = largest_rectangle(binarize_at_most(values, t_low))
        rect_high = largest_rectangle(binarize_at_most(values, t_high))
        count_low = 0 if rect_low is None else rect_low.area
        count_high = 0 if rect_high is None else rect_high.area
        assert count_high >= count_low
        # The physical window still exists whenever any entry passes.
        if rect_low is not None:
            window = (
                LibraryTuner(statistical_library)
                .tune("sigma_ceiling", t_low)
                .window(cell, pin.name)
            )
            assert _window_area(window) >= 0.0

    @given(
        bounds=st.tuples(st.floats(0.001, 0.1), st.floats(0.001, 0.1)),
    )
    @settings(max_examples=30, deadline=None)
    def test_slope_threshold_monotone_in_load_bound(
        self, statistical_library, bounds
    ):
        """Loosening the load-slope bound can only keep or grow the flat
        region, so the extracted sigma threshold cannot decrease."""
        cells = [statistical_library.cell("INV_1")]
        tight, loose = sorted(bounds)
        t_tight, rect_tight = extract_slope_threshold(cells, tight, 0.06)
        t_loose, rect_loose = extract_slope_threshold(cells, loose, 0.06)
        assert rect_loose.area >= rect_tight.area

    @given(st.floats(0.0001, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_rectangle_contains_only_acceptable_entries(
        self, statistical_library, quantile_like
    ):
        pin = statistical_library.cell("ND2_1").pin("Z")
        equivalent = pin_equivalent_sigma(pin)
        threshold = float(equivalent.values.min()) + quantile_like * float(
            equivalent.values.max() - equivalent.values.min()
        )
        binary = binarize_at_most(equivalent.values, threshold)
        rect = largest_rectangle(binary)
        if rect is None:
            return
        block = equivalent.values[
            rect.row_lo : rect.row_hi + 1, rect.col_lo : rect.col_hi + 1
        ]
        assert np.all(block <= threshold + 1e-15)


class TestWindowSemantics:
    @given(
        max_slew=st.floats(0.01, 1.5),
        max_load=st.floats(0.001, 0.015),
    )
    @settings(max_examples=60, deadline=None)
    def test_corners_are_inside(self, max_slew, max_load):
        window = SlewLoadWindow(0.0, max_slew, 0.0, max_load)
        assert window.allows(0.0, 0.0)
        assert window.allows(max_slew, max_load)
        assert not window.allows(max_slew * 1.01 + 1e-9, max_load)
