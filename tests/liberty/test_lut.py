"""Bilinear interpolation (paper eqs. 2-4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LutError
from repro.liberty.lut import (
    bilinear_interpolate,
    bilinear_interpolate_many,
    bilinear_interpolate_paper,
)
from repro.core.restriction import pin_equivalent_sigma
from repro.liberty.model import Lut, Pin, PinDirection, TimingArc


def sigma_pin(a: Lut, b: Lut) -> Pin:
    """An output pin with one arc carrying ``a``/``b`` as rise/fall sigma."""
    pin = Pin(name="Z", direction=PinDirection.OUTPUT)
    pin.timing.append(TimingArc(related_pin="A", sigma_rise=a, sigma_fall=b))
    return pin


def make_lut(values=None, index_1=(0.1, 0.2, 0.4), index_2=(0.001, 0.002, 0.004)):
    if values is None:
        values = np.arange(9, dtype=float).reshape(3, 3)
    return Lut(index_1, index_2, values)


class TestExactness:
    def test_grid_points_are_exact(self):
        lut = make_lut()
        for i, slew in enumerate(lut.index_1):
            for j, load in enumerate(lut.index_2):
                assert bilinear_interpolate(lut, slew, load) == pytest.approx(
                    lut.values[i, j]
                )

    def test_midpoint_averages_cell_corners(self):
        lut = make_lut()
        slew = 0.5 * (lut.index_1[0] + lut.index_1[1])
        load = 0.5 * (lut.index_2[0] + lut.index_2[1])
        expected = lut.values[:2, :2].mean()
        assert bilinear_interpolate(lut, slew, load) == pytest.approx(expected)

    def test_linear_function_reproduced_exactly(self):
        # bilinear interpolation is exact for f = a*slew + b*load + c
        index_1 = np.array([0.1, 0.3, 0.9])
        index_2 = np.array([0.001, 0.005, 0.02])
        values = 2.0 * index_1[:, None] + 30.0 * index_2[None, :] + 0.5
        lut = Lut(index_1, index_2, values)
        for slew, load in [(0.2, 0.003), (0.77, 0.011), (0.1, 0.02)]:
            assert bilinear_interpolate(lut, slew, load) == pytest.approx(
                2.0 * slew + 30.0 * load + 0.5
            )


class TestClamping:
    def test_clamps_below_grid(self):
        lut = make_lut()
        assert bilinear_interpolate(lut, 0.0, 0.0) == pytest.approx(lut.values[0, 0])

    def test_clamps_above_grid(self):
        lut = make_lut()
        assert bilinear_interpolate(lut, 99.0, 99.0) == pytest.approx(lut.values[-1, -1])

    def test_clamps_one_axis_only(self):
        lut = make_lut()
        load = 0.002
        assert bilinear_interpolate(lut, 99.0, load) == pytest.approx(lut.values[-1, 1])


class TestPaperEquations:
    @given(
        slew=st.floats(0.1, 0.4),
        load=st.floats(0.001, 0.004),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_literal_paper_transcription(self, slew, load):
        lut = make_lut(values=np.array([[1.0, 4.0, 2.0], [3.0, 7.0, 5.0], [8.0, 6.0, 9.0]]))
        fast = bilinear_interpolate(lut, slew, load)
        literal = bilinear_interpolate_paper(lut, slew, load)
        assert fast == pytest.approx(literal, rel=1e-12, abs=1e-12)


class TestVectorized:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_for_random_queries(self, seed):
        rng = np.random.default_rng(seed)
        lut = make_lut(values=rng.random((3, 3)) * 5)
        slews = rng.uniform(0.0, 0.6, 17)
        loads = rng.uniform(0.0, 0.006, 17)
        many = bilinear_interpolate_many(lut, slews, loads)
        for k in range(17):
            assert many[k] == pytest.approx(
                bilinear_interpolate(lut, slews[k], loads[k]), rel=1e-12, abs=1e-12
            )

    def test_broadcasting_grid(self):
        lut = make_lut()
        out = bilinear_interpolate_many(
            lut, np.array([[0.1], [0.2]]), np.array([0.001, 0.002])
        )
        assert out.shape == (2, 2)

    def test_monotone_lut_gives_monotone_interpolation(self):
        lut = make_lut()  # arange: increasing in both axes
        low = bilinear_interpolate(lut, 0.15, 0.0015)
        high = bilinear_interpolate(lut, 0.3, 0.003)
        assert high > low


class TestLutValidation:
    def test_rejects_mismatched_shape(self):
        with pytest.raises(LutError):
            Lut((0.1, 0.2), (0.001, 0.002), [[1.0, 2.0]])

    def test_rejects_non_increasing_axis(self):
        with pytest.raises(LutError):
            Lut((0.2, 0.1), (0.001, 0.002), [[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_single_point_axis(self):
        with pytest.raises(LutError):
            Lut((0.1,), (0.001, 0.002), [[1.0, 2.0]])

    def test_elementwise_max(self):
        """The maximum-equivalent LUT of paper Sec. VI.B/VI.C, built by
        the tuning's one pin-equivalent builder."""
        a = make_lut(values=np.full((3, 3), 1.0))
        b = make_lut(values=np.arange(9, dtype=float).reshape(3, 3))
        combined = pin_equivalent_sigma(sigma_pin(a, b))
        assert combined.values[0, 0] == 1.0
        assert combined.values[2, 2] == 8.0

    def test_elementwise_max_rejects_mismatched_axes(self):
        a = make_lut()
        b = make_lut(index_1=(0.1, 0.2, 0.5))
        with pytest.raises(LutError):
            pin_equivalent_sigma(sigma_pin(a, b))
        c = Lut((0.1, 0.2), (0.001, 0.002), np.ones((2, 2)))
        with pytest.raises(LutError):
            pin_equivalent_sigma(sigma_pin(a, c))

    def test_with_values_keeps_axes_and_checks_shape(self):
        lut = make_lut()
        other = lut.with_values(np.ones((3, 3)))
        assert other.index_1 is lut.index_1 and other.index_2 is lut.index_2
        assert np.array_equal(other.values, np.ones((3, 3)))
        with pytest.raises(LutError):
            lut.with_values(np.ones((3, 2)))
