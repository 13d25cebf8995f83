"""Per-pin LUT restriction (paper Sec. VI.C)."""

import numpy as np
import pytest

from repro.core.restriction import PinSigma, SlewLoadWindow, pin_equivalent_sigma
from repro.core.tuner import LibraryTuner
from repro.errors import TuningError
from repro.liberty.model import Lut, Pin, PinDirection, TimingArc


@pytest.fixture(scope="module")
def tuner(statistical_library):
    return LibraryTuner(statistical_library)


def restrict(tuner, cell, pin, threshold):
    """Window of one pin at a sigma threshold: the sigma-ceiling method
    uses its parameter as every pin's threshold."""
    return tuner.tune("sigma_ceiling", threshold).window(cell, pin)


def full_window(lut: Lut) -> SlewLoadWindow:
    """The unrestricted window covering the whole characterized grid."""
    return SlewLoadWindow(
        min_slew=float(lut.index_1[0]),
        max_slew=float(lut.index_1[-1]),
        min_load=float(lut.index_2[0]),
        max_load=float(lut.index_2[-1]),
    )


def sigma_pin(lut: Lut, name: str = "Z") -> Pin:
    """An output pin with one arc carrying ``lut`` as its sigma table."""
    pin = Pin(name=name, direction=PinDirection.OUTPUT)
    pin.timing.append(TimingArc(related_pin="A", sigma_rise=lut))
    return pin


def grid_lut(values=None, index_1=(0.1, 0.2, 0.4), index_2=(0.001, 0.002, 0.004)):
    if values is None:
        values = np.arange(9, dtype=float).reshape(3, 3)
    return Lut(index_1, index_2, values)


class TestSlewLoadWindow:
    def test_allows_inside(self):
        window = SlewLoadWindow(0.01, 0.5, 0.001, 0.01)
        assert window.allows(0.1, 0.005)

    def test_rejects_outside(self):
        window = SlewLoadWindow(0.01, 0.5, 0.001, 0.01)
        assert not window.allows(0.6, 0.005)   # slew too high
        assert not window.allows(0.1, 0.02)    # load too high
        assert not window.allows(0.001, 0.005)  # slew below minimum

    def test_boundary_tolerance(self):
        window = SlewLoadWindow(0.01, 0.5, 0.001, 0.01)
        assert window.allows(0.5 + 1e-12, 0.01)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(TuningError):
            SlewLoadWindow(0.5, 0.01, 0.001, 0.01)


class TestPinRestriction:
    def test_huge_threshold_keeps_full_grid(self, statistical_library, tuner):
        pin = statistical_library.cell("INV_1").pin("Z")
        window = restrict(tuner, "INV_1", "Z", threshold=100.0)
        equivalent = pin_equivalent_sigma(pin)
        assert window == full_window(equivalent)

    def test_threshold_at_max_keeps_full_grid(self, statistical_library, tuner):
        """Values equal to the threshold stay acceptable (Sec. VI.C)."""
        pin = statistical_library.cell("INV_1").pin("Z")
        equivalent = pin_equivalent_sigma(pin)
        window = restrict(tuner, "INV_1", "Z", float(equivalent.values.max()))
        assert window == full_window(equivalent)

    def test_tiny_threshold_removes_pin(self, tuner):
        assert restrict(tuner, "INV_1", "Z", threshold=1e-9) is None

    def test_moderate_threshold_shrinks_window(self, statistical_library, tuner):
        pin = statistical_library.cell("INV_1").pin("Z")
        equivalent = pin_equivalent_sigma(pin)
        mid = float(np.median(equivalent.values))
        window = restrict(tuner, "INV_1", "Z", threshold=mid)
        full = full_window(equivalent)
        assert window is not None
        assert (
            window.max_load < full.max_load or window.max_slew < full.max_slew
        )

    def test_window_region_sigma_within_threshold(self, statistical_library, tuner):
        """Everything inside the returned window is acceptable."""
        pin = statistical_library.cell("ND2_1").pin("Z")
        equivalent = pin_equivalent_sigma(pin)
        threshold = float(np.quantile(equivalent.values, 0.6))
        window = restrict(tuner, "ND2_1", "Z", threshold)
        assert window is not None
        rows = (equivalent.index_1 >= window.min_slew) & (
            equivalent.index_1 <= window.max_slew
        )
        cols = (equivalent.index_2 >= window.min_load) & (
            equivalent.index_2 <= window.max_load
        )
        assert np.all(equivalent.values[np.ix_(rows, cols)] <= threshold + 1e-12)

    def test_high_drive_needs_no_restriction_at_moderate_threshold(
        self, statistical_library, tuner
    ):
        """Paper Fig. 4: strong cells stay fully usable where weak ones
        get cut — the selectivity tuning exploits."""
        strong_pin = statistical_library.cell("INV_8").pin("Z")
        threshold = float(pin_equivalent_sigma(strong_pin).values.max())
        strong = restrict(tuner, "INV_8", "Z", threshold)
        weak = restrict(tuner, "INV_1", "Z", threshold)
        weak_full = full_window(
            pin_equivalent_sigma(statistical_library.cell("INV_1").pin("Z"))
        )
        assert strong == full_window(pin_equivalent_sigma(strong_pin))
        assert weak is None or (
            weak.max_load < weak_full.max_load or weak.max_slew < weak_full.max_slew
        )

    def test_invalid_threshold_rejected(self, tuner):
        with pytest.raises(TuningError):
            tuner.tune("sigma_ceiling", 0.0)
        with pytest.raises(TuningError):
            tuner.sigma.windows(np.zeros(len(tuner.pin_keys)))

    def test_nominal_pin_rejected(self, nominal_library):
        with pytest.raises(TuningError):
            pin_equivalent_sigma(nominal_library.cell("INV_1").pin("Z"))


class TestCellRestriction:
    def test_all_output_pins_windowed(self, tuner):
        windows = tuner.tune("sigma_ceiling", 100.0).windows
        assert {pin for cell, pin in windows if cell == "ADDF_2"} == {"S", "CO"}

    def test_worst_case_across_arcs(self, statistical_library):
        """The pin equivalent must take the max over every arc's sigma
        tables (Sec. VI.C: "the worst case situation")."""
        pin = statistical_library.cell("ADDF_2").pin("S")
        equivalent = pin_equivalent_sigma(pin)
        stacked = np.stack(
            [t.values for arc in pin.timing for t in arc.sigma_tables()]
        )
        assert np.allclose(equivalent.values, stacked.max(axis=0))


class TestPinSigma:
    def test_rows_match_per_pin_equivalents(self, statistical_library, tuner):
        """The library stack holds, row by row, each pin's exact maximum
        over its own tables, on its first table's axes."""
        for row, (cell, pin) in enumerate(tuner.pin_keys):
            tables = [
                t
                for arc in statistical_library.cell(cell).pin(pin).timing
                for t in arc.sigma_tables()
            ]
            lut = tuner.sigma.lut(row)
            assert np.array_equal(lut.values, np.stack([t.values for t in tables]).max(0))
            assert np.array_equal(lut.index_1, tables[0].index_1)
            assert np.array_equal(lut.index_2, tables[0].index_2)

    def test_grid_shapes_stack_apart(self):
        small = sigma_pin(grid_lut(), name="P")
        large = sigma_pin(
            Lut((0.1, 0.2), (0.001, 0.002, 0.004, 0.008), np.ones((2, 4))), name="Q"
        )
        sigma = PinSigma([small, large, small])
        assert [stack.values.shape for stack in sigma.stacks] == [(2, 3, 3), (1, 2, 4)]
        assert sigma.lut(1).shape == (2, 4)
        windows = sigma.windows(np.array([4.0, 1.0, 100.0]))
        assert windows[0] == SlewLoadWindow(0.1, 0.2, 0.001, 0.002)
        assert windows[1] == SlewLoadWindow(0.1, 0.2, 0.001, 0.008)
        assert windows[2] == full_window(grid_lut())
        with pytest.raises(TuningError):
            sigma.cluster_max([np.array([0, 1])])


class TestWindowFromRectangle:
    def test_maps_indices_to_axes(self):
        """Step 4: the rectangle's index corners become the window's
        slew/load bounds on the pin's own axes."""
        values = np.ones((4, 5))
        values[:3, :4] = 0.0  # the acceptable block: rows 0-2, cols 0-3
        lut = Lut((0.1, 0.2, 0.4, 0.8), (0.001, 0.002, 0.004, 0.008, 0.016), values)
        (window,) = PinSigma([sigma_pin(lut)]).windows(np.array([0.5]))
        assert window.min_slew == lut.index_1[0]
        assert window.max_slew == lut.index_1[2]
        assert window.min_load == lut.index_2[0]
        assert window.max_load == lut.index_2[3]
