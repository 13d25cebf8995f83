"""Power-targeted tuning (the Sec. III metric extension)."""

import pytest

from repro.cells.catalog import build_catalog
from repro.characterization.characterize import Characterizer
from repro.core.power_tuning import (
    compare_window_maps,
    pin_equivalent_power_sigma,
    power_sigma_windows,
    window_overlap,
)
from repro.core.restriction import SlewLoadWindow
from repro.core.tuner import LibraryTuner
from repro.errors import TuningError


def restrict_pin_power(library, cell, ceiling):
    """Energy-sigma window of a cell's Z pin under a library-wide ceiling."""
    return power_sigma_windows(library, ceiling)[(cell, "Z")]


@pytest.fixture(scope="module")
def power_library():
    specs = build_catalog(families=["INV", "ND2", "NR2", "ADDF"])
    return Characterizer(include_power=True).statistical_library(
        specs, n_samples=25, seed=11
    )


class TestPowerRestriction:
    def test_equivalent_is_max_over_arcs(self, power_library):
        import numpy as np

        pin = power_library.cell("ADDF_2").pin("S")
        equivalent = pin_equivalent_power_sigma(pin)
        stacked = np.stack(
            [t.values for arc in pin.timing for t in arc.power_sigma_tables()]
        )
        assert np.allclose(equivalent.values, stacked.max(axis=0))

    def test_huge_ceiling_keeps_everything(self, power_library):
        pin = power_library.cell("INV_1").pin("Z")
        window = restrict_pin_power(power_library, "INV_1", ceiling=1e9)
        equivalent = pin_equivalent_power_sigma(pin)
        assert window.max_slew == pytest.approx(float(equivalent.index_1[-1]))
        assert window.max_load == pytest.approx(float(equivalent.index_2[-1]))

    def test_tiny_ceiling_excludes(self, power_library):
        assert restrict_pin_power(power_library, "INV_8", ceiling=1e-12) is None

    def test_moderate_ceiling_cuts_slow_edges(self, power_library):
        """Energy sigma is driven by the short-circuit (slew) term, so
        the window caps the input slew first."""
        import numpy as np

        pin = power_library.cell("INV_1").pin("Z")
        equivalent = pin_equivalent_power_sigma(pin)
        ceiling = float(np.quantile(equivalent.values, 0.5))
        window = restrict_pin_power(power_library, "INV_1", ceiling)
        assert window is not None
        assert window.max_slew < float(equivalent.index_1[-1])

    def test_invalid_ceiling_rejected(self, power_library):
        with pytest.raises(TuningError):
            power_sigma_windows(power_library, 0.0)

    def test_delay_library_rejected(self, statistical_library):
        with pytest.raises(TuningError):
            pin_equivalent_power_sigma(statistical_library.cell("INV_1").pin("Z"))


class TestLibraryLevel:
    def test_windows_cover_all_pins(self, power_library):
        windows = power_sigma_windows(power_library, ceiling=1e-3)
        expected = {
            (cell.name, pin.name)
            for cell in power_library
            for pin in cell.output_pins()
        }
        assert set(windows) == expected

    def test_power_and_delay_tuning_cut_opposite_cells(self, power_library):
        """Delay sigma falls with drive strength (Pelgrom) while energy
        sigma *grows* with it (short-circuit current scales with
        width) — so a power ceiling restricts the strong variants the
        delay ceiling leaves untouched.  The two metrics genuinely
        disagree, which is why the paper's "other properties" extension
        is a different tuning, not a rerun."""
        import numpy as np

        delay = LibraryTuner(power_library).tune("sigma_ceiling", 0.03).windows
        sigmas = [
            pin_equivalent_power_sigma(cell.pin(pin)).values
            for cell in power_library
            for pin in (p.name for p in cell.output_pins())
        ]
        ceiling = float(np.quantile(np.stack(sigmas), 0.75))
        power = power_sigma_windows(power_library, ceiling)
        overlaps = compare_window_maps(delay, power)
        assert any(v < 0.999 for v in overlaps.values())  # not identical

        def usable_fraction(windows, cell_name):
            window = windows[(cell_name, "Z")]
            if window is None:
                return 0.0
            grid = pin_equivalent_power_sigma(power_library.cell(cell_name).pin("Z"))
            full = (float(grid.index_1[-1]) - float(grid.index_1[0])) * (
                float(grid.index_2[-1]) - float(grid.index_2[0])
            )
            area = (window.max_slew - window.min_slew) * (
                window.max_load - window.min_load
            )
            return area / full

        # power ceiling: strong inverter more restricted than weak
        assert usable_fraction(power, "INV_32") < usable_fraction(power, "INV_1")
        # delay ceiling: the other way around
        assert usable_fraction(delay, "INV_32") >= usable_fraction(delay, "INV_1")


class TestWindowOverlap:
    def test_identical_windows(self):
        window = SlewLoadWindow(0.0, 1.0, 0.0, 0.01)
        assert window_overlap(window, window) == pytest.approx(1.0)

    def test_disjoint_windows(self):
        a = SlewLoadWindow(0.0, 0.1, 0.0, 0.001)
        b = SlewLoadWindow(0.5, 1.0, 0.005, 0.01)
        assert window_overlap(a, b) == 0.0

    def test_nested_windows(self):
        outer = SlewLoadWindow(0.0, 1.0, 0.0, 0.01)
        inner = SlewLoadWindow(0.0, 0.5, 0.0, 0.005)
        assert window_overlap(outer, inner) == pytest.approx(0.25)

    def test_none_handling(self):
        window = SlewLoadWindow(0.0, 1.0, 0.0, 0.01)
        assert window_overlap(None, None) == 1.0
        assert window_overlap(window, None) == 0.0

    def test_mismatched_maps_rejected(self):
        with pytest.raises(TuningError):
            compare_window_maps({("A", "Z"): None}, {("B", "Z"): None})
