"""Monte-Carlo sampling determinism and statistics.

The characterizer's ``sample_arc_draws`` / ``sample_global_draws`` are
the one sampling path: each arc's draws are four rows (vth and relative
beta of the pull-up network, then of the pull-down network) of
``n_samples`` columns.
"""

import numpy as np
import pytest

from repro.cells.catalog import build_catalog
from repro.characterization.characterize import Characterizer
from repro.characterization.devices import network_geometry

CHARACTERIZER = Characterizer()
SPECS = {spec.name: spec for spec in build_catalog(families=["INV", "ND4"])}


def arc_draws(cell: str, n_samples: int, seed: int = 0) -> np.ndarray:
    """The (4, n_samples) draws of the cell's first arc."""
    spec = SPECS[cell]
    per_arc = CHARACTERIZER.sample_arc_draws([spec], n_samples, seed)[cell]
    return per_arc[spec.function.arcs()[0]]


def network_sigma_vth(cell: str, rise: bool) -> float:
    """Pelgrom vth sigma of the cell's pull-up (rise) or pull-down network."""
    spec = SPECS[cell]
    output_pin = spec.function.arcs()[0][1]
    geometry = network_geometry(CHARACTERIZER.tech, spec, spec.drive(output_pin), rise)
    return CHARACTERIZER.pelgrom.sigma_vth_stack(
        geometry.width, geometry.length, geometry.stack
    )


class TestDeterminism:
    def test_same_seed_same_stream(self):
        assert np.array_equal(arc_draws("INV_1", 5, seed=11), arc_draws("INV_1", 5, seed=11))

    def test_different_seeds_differ(self):
        assert not np.array_equal(arc_draws("INV_1", 5, seed=1), arc_draws("INV_1", 5, seed=2))

    def test_global_sampling_deterministic(self):
        a = CHARACTERIZER.sample_global_draws(5, seed=3)
        b = CHARACTERIZER.sample_global_draws(5, seed=3)
        assert np.array_equal(a.dvth, b.dvth) and np.array_equal(a.dbeta, b.dbeta)


class TestStatistics:
    def test_network_sigma_matches_pelgrom(self):
        draws = arc_draws("INV_1", 4000)
        for row, rise in ((0, True), (2, False)):
            expected = network_sigma_vth("INV_1", rise)
            assert draws[row].std() == pytest.approx(expected, rel=0.08)
            assert abs(draws[row].mean()) < expected * 0.1

    def test_stacked_network_has_lower_sigma(self):
        """ND4's four-device pull-down averages its mismatch (and is
        upsized): its fall-network vth spreads less than the inverter's."""
        flat = arc_draws("INV_1", 2000)[2]
        stacked = arc_draws("ND4_1", 2000)[2]
        assert stacked.std() < flat.std()
        assert stacked.std() == pytest.approx(network_sigma_vth("ND4_1", False), rel=0.1)

    def test_arc_variation_networks_independent(self):
        draws = arc_draws("INV_1", 3000, seed=5)
        assert abs(np.corrcoef(draws[0], draws[2])[0, 1]) < 0.08


class TestZeroVariations:
    def test_global_sigma_budget_used(self):
        draws = CHARACTERIZER.sample_global_draws(4000, seed=0)
        assert draws.dvth.std() == pytest.approx(
            CHARACTERIZER.global_sigmas.vth, rel=0.08
        )
