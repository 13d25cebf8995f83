"""Batched kernels vs the scalar reference: bit-identity across the pipeline.

The contract of :mod:`repro.kernels`: the batched production kernels
and the scalar references are two schedules of the *same* IEEE-754
operations — every statistical LUT, every per-sample library, every
STA array and every design statistic must match bit-for-bit, across
worker counts and seeds.  Each reference leg runs the production code
with the references substituted at the call sites
(:func:`~tests.kernels.reference.reference_kernels`).
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.characterization.characterize import Characterizer, GlobalDraws
from repro.characterization.grids import GridConfig
from repro.sta.engine import analyze
from repro.sta.graph import TimingGraph
from repro.sta.paths import extract_worst_paths
from repro.sta.statistics import design_statistics, path_statistics, step_sigma
from tests.kernels.reference import reference_kernels
from tests.parallel.test_equivalence import assert_libraries_bit_identical

#: Interpolation needs >= 2 points per axis; 3x3 keeps interior points.
SMALL_GRID = GridConfig(n_slew=3, n_load=3)


def _both(run):
    """``run()`` on the batched kernels, then on the references."""
    batched = run()
    with reference_kernels():
        return batched, run()


class TestCharacterizationEquivalence:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_statistical_library_bit_identical(
        self, small_specs, seed, n_workers
    ):
        specs = small_specs[:8]
        characterizer = Characterizer(grid=SMALL_GRID)
        batched, reference = _both(
            lambda: characterizer.statistical_library(
                specs, n_samples=6, seed=seed, n_workers=n_workers
            )
        )
        assert_libraries_bit_identical(reference, batched)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_sample_libraries_bit_identical(self, small_specs, seed, n_workers):
        """The per-sample path also ships die-level (global) draws —
        the batched kernel must add them before lifting to 3-D."""
        specs = small_specs[:6]
        characterizer = Characterizer(grid=SMALL_GRID)
        batched, reference = _both(
            lambda: characterizer.sample_libraries(
                specs, n_samples=5, seed=seed, include_global=True,
                n_workers=n_workers,
            )
        )
        assert len(reference) == len(batched) == 5
        for lib_reference, lib_batched in zip(reference, batched):
            assert lib_reference.name == lib_batched.name
            assert_libraries_bit_identical(lib_reference, lib_batched)

    def test_power_tables_bit_identical(self, small_specs):
        specs = small_specs[:5]
        characterizer = Characterizer(grid=SMALL_GRID, include_power=True)
        batched, reference = _both(
            lambda: characterizer.statistical_library(specs, n_samples=5, seed=2)
        )
        arc = reference.cell(specs[0].name).output_pins()[0].timing[0]
        assert arc.power_rise is not None and arc.sigma_power_rise is not None
        assert_libraries_bit_identical(reference, batched)

        batched, reference = _both(
            lambda: characterizer.sample_libraries(specs, n_samples=4, seed=2)
        )
        for lib_a, lib_b in zip(reference, batched):
            assert_libraries_bit_identical(lib_a, lib_b)

    def test_every_paper_cell_spec_bit_identical(self, full_specs, coarse_grid):
        """The full Appendix A catalog at the coarsest legal grid and
        minimum sample count — every topology class the surrogate
        distinguishes goes through both implementations."""
        characterizer = Characterizer(grid=coarse_grid)
        batched, reference = _both(
            lambda: characterizer.statistical_library(full_specs, n_samples=2, seed=1)
        )
        assert len(reference) == len(full_specs)
        assert_libraries_bit_identical(reference, batched)

    def test_cell_samples_equal_the_per_sample_loop(self, small_specs):
        """``characterize_cell_samples`` (one tensor per arc, sliced per
        sample) equals characterizing each sample on its own, global
        draws included."""
        characterizer = Characterizer(grid=SMALL_GRID, include_power=True)
        n_samples = 4
        global_draws = characterizer.sample_global_draws(n_samples, seed=5)
        draws = characterizer.sample_arc_draws(small_specs, n_samples, seed=4)
        for spec in small_specs:
            batched = characterizer.characterize_cell_samples(
                spec, draws[spec.name], range(n_samples), global_draws
            )
            for k, cell in enumerate(batched):
                single = characterizer.characterize_cell(
                    spec,
                    draws=draws[spec.name],
                    sample_index=k,
                    global_draws=GlobalDraws(
                        *(v[k : k + 1] for v in astuple(global_draws))
                    ),
                )
                library_a = characterizer.library_shell("a")
                library_b = characterizer.library_shell("b")
                library_a.add_cell(cell)
                library_b.add_cell(single)
                assert_libraries_bit_identical(library_a, library_b)


class TestStaEquivalence:
    RESULT_ARRAYS = (
        "arrival",
        "slew",
        "required",
        "arc_delay",
        "arc_transition",
        "endpoint_slacks",
    )

    @pytest.mark.parametrize("netlist_name", ["chain_netlist", "adder_netlist"])
    def test_analysis_bit_identical(
        self, netlist_name, statistical_library, request
    ):
        graph = TimingGraph(
            request.getfixturevalue(netlist_name), statistical_library
        )
        batched, reference = _both(lambda: analyze(graph, 2.0))
        for name in self.RESULT_ARRAYS:
            assert np.array_equal(
                getattr(reference, name), getattr(batched, name)
            ), name
        assert reference.launches.keys() == batched.launches.keys()
        for q_net, launch in reference.launches.items():
            assert launch == batched.launches[q_net]

    def test_path_and_design_statistics_bit_identical(
        self, adder_netlist, statistical_library
    ):
        graph = TimingGraph(adder_netlist, statistical_library)
        result = analyze(graph, 2.0)
        paths = extract_worst_paths(result)
        assert paths

        def statistics():
            return (
                design_statistics(paths, statistical_library),
                [path_statistics(path, statistical_library) for path in paths[:3]],
                [
                    step_sigma(statistical_library, step)
                    for path in paths[:3]
                    for step in path.steps
                ],
            )

        batched, reference = _both(statistics)
        assert reference == batched
