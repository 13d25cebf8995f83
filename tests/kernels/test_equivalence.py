"""Scalar-vs-vectorized bit-identity across the whole pipeline.

The contract of :mod:`repro.kernels`: the vectorized production kernel
and the scalar reference kernel are two schedules of the *same*
IEEE-754 operations — every statistical LUT, every per-sample library,
every STA array and every design statistic must match bit-for-bit,
across worker counts and seeds, and the kernel choice must never
invalidate a warm cache artifact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization.characterize import (
    Characterizer,
    characterization_call_count,
    reset_characterization_call_count,
)
from repro.characterization.grids import GridConfig
from repro.flow.experiment import FlowConfig
from repro.parallel.cache import characterization_key
from repro.sta.engine import analyze
from repro.sta.graph import TimingGraph
from repro.sta.paths import extract_worst_paths
from repro.sta.statistics import design_statistics, path_statistics, step_sigma
from tests.parallel.test_equivalence import assert_libraries_bit_identical

#: Interpolation needs >= 2 points per axis; 3x3 keeps interior points.
SMALL_GRID = GridConfig(n_slew=3, n_load=3)


def _characterizer(kernel, grid=SMALL_GRID, **kwargs):
    return Characterizer(grid=grid, kernel=kernel, **kwargs)


def _flow(kernel):
    """A serial flow on the kernel: resolves libraries through its store."""
    from repro.flow.experiment import TuningFlow

    return TuningFlow(FlowConfig(kernel=kernel, n_workers=1, backend="serial"))


class TestCharacterizationEquivalence:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_statistical_library_bit_identical(
        self, small_specs, seed, n_workers
    ):
        specs = small_specs[:8]
        scalar = _characterizer("scalar").statistical_library(
            specs, n_samples=6, seed=seed, n_workers=n_workers
        )
        vectorized = _characterizer("vectorized").statistical_library(
            specs, n_samples=6, seed=seed, n_workers=n_workers
        )
        assert_libraries_bit_identical(scalar, vectorized)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_sample_libraries_bit_identical(self, small_specs, seed, n_workers):
        """The per-sample path also ships die-level (global) draws —
        the vectorized kernel must add them before lifting to 3-D."""
        specs = small_specs[:6]
        scalar = _characterizer("scalar").sample_libraries(
            specs, n_samples=5, seed=seed, include_global=True,
            n_workers=n_workers,
        )
        vectorized = _characterizer("vectorized").sample_libraries(
            specs, n_samples=5, seed=seed, include_global=True,
            n_workers=n_workers,
        )
        assert len(scalar) == len(vectorized) == 5
        for lib_scalar, lib_vectorized in zip(scalar, vectorized):
            assert lib_scalar.name == lib_vectorized.name
            assert_libraries_bit_identical(lib_scalar, lib_vectorized)

    def test_power_tables_bit_identical(self, small_specs):
        specs = small_specs[:5]
        scalar = _characterizer("scalar", include_power=True)
        vectorized = _characterizer("vectorized", include_power=True)
        lib_scalar = scalar.statistical_library(specs, n_samples=5, seed=2)
        lib_vectorized = vectorized.statistical_library(specs, n_samples=5, seed=2)
        arc = lib_scalar.cell(specs[0].name).output_pins()[0].timing[0]
        assert arc.power_rise is not None and arc.sigma_power_rise is not None
        assert_libraries_bit_identical(lib_scalar, lib_vectorized)

        samples_scalar = scalar.sample_libraries(specs, n_samples=4, seed=2)
        samples_vectorized = vectorized.sample_libraries(specs, n_samples=4, seed=2)
        for lib_a, lib_b in zip(samples_scalar, samples_vectorized):
            assert_libraries_bit_identical(lib_a, lib_b)

    def test_every_paper_cell_spec_bit_identical(self, full_specs, coarse_grid):
        """The full Appendix A catalog at the coarsest legal grid and
        minimum sample count — every topology class the surrogate
        distinguishes goes through both kernels."""
        scalar = _characterizer("scalar", grid=coarse_grid).statistical_library(
            full_specs, n_samples=2, seed=1
        )
        vectorized = _characterizer(
            "vectorized", grid=coarse_grid
        ).statistical_library(full_specs, n_samples=2, seed=1)
        assert len(scalar) == len(full_specs)
        assert_libraries_bit_identical(scalar, vectorized)


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
        scalar = analyze(graph, 2.0, kernel="scalar")
        vectorized = analyze(graph, 2.0, kernel="vectorized")
        for name in self.RESULT_ARRAYS:
            assert np.array_equal(
                getattr(scalar, name), getattr(vectorized, name)
            ), name
        assert scalar.launches.keys() == vectorized.launches.keys()
        for q_net, launch in scalar.launches.items():
            assert launch == vectorized.launches[q_net]

    def test_path_and_design_statistics_bit_identical(
        self, adder_netlist, statistical_library
    ):
        graph = TimingGraph(adder_netlist, statistical_library)
        result = analyze(graph, 2.0)
        paths = extract_worst_paths(result)
        assert paths
        scalar = design_statistics(paths, statistical_library, kernel="scalar")
        vectorized = design_statistics(
            paths, statistical_library, kernel="vectorized"
        )
        assert scalar == vectorized
        for path in paths[:3]:
            assert path_statistics(
                path, statistical_library, kernel="scalar"
            ) == path_statistics(path, statistical_library, kernel="vectorized")
            for step in path.steps:
                assert step_sigma(
                    statistical_library, step, kernel="scalar"
                ) == step_sigma(statistical_library, step, kernel="vectorized")


class TestFingerprintInvariance:
    def test_characterization_key_ignores_kernel(self, small_specs):
        """The cache key is built from an explicit payload the kernel
        is excluded from — warm artifacts stay valid across kernels."""
        keys = {
            characterization_key(
                _characterizer(kernel), small_specs[:6], 6, 4, False, "stat"
            )
            for kernel in ("scalar", "vectorized")
        }
        assert len(keys) == 1

    def test_scale_name_ignores_kernel(self):
        from dataclasses import replace

        config = FlowConfig.tiny()
        assert replace(config, kernel="scalar").scale_name() == \
            config.scale_name() == "tiny"

    def test_statlib_fingerprint_ignores_kernel(self):
        from repro.flow.experiment import TuningFlow

        keys = {
            TuningFlow(FlowConfig(kernel=kernel, cache=False)).statlib_key
            for kernel in ("scalar", "vectorized")
        }
        assert len(keys) == 1


class TestWarmArtifactsAcrossKernels:
    @pytest.fixture()
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return tmp_path / "cache"

    def test_vectorized_cold_serves_scalar_warm(self, cache_dir, small_specs):
        """A cache written by one kernel is a valid warm hit for the
        other: zero characterization calls, bit-identical library."""
        specs = small_specs[:6]
        cold = _flow("vectorized")
        reset_characterization_call_count()
        cold_library = cold.library_stage("stat", specs, 5, 8)
        assert characterization_call_count() > 0

        warm = _flow("scalar")
        reset_characterization_call_count()
        warm_library = warm.library_stage("stat", specs, 5, 8)
        assert characterization_call_count() == 0
        assert_libraries_bit_identical(cold_library, warm_library)

    def test_scalar_cold_serves_vectorized_warm(self, cache_dir, small_specs):
        specs = small_specs[:4]
        cold = _flow("scalar")
        cold_libraries = cold.sample_libraries(specs, 4, 6)

        warm = _flow("vectorized")
        reset_characterization_call_count()
        warm_libraries = warm.sample_libraries(specs, 4, 6)
        assert characterization_call_count() == 0
        for lib_cold, lib_warm in zip(cold_libraries, warm_libraries):
            assert_libraries_bit_identical(lib_cold, lib_warm)
