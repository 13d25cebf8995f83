"""Parallel-vs-serial and cache-vs-cold equivalence (bit-exact).

The determinism contract of :mod:`repro.parallel`: fanning the
characterization out over worker processes, or serving it from the
on-disk cache, must be *bit-identical* to the serial cold path — every
mean/sigma LUT compared with :func:`numpy.array_equal`, every
experiment payload compared with ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization.characterize import (
    Characterizer,
    characterization_call_count,
    reset_characterization_call_count,
)
from repro.experiments import fig02_statlib, fig07_library_surface
from repro.experiments.base import ExperimentContext
from repro.flow.experiment import FlowConfig, TuningFlow

#: Every LUT slot a statistical or sample library may carry.
ALL_SLOTS = (
    "cell_rise",
    "cell_fall",
    "rise_transition",
    "fall_transition",
    "sigma_rise",
    "sigma_fall",
    "power_rise",
    "power_fall",
    "sigma_power_rise",
    "sigma_power_fall",
)


def assert_libraries_bit_identical(a, b):
    """Every LUT of every arc of every cell must match bit-for-bit."""
    assert set(a.cells) == set(b.cells)
    for name in a.cells:
        cell_a, cell_b = a.cell(name), b.cell(name)
        for pin_a in cell_a.output_pins():
            pin_b = cell_b.pin(pin_a.name)
            assert len(pin_a.timing) == len(pin_b.timing)
            for arc_a, arc_b in zip(pin_a.timing, pin_b.timing):
                assert arc_a.related_pin == arc_b.related_pin
                for slot in ALL_SLOTS:
                    table_a = getattr(arc_a, slot)
                    table_b = getattr(arc_b, slot)
                    assert (table_a is None) == (table_b is None), (name, slot)
                    if table_a is not None:
                        assert np.array_equal(table_a.values, table_b.values), (
                            name,
                            pin_a.name,
                            slot,
                        )


class TestParallelEquivalence:
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_statistical_library_bit_identical(
        self, characterizer, small_specs, n_workers
    ):
        """Acceptance: statistical_library(n_workers=2|4) equals serial
        via np.array_equal on every mean/sigma LUT."""
        specs = small_specs[:40]
        serial = characterizer.statistical_library(specs, n_samples=8, seed=5)
        parallel = characterizer.statistical_library(
            specs, n_samples=8, seed=5, n_workers=n_workers
        )
        assert_libraries_bit_identical(serial, parallel)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_sample_libraries_bit_identical(
        self, characterizer, small_specs, n_workers
    ):
        specs = small_specs[:10]
        serial = characterizer.sample_libraries(
            specs, n_samples=5, seed=9, include_global=True
        )
        parallel = characterizer.sample_libraries(
            specs, n_samples=5, seed=9, include_global=True, n_workers=n_workers
        )
        assert len(serial) == len(parallel)
        for lib_serial, lib_parallel in zip(serial, parallel):
            assert lib_serial.name == lib_parallel.name
            assert_libraries_bit_identical(lib_serial, lib_parallel)

    def test_parallel_power_tables_bit_identical(self, small_specs):
        """The power LUTs go through the same fan-out and must match too."""
        characterizer = Characterizer(include_power=True)
        specs = small_specs[:6]
        serial = characterizer.statistical_library(specs, n_samples=6, seed=2)
        parallel = characterizer.statistical_library(
            specs, n_samples=6, seed=2, n_workers=2
        )
        arc = serial.cell(specs[0].name).output_pins()[0].timing[0]
        assert arc.power_rise is not None and arc.sigma_power_rise is not None
        assert_libraries_bit_identical(serial, parallel)

    def test_draws_independent_of_catalog_slicing(self, characterizer, small_specs):
        """Per-cell RNG streams: a cell's draws must not depend on which
        other cells are characterized alongside it."""
        wide = characterizer.sample_arc_draws(small_specs[:6], n_samples=7, seed=3)
        narrow = characterizer.sample_arc_draws(small_specs[2:4], n_samples=7, seed=3)
        for spec in small_specs[2:4]:
            for arc, values in narrow[spec.name].items():
                assert np.array_equal(values, wide[spec.name][arc])


def _tiny_flow_config() -> FlowConfig:
    from repro.netlist.generators.microcontroller import MicrocontrollerParams

    return FlowConfig(
        design=MicrocontrollerParams(
            width=12,
            regfile_bits=2,
            mult_width=8,
            n_timers=1,
            timer_width=8,
            control_gates=400,
            status_width=16,
            n_uarts=1,
            gpio_width=4,
        ),
        n_samples=10,
        cache=True,
    )


class TestCacheEquivalence:
    @pytest.fixture()
    def cache_dir(self, tmp_path, monkeypatch):
        """A fresh, empty cache directory for each test."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return tmp_path / "cache"

    @pytest.mark.parametrize(
        "experiment", [fig02_statlib.run, fig07_library_surface.run],
        ids=["fig02", "fig07"],
    )
    def test_warm_cache_payload_identical_and_no_recharacterization(
        self, cache_dir, experiment
    ):
        """Acceptance: cache hit vs cold miss produce identical
        ExperimentResult payloads, and the warm run performs zero
        characterization (call-counter assertion)."""
        cold_context = ExperimentContext(TuningFlow(_tiny_flow_config()))
        reset_characterization_call_count()
        cold = experiment(cold_context)
        assert characterization_call_count() > 0

        warm_context = ExperimentContext(TuningFlow(_tiny_flow_config()))
        reset_characterization_call_count()
        warm = experiment(warm_context)
        assert characterization_call_count() == 0

        assert warm.experiment_id == cold.experiment_id
        assert warm.rows == cold.rows
        assert warm.notes == cold.notes

    def test_cached_statistical_library_bit_identical(self, cache_dir, small_specs):
        reference = Characterizer().statistical_library(
            small_specs[:12], n_samples=6, seed=4
        )
        flow = TuningFlow(_tiny_flow_config())
        cold = flow.library_stage("stat", small_specs[:12], 6, 4)
        warm = flow.library_stage("stat", small_specs[:12], 6, 4)
        assert [r.status for r in flow.manifest.records] == ["miss", "hit"]
        assert_libraries_bit_identical(reference, cold)
        assert_libraries_bit_identical(reference, warm)
        assert warm.is_statistical
        assert warm.name == cold.name
