"""The incremental sweep driver: cold/warm behaviour, statuses,
backend equivalence, and the zero-recharacterization guarantee.

Sweeps here run at the tiny scale on a per-test cache directory so
every test controls exactly which artifacts are warm.
"""

from __future__ import annotations

import pytest

from repro.characterization.characterize import (
    characterization_call_count,
    reset_characterization_call_count,
)
from repro.errors import ConfigError, ReproError
from repro.flow.experiment import FlowConfig
from repro.sweep import SweepGrid, run_sweep
from repro.synth.synthesizer import (
    reset_synthesis_call_count,
    synthesis_call_count,
)

#: The one-point grid most tests reuse (cheapest possible sweep).
POINT_GRID = SweepGrid(
    designs=("microcontroller",),
    methods=("sigma_ceiling",),
    parameters=(0.5,),
    clock_periods=(3.0,),
)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A fresh cache/store so each test starts fully cold."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _config(**overrides) -> FlowConfig:
    from dataclasses import replace

    return replace(FlowConfig.tiny(), **overrides)


class TestGrid:
    def test_default_grid_expands_every_method(self):
        from repro.core.methods import TUNING_METHODS

        grid = SweepGrid(parameters=(0.5,), clock_periods=(3.0,))
        points = grid.points()
        assert {point.method for point in points} == set(TUNING_METHODS)
        assert all(point.design == "microcontroller" for point in points)

    def test_default_parameters_follow_each_method(self):
        from repro.core.methods import method_by_name

        grid = SweepGrid(methods=("sigma_ceiling",), clock_periods=(3.0,))
        expected = method_by_name("sigma_ceiling").sweep_values()
        assert tuple(p.parameter for p in grid.points()) == expected

    def test_nested_axis_order_is_deterministic(self):
        grid = SweepGrid(
            designs=("microcontroller", "sensor"),
            methods=("sigma_ceiling",),
            parameters=(0.25, 0.5),
            clock_periods=(3.0, 4.0),
        )
        labels = [point.label() for point in grid.points()]
        assert labels == sorted(labels, key=labels.index)  # stable
        assert labels[0] == "microcontroller/sigma_ceiling/0.25@3"
        assert len(labels) == 8

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(designs=())
        with pytest.raises(ConfigError):
            SweepGrid(clock_periods=())
        with pytest.raises(ConfigError):
            SweepGrid(methods=())

    def test_unknown_design_fails_before_any_work(self, cache_dir):
        grid = SweepGrid(
            designs=("mcu",), methods=("sigma_ceiling",),
            parameters=(0.5,), clock_periods=(3.0,),
        )
        with pytest.raises(ConfigError, match="unknown design"):
            run_sweep(_config(), grid, ledger=False)

    def test_unknown_method_fails_before_any_work(self):
        with pytest.raises(ReproError, match="unknown tuning method"):
            SweepGrid(
                methods=("sigma_ceilings",), clock_periods=(3.0,)
            ).points()

    def test_cache_required(self):
        with pytest.raises(ConfigError, match="artifact store"):
            run_sweep(_config(cache=False), POINT_GRID, ledger=False)


class TestIncremental:
    def test_cold_runs_then_warm_hits_everything(self, cache_dir):
        """Acceptance: a warm re-run of the full grid schedules nothing
        and performs zero synthesis and characterization calls."""
        cold = run_sweep(_config(), POINT_GRID, ledger=False)
        assert cold.scheduled > 0
        assert [r.status for r in cold.results] == ["run"]

        reset_synthesis_call_count()
        reset_characterization_call_count()
        warm = run_sweep(_config(), POINT_GRID, ledger=False)
        assert warm.scheduled == 0
        assert [r.status for r in warm.results] == ["hit"]
        assert synthesis_call_count() == 0
        assert characterization_call_count() == 0
        assert warm.comparisons() == cold.comparisons()

    def test_new_design_schedules_only_its_points(self, cache_dir):
        run_sweep(_config(), POINT_GRID, ledger=False)
        widened = SweepGrid(
            designs=("microcontroller", "sensor"),
            methods=POINT_GRID.methods,
            parameters=POINT_GRID.parameters,
            clock_periods=POINT_GRID.clock_periods,
        )
        result = run_sweep(_config(), widened, ledger=False)
        statuses = {
            r.point.design: r.status for r in result.results
        }
        assert statuses == {"microcontroller": "hit", "sensor": "run"}

    def test_new_clock_schedules_only_new_points(self, cache_dir):
        run_sweep(_config(), POINT_GRID, ledger=False)
        widened = SweepGrid(
            designs=POINT_GRID.designs,
            methods=POINT_GRID.methods,
            parameters=POINT_GRID.parameters,
            clock_periods=(3.0, 3.5),
        )
        result = run_sweep(_config(), widened, ledger=False)
        statuses = {
            r.point.clock_period: r.status for r in result.results
        }
        assert statuses == {3.0: "hit", 3.5: "run"}

    def test_missing_baseline_only_is_a_skip(self, cache_dir):
        """A point whose tuned run is warm but whose shared baseline
        run vanished is 'skip': one baseline task covers it."""
        from repro.flow.experiment import TuningFlow
        from repro.parallel import ArtifactStore
        from repro.sweep.driver import point_keys

        run_sweep(_config(), POINT_GRID, ledger=False)
        flow = TuningFlow(_config())
        (point,) = POINT_GRID.points()
        _tuning, _tuned, baseline = point_keys(flow, point)
        ArtifactStore().path_for("synth", baseline).unlink()

        result = run_sweep(_config(), POINT_GRID, ledger=False)
        assert [r.status for r in result.results] == ["skip"]
        assert result.scheduled == 1  # the one baseline task

        warm = run_sweep(_config(), POINT_GRID, ledger=False)
        assert warm.scheduled == 0

    def test_ledger_records_counts(self, cache_dir, tmp_path):
        from repro.observe.ledger import RunLedger

        ledger = RunLedger(tmp_path / "ledger.jsonl")
        run_sweep(_config(), POINT_GRID, ledger=ledger)
        (record,) = ledger.read(experiment="sweep")
        assert record.counters["sweep.points"] == 1
        assert record.counters["sweep.run"] == 1
        assert record.counters["sweep.scheduled"] > 0
        assert record.scale == "tiny"
        assert "statlib" in record.fingerprints
        assert "design/microcontroller" in record.fingerprints
        assert any(
            key.startswith("sigma_reduction[") for key in record.metrics
        )


class TestBackendEquivalence:
    def test_sweep_results_identical_across_backends(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: the same cold grid produces identical comparison
        lists on the serial and process backends."""
        reference = None
        for backend in ("serial", "process"):
            monkeypatch.setenv(
                "REPRO_CACHE_DIR", str(tmp_path / f"cache-{backend}")
            )
            result = run_sweep(
                _config(backend=backend, n_workers=2),
                POINT_GRID,
                ledger=False,
            )
            assert result.backend in (backend, "serial")
            if reference is None:
                reference = result.comparisons()
            else:
                assert result.comparisons() == reference
