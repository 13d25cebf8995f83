"""Staged artifact pipeline: warm/cold equivalence, fingerprints, the
stage table, baseline-key disjointness and the parallel sweep fan-out.

The pipeline's contract mirrors the characterization cache's: serving
a stage from the on-disk artifact store must be *bit-identical* to
computing it — every ``TuningComparison`` compared with ``==`` — and a
fully warm store must resolve an evaluation without a single synthesis
call (asserted via the synthesis call counter, like the existing
zero-recharacterization test).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.characterization.characterize import (
    characterization_call_count,
    reset_characterization_call_count,
)
from repro.errors import ReproError, TuningError
from repro.flow.experiment import FlowConfig, RunSummary, TuningFlow
from repro.flow.pipeline import BASELINE_WINDOWS, RunManifest, minperiod_fingerprint
from repro.netlist.generators.microcontroller import MicrocontrollerParams
from repro.observe.catalog import STORE_ARTIFACT_EVENTS
from repro.parallel.artifacts import (
    STAGES,
    ArtifactStore,
    canonical_json,
    fingerprint,
    stage_fingerprint,
)
from repro.sta.graph import StaConfig
from repro.sta.paths import TimingPath
from repro.sta.statistics import DesignStatistics
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import (
    reset_synthesis_call_count,
    synthesis_call_count,
)


def _mini_config(**overrides) -> FlowConfig:
    """The miniature flow configuration (seconds per synthesis)."""
    return FlowConfig(
        design=MicrocontrollerParams(
            width=12,
            regfile_bits=2,
            mult_width=6,
            n_timers=1,
            timer_width=6,
            control_gates=250,
            status_width=12,
            n_uarts=1,
            gpio_width=4,
        ),
        n_samples=12,
        **overrides,
    )


def _stored_stages(directory) -> set:
    """The stages stored in ``directory``, each checked to be a row of
    the stage table whose codec is the entry's file suffix."""
    stages = set()
    for path in directory.iterdir():
        stage = path.name.rsplit("-", 1)[0]
        assert stage in STAGES, path.name
        assert path.name.endswith(STAGES[stage].codec), path.name
        stages.add(stage)
    return stages


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty artifact store per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    return tmp_path / "store"


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"met": True, "area": 123.5, "rows": [[1, 2], [3, 4]]}
        key = fingerprint(payload)
        assert not store.has("synth", key)
        store.store("synth", key, payload)
        assert store.has("synth", key)
        assert store.load("synth", key) == payload

    def test_missing_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("synth", "0" * 64) is None

    def test_corrupt_entry_self_heals(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = fingerprint({"x": 1})
        store.store("paths", key, [1, 2, 3])
        path = store.path_for("paths", key)
        path.write_bytes(b"not gzip at all")
        assert store.load("paths", key) is None
        assert not path.exists()  # poisoned entry dropped

    def test_wrong_envelope_discarded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = fingerprint({"x": 2})
        store.store("stats", key, {"sigma": 0.5})
        # same bytes presented under another stage must not resolve
        other = ArtifactStore(tmp_path)
        store.path_for("synth", key).write_bytes(
            store.path_for("stats", key).read_bytes()
        )
        assert other.load("synth", key) is None

    def test_stats_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(3):
            store.store("tuning", fingerprint({"i": i}), {"i": i})
        stats = store.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert str(tmp_path) in stats.to_text()
        assert store.clear() == 3
        assert store.stats().entries == 0

    def test_self_heal_is_observable(self, tmp_path):
        """Healing a poisoned entry bumps the healed counter and
        attaches a ``store.self_heal`` event to the open span."""
        from repro.observe import MemorySink, Tracer, set_tracer

        store = ArtifactStore(tmp_path)
        key = fingerprint({"x": 3})
        store.store("paths", key, [1, 2, 3])
        store.path_for("paths", key).write_bytes(b"junk")
        tracer = Tracer(MemorySink())
        previous = set_tracer(tracer)
        try:
            with tracer.span("stage.paths") as span:
                assert store.load("paths", key) is None
        finally:
            set_tracer(previous)
        assert tracer.counters()["store.artifact.healed"] == 1
        (event,) = span.events
        assert event["name"] == "store.self_heal"
        assert event["attrs"]["stage"] == "paths"

    def test_stats_break_down_by_stage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(2):
            store.store("tuning", fingerprint({"i": i}), {"i": i})
        store.store("synth", fingerprint({"j": 9}), {"j": 9})
        stats = store.stats()
        assert stats.by_stage == {"tuning": 2, "synth": 1}
        assert "tuning" in stats.to_text()

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert fingerprint({"b": 1, "a": 2}) == fingerprint({"a": 2, "b": 1})


class TestFingerprints:
    """Every input that can change a stage's output must change its key."""

    STATLIB = "a" * 64
    DESIGN = "b" * 64

    def _synth_key(self, **overrides):
        constraints = SynthesisConstraints(
            clock_period=overrides.pop("clock_period", 4.0),
            guard_band=overrides.pop("guard_band", 0.3),
            **overrides,
        )
        return self._synth_key_of(
            self.STATLIB, self.DESIGN, BASELINE_WINDOWS, constraints
        )

    @staticmethod
    def _synth_key_of(statlib, design, windows, constraints):
        return stage_fingerprint(
            "synth",
            statlib=statlib,
            design=design,
            windows=windows,
            constraints=constraints.fingerprint_payload(),
            sta=dataclasses.asdict(StaConfig()),
        )

    @staticmethod
    def _design_key(design):
        return stage_fingerprint("design", params=dataclasses.asdict(design))

    def test_stable_for_identical_inputs(self):
        assert self._synth_key() == self._synth_key()

    def test_sensitive_to_clock_period(self):
        assert self._synth_key() != self._synth_key(clock_period=4.1)

    def test_sensitive_to_guard_band(self):
        assert self._synth_key() != self._synth_key(guard_band=0.25)

    def test_sensitive_to_effort_knobs(self):
        assert self._synth_key() != self._synth_key(max_buffer_rounds=1)
        assert self._synth_key() != self._synth_key(max_transition=0.4)

    def test_sensitive_to_windows_and_upstream_keys(self):
        base = self._synth_key()
        constraints = SynthesisConstraints(clock_period=4.0)
        assert base != self._synth_key_of(
            self.STATLIB, self.DESIGN, "c" * 64, constraints
        )
        assert base != self._synth_key_of(
            "c" * 64, self.DESIGN, BASELINE_WINDOWS, constraints
        )
        assert base != self._synth_key_of(
            self.STATLIB, "c" * 64, BASELINE_WINDOWS, constraints
        )

    def test_design_fingerprint_sensitive_to_params(self):
        design = _mini_config().design
        a = self._design_key(design)
        b = self._design_key(dataclasses.replace(design, control_gates=300))
        assert a != b
        assert a == self._design_key(dataclasses.replace(design))
        assert a == TuningFlow(_mini_config(cache=False)).design_key

    def test_tuning_fingerprint_sensitive_to_method_and_parameter(self):
        flow = TuningFlow(_mini_config(cache=False))

        def tuning_key(method, parameter):
            return flow.point_keys(4.0, method, parameter).tuning

        assert tuning_key("sigma_ceiling", 0.03) != tuning_key(
            "cell_load_slope", 0.03
        )
        assert tuning_key("sigma_ceiling", 0.03) != tuning_key(
            "sigma_ceiling", 0.02
        )

    def test_minperiod_fingerprint_sensitive_to_search_knobs(self):
        base = minperiod_fingerprint(self.STATLIB, self.DESIGN, 0.3, 0.05)
        assert base != minperiod_fingerprint(self.STATLIB, self.DESIGN, 0.25, 0.05)
        assert base != minperiod_fingerprint(self.STATLIB, self.DESIGN, 0.3, 0.01)
        assert base != minperiod_fingerprint(self.STATLIB, "c" * 64, 0.3, 0.05)


class TestStageTable:
    """Every key and codec comes from the one stage table."""

    def test_stored_stages_are_table_rows(self, cache_dir):
        """A cold compare and a per-sample characterization store only
        table rows, each under its row's codec (the minimum-period
        search is checked in ``test_minimum_period_warm_zero_synthesis``)."""
        flow = TuningFlow(_mini_config())
        flow.compare(4.0, "sigma_ceiling", 0.03)
        flow.characterizer.sample_libraries(flow.specs[:4], n_samples=3, seed=0)
        assert _stored_stages(cache_dir) == {
            "stat", "samples", "tuning", "synth", "paths", "stats",
        }

    def test_stage_fingerprint_rejects_missing_and_undeclared_inputs(self):
        with pytest.raises(ReproError, match=r"missing \[rho\]"):
            stage_fingerprint("stats", synth="a" * 64)
        with pytest.raises(ReproError, match=r"undeclared \[clock\]"):
            stage_fingerprint("paths", synth="a" * 64, clock=4.0)
        with pytest.raises(ReproError, match="unknown stage"):
            stage_fingerprint("netlist", synth="a" * 64)

    def test_unstored_stage_has_no_path(self, tmp_path):
        with pytest.raises(ReproError, match="not a stored stage"):
            ArtifactStore(tmp_path).path_for("design", "a" * 64)


class TestBaselineKeyDisjointness:
    """Regression: the baseline memo entry must live in a namespace no
    (method, parameter) pair can reach."""

    def test_method_named_baseline_is_rejected(self):
        flow = TuningFlow(_mini_config(cache=False))
        with pytest.raises(TuningError):
            flow.tuned(4.0, "baseline", 0.0)

    def test_baseline_windows_sentinel_is_not_a_digest(self):
        assert len(BASELINE_WINDOWS) != 64  # cannot collide with sha256 hex


class TestManifest:
    def test_records_and_counts(self):
        manifest = RunManifest()
        manifest.record("synth", "a" * 64, "hit", 0.01)
        manifest.record("paths", "b" * 64, "miss", 0.5)
        assert manifest.counts() == {"hit": 1, "miss": 1}
        text = manifest.to_text()
        assert "synth" in text and "hit" in text and "2 stage resolutions" in text

    def test_empty_manifest_text(self):
        assert "empty" in RunManifest().to_text()


class TestWarmPipeline:
    """Warm-vs-cold equivalence of real evaluation stages."""

    def test_warm_compare_identical_and_zero_synthesis(self, cache_dir):
        cold_flow = TuningFlow(_mini_config())
        reset_synthesis_call_count()
        cold = cold_flow.compare(4.0, "sigma_ceiling", 0.03)
        assert synthesis_call_count() == 2  # baseline + tuned

        # the memo keys are shape-disjoint (baseline vs tuned namespaces)
        assert set(cold_flow._runs) == {
            ("baseline", 4.0),
            ("tuned", "sigma_ceiling", 0.03, 4.0),
        }

        # live runs expose the timing graph; payloads roundtrip exactly
        cold_run = cold_flow.baseline(4.0)
        assert cold_run.result is not None
        assert cold_run.timing is cold_run.result.timing
        path = cold_run.paths[0]
        assert TimingPath.from_payload(path.to_payload()) == path
        assert (
            DesignStatistics.from_payload(cold_run.stats.to_payload())
            == cold_run.stats
        )
        assert (
            RunSummary.from_payload(cold_run.summary.to_payload())
            == cold_run.summary
        )

        warm_flow = TuningFlow(_mini_config())
        reset_synthesis_call_count()
        reset_characterization_call_count()
        warm = warm_flow.compare(4.0, "sigma_ceiling", 0.03)
        assert synthesis_call_count() == 0
        assert characterization_call_count() == 0
        assert warm == cold  # bit-identical dataclass comparison

        # store-served runs carry no live synthesis result
        warm_run = warm_flow.baseline(4.0)
        assert warm_run.result is None
        with pytest.raises(ReproError):
            warm_run.timing
        assert warm_run.paths == cold_run.paths
        assert warm_run.stats == cold_run.stats
        assert warm_run.summary == cold_run.summary

        # every synthesis-side stage resolved as a hit
        statuses = {
            (r.stage, r.status)
            for r in warm_flow.manifest.records
            if r.stage in ("synth", "paths", "stats")
        }
        assert statuses == {("synth", "hit"), ("paths", "hit"), ("stats", "hit")}

    def test_warm_fig10_zero_synthesis(self, cache_dir, monkeypatch):
        """Acceptance: a warm ``run fig10`` performs zero synthesis."""
        from repro.experiments import fig10_method_comparison
        from repro.experiments.base import ExperimentContext

        monkeypatch.setattr(
            fig10_method_comparison,
            "METHOD_ORDER",
            ("sigma_ceiling", "cell_load_slope"),
        )
        periods = [4.0]
        cold_context = ExperimentContext(TuningFlow(_mini_config()))
        reset_synthesis_call_count()
        cold = fig10_method_comparison.run(cold_context, periods=periods)
        assert synthesis_call_count() > 0

        warm_context = ExperimentContext(TuningFlow(_mini_config()))
        reset_synthesis_call_count()
        reset_characterization_call_count()
        warm = fig10_method_comparison.run(warm_context, periods=periods)
        assert synthesis_call_count() == 0
        assert characterization_call_count() == 0
        assert warm.rows == cold.rows
        assert warm.notes == cold.notes

    def test_minimum_period_warm_zero_synthesis(self, cache_dir):
        """The min-period search is a stage too: warm runs skip every
        probe synthesis (what otherwise dominates a warm evaluation)."""
        cold = TuningFlow(_mini_config()).minimum_period()
        assert _stored_stages(cache_dir) == {"stat", "minperiod"}
        warm_flow = TuningFlow(_mini_config())
        reset_synthesis_call_count()
        assert warm_flow.minimum_period() == cold
        assert synthesis_call_count() == 0
        record = [r for r in warm_flow.manifest.records if r.stage == "minperiod"]
        assert [r.status for r in record] == ["hit"]

    def test_parallel_sweep_bit_identical_to_serial(self, tmp_path, monkeypatch):
        """Acceptance: the worker fan-out reassembles deterministically
        and each comparison equals the serial path, from separate
        (cold) stores."""
        points = [
            (4.0, "sigma_ceiling", 0.03),
            (4.0, "cell_load_slope", 0.05),
        ]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = TuningFlow(_mini_config()).sweep_comparisons(points)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        parallel_flow = TuningFlow(_mini_config(n_workers=4))
        parallel = parallel_flow.sweep_comparisons(points)
        assert parallel == serial
        assert [c.parameter for c in parallel] == [0.03, 0.05]

    def test_rejected_payload_heals_and_recomputes(self, cache_dir):
        """An intact entry whose payload the stage's decoder rejects
        heals into a miss (counted, rewritten) instead of raising."""
        flow = TuningFlow(_mini_config())
        key = flow.point_keys(4.0, "sigma_ceiling", 0.03).tuning
        store = ArtifactStore()
        store.store("tuning", key, {"unexpected": 1})
        healed = STORE_ARTIFACT_EVENTS.labels(event="healed").value
        result = flow.tuning("sigma_ceiling", 0.03)
        assert STORE_ARTIFACT_EVENTS.labels(event="healed").value == healed + 1
        assert canonical_json(store.load("tuning", key)) == canonical_json(
            result.to_payload()
        )
        assert [
            r.status for r in flow.manifest.records if r.stage == "tuning"
        ] == ["miss"]

    def test_no_cache_flow_still_works(self, cache_dir):
        """cache=False degrades every stage to compute-only."""
        flow = TuningFlow(_mini_config(cache=False))
        reset_synthesis_call_count()
        comparison = flow.compare(4.0, "sigma_ceiling", 0.03)
        assert synthesis_call_count() == 2
        assert comparison.baseline_sigma > 0
        assert not list(cache_dir.glob("*.json.gz"))
        statuses = {r.status for r in flow.manifest.records}
        assert statuses == {"computed"}
