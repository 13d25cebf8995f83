"""End-to-end tracing of the flow: identical results, honest counters.

Two contracts matter at the flow level:

* tracing is *observation only* — a traced run's results are
  bit-identical to an untraced run's (the tier-1 guarantee the CI smoke
  job also exercises);
* the exported counters tell the truth — ``synth.calls`` matches the
  synthesizer's own call counter, and a warm store resolves a run with
  zero ``store.artifact.miss``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.flow.experiment import FlowConfig, TuningFlow
from repro.netlist.generators.microcontroller import MicrocontrollerParams
from repro.observe import (
    JsonlExporter,
    MemorySink,
    Tracer,
    load_trace,
    set_tracer,
)
from repro.synth.synthesizer import (
    reset_synthesis_call_count,
    synthesis_call_count,
)

PERIOD = 4.0
METHOD = "cell_slew_slope"
PARAMETER = 0.03


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


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty artifact store per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    return tmp_path / "store"


@pytest.fixture(autouse=True)
def _restore_tracer():
    """Never leak an active tracer into other tests."""
    yield
    set_tracer(None)


class TestTracedResultsIdentical:
    """Tracing on vs off must not change a single bit of the results."""

    def test_compare_bit_identical_with_tracing(self, cache_dir):
        """The full baseline-vs-tuned comparison is equal under ``==``
        (dataclass equality over every float) with and without a
        tracer, on cold stores both times."""
        untraced = TuningFlow(_mini_config(cache=False)).compare(
            PERIOD, METHOD, PARAMETER
        )
        set_tracer(None)
        tracer = Tracer(MemorySink())
        traced_flow = TuningFlow(
            dataclasses.replace(_mini_config(cache=False), tracer=tracer)
        )
        traced = traced_flow.compare(PERIOD, METHOD, PARAMETER)
        assert traced == untraced
        assert len(tracer.spans) > 0

    def test_trace_spans_cover_the_stage_chain(self, cache_dir, tmp_path):
        """A traced comparison records the full stage chain, and the
        JSONL file round-trips it."""
        path = tmp_path / "run.jsonl"
        tracer = Tracer(JsonlExporter(path, truncate=True))
        flow = TuningFlow(dataclasses.replace(_mini_config(), tracer=tracer))
        flow.compare(PERIOD, METHOD, PARAMETER)
        tracer.finish()
        trace = load_trace(path)
        names = set(trace.span_names())
        for expected in (
            "stage.catalog",
            "stage.statlib",
            "stage.tuning",
            "stage.synth",
            "stage.paths",
            "stage.stats",
            "characterize.statistical",
            "synth.run",
            "sta.analyze",
        ):
            assert expected in names, f"missing span {expected}"


class TestCounterTruth:
    """Exported counters agree with the modules' own accounting."""

    def test_synth_calls_counter_matches_call_count(self, cache_dir):
        """``synth.calls`` equals the synthesizer's test hook: 2 on a
        cold compare (baseline + tuned), 0 on a warm repeat."""
        tracer = Tracer(MemorySink())
        reset_synthesis_call_count()
        flow = TuningFlow(dataclasses.replace(_mini_config(), tracer=tracer))
        flow.compare(PERIOD, METHOD, PARAMETER)
        assert synthesis_call_count() == 2
        assert tracer.counters()["synth.calls"] == 2
        assert tracer.counters()["characterize.cells"] > 0
        assert tracer.counters()["store.artifact.miss"] > 0

        set_tracer(None)
        warm_tracer = Tracer(MemorySink())
        reset_synthesis_call_count()
        warm_flow = TuningFlow(
            dataclasses.replace(_mini_config(), tracer=warm_tracer)
        )
        warm_flow.compare(PERIOD, METHOD, PARAMETER)
        assert synthesis_call_count() == 0
        assert warm_tracer.counters().get("synth.calls", 0) == 0
        assert warm_tracer.counters().get("store.artifact.miss", 0) == 0
        assert warm_tracer.counters()["store.artifact.hit"] > 0

    def test_warm_run_records_hit_spans(self, cache_dir):
        """Warm stage resolutions still appear in the trace, marked
        ``hit``, so the time tree stays complete."""
        TuningFlow(_mini_config()).compare(PERIOD, METHOD, PARAMETER)
        set_tracer(None)
        tracer = Tracer(MemorySink())
        flow = TuningFlow(dataclasses.replace(_mini_config(), tracer=tracer))
        flow.compare(PERIOD, METHOD, PARAMETER)
        hit_spans = [
            s
            for s in tracer.spans
            if s.name.startswith("stage.") and s.attrs.get("status") == "hit"
        ]
        assert len(hit_spans) > 0

    def test_store_counters_match_registry(self, cache_dir):
        """The tracer's ``store.artifact.{hit,miss}`` and the registry's
        ``repro_store_artifact_total`` count the same lookups on a cold
        then a warm tiny-scale compare — the statistical library's
        included, since it lives in the same store."""
        from repro.observe.catalog import STORE_ARTIFACT_EVENTS

        def registry():
            return {
                event: STORE_ARTIFACT_EVENTS.labels(event=event).value
                for event in ("hit", "miss")
            }

        config = dataclasses.replace(
            FlowConfig.tiny(), n_workers=1, backend="serial", metrics=True
        )
        for phase in ("cold", "warm"):
            set_tracer(None)
            tracer = Tracer(MemorySink())
            before = registry()
            flow = TuningFlow(dataclasses.replace(config, tracer=tracer))
            flow.compare(3.0, "sigma_ceiling", 0.5)
            after = registry()
            counters = tracer.counters()
            for event in ("hit", "miss"):
                assert counters.get(f"store.artifact.{event}", 0) == (
                    after[event] - before[event]
                ), (phase, event)
            if phase == "cold":
                misses = [
                    record.stage
                    for record in flow.manifest.records
                    if record.status == "miss"
                ]
                assert "statlib" in misses
                assert counters["store.artifact.miss"] == len(misses)
            else:
                assert counters.get("store.artifact.miss", 0) == 0
                assert counters["store.artifact.hit"] > 0


class TestConfigTracer:
    """FlowConfig carries the tracer without breaking its contracts."""

    def test_tracer_excluded_from_equality(self):
        """Two configs differing only in tracer still compare equal
        (the tracer must never leak into cache fingerprints)."""
        config = _mini_config()
        traced = dataclasses.replace(config, tracer=Tracer(MemorySink()))
        assert config == traced

    def test_config_with_tracer_remains_picklable(self, tmp_path):
        """A file-backed tracer doesn't break FlowConfig pickling (the
        sweep fan-out ships configs to worker processes)."""
        import pickle

        tracer = Tracer(JsonlExporter(tmp_path / "t.jsonl"))
        config = dataclasses.replace(_mini_config(), tracer=tracer)
        clone = pickle.loads(pickle.dumps(config))
        assert clone.tracer.trace_id == tracer.trace_id


class TestColdFig12WorkCounters:
    """The work a cold tiny Fig. 12 run does, pinned exactly: a change
    that synthesizes or times more (or less) shows up here first."""

    def test_cold_tiny_fig12(self, cache_dir):
        from repro.experiments.base import ExperimentContext
        from repro.experiments.runner import run_experiments

        tracer = Tracer(MemorySink())
        config = dataclasses.replace(
            FlowConfig.tiny(), n_workers=1, backend="serial", tracer=tracer
        )
        run_experiments(ExperimentContext(TuningFlow(config)), ids=["fig12"], ledger=False)
        counters = tracer.counters()
        assert counters["synth.calls"] == 9
        assert counters["sta.analyze_calls"] == 164
        assert counters["sta.arc_evaluations"] == 519517
