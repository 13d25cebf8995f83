"""The append-only run ledger: records, writes, env resolution.

One JSONL line per experiment run, written with the same single
``O_APPEND`` write contract as the trace exporter; reads must tolerate
torn lines and foreign schema versions, and the environment knob
``REPRO_LEDGER`` must redirect or disable recording.
"""

from __future__ import annotations

import json
import threading

from repro.experiments.base import ExperimentResult
from repro.flow.pipeline import StageRecord
from repro.observe.ledger import (
    LEDGER_VERSION,
    RunLedger,
    RunRecord,
    capture_run,
    default_ledger_path,
    metrics_from_result,
    resolve_ledger,
)


def _record(run_id="r1", experiment="fake", scale="tiny", **overrides):
    """A small but fully populated record for ledger tests."""
    fields = dict(
        run_id=run_id,
        timestamp=1000.0,
        experiment=experiment,
        scale=scale,
        fingerprints={"design": "abc"},
        host={"hostname": "h"},
        metrics={"sigma[a]": 1.0, "area[a]": 2.0},
        stages={
            "synth": {"count": 4, "seconds": 2.0, "hit": 3, "miss": 1},
            "statlib": {"count": 1, "seconds": 0.5, "computed": 1},
        },
        counters={"store.artifact.hit": 3},
        wall=3.25,
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestMetricsFromResult:
    """Flattening a result table into ``column[label]`` metrics."""

    def test_string_cells_label_numeric_cells(self):
        """Row labels join the string cells; every number is kept."""
        result = ExperimentResult(
            "fake",
            "stub",
            rows=[
                {"method": "vt", "point": "best", "sigma": 1.5, "area": 0.02},
                {"method": "lg", "point": "best", "sigma": 2.5, "area": 0.03},
            ],
        )
        metrics = metrics_from_result(result)
        assert metrics["sigma[vt/best]"] == 1.5
        assert metrics["area[lg/best]"] == 0.03
        assert len(metrics) == 4

    def test_none_and_bool_cells_skipped(self):
        """``None`` (no feasible point) and booleans are not metrics."""
        result = ExperimentResult(
            "fake",
            "stub",
            rows=[{"method": "vt", "sigma": None, "feasible": True, "n": 3}],
        )
        metrics = metrics_from_result(result)
        assert metrics == {"n[vt]": 3.0}

    def test_unlabeled_rows_fall_back_to_index(self):
        """A row with no string cell keys by its position."""
        result = ExperimentResult("fake", "stub", rows=[{"x": 1.0}, {"x": 2.0}])
        metrics = metrics_from_result(result)
        assert metrics == {"x[0]": 1.0, "x[1]": 2.0}


class TestRunRecord:
    """Payload round-trip and the derived execution figures."""

    def test_payload_round_trip(self):
        """``to_payload`` -> JSON -> ``from_payload`` is lossless."""
        record = _record()
        payload = json.loads(json.dumps(record.to_payload()))
        assert payload["version"] == LEDGER_VERSION
        rebuilt = RunRecord.from_payload(payload)
        assert rebuilt == record

    def test_hit_rate_over_all_stages(self):
        """3 hits out of 5 resolutions across both stages."""
        assert _record().hit_rate() == 3 / 5

    def test_hit_rate_none_without_stages(self):
        """No stage resolutions -> no rate (not a fake 0%)."""
        assert _record(stages={}).hit_rate() is None

    def test_stage_seconds_sums_stages(self):
        assert _record().stage_seconds() == 2.5


class TestRunLedger:
    """Appends, tolerant reads, filters."""

    def test_append_then_read_round_trips(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(_record("r1"))
        ledger.append(_record("r2"))
        records = ledger.read()
        assert [r.run_id for r in records] == ["r1", "r2"]
        assert records[0].metrics["sigma[a]"] == 1.0

    def test_read_missing_file_is_empty(self, tmp_path):
        assert RunLedger(tmp_path / "nope.jsonl").read() == []

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        """A torn line (crashed writer) and a future schema version
        must not fail the read — the good records still load."""
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record("good"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "run_id": "to')  # torn mid-record
            handle.write("\n")
            handle.write(json.dumps({"version": 999, "run_id": "future"}))
            handle.write("\n")
            handle.write("[1, 2]\n")  # JSON, but not a record object
        ledger.append(_record("also-good"))
        assert [r.run_id for r in ledger.read()] == ["good", "also-good"]

    def test_filters_and_last(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(_record("a1", experiment="fig10", scale="tiny"))
        ledger.append(_record("a2", experiment="fig10", scale="quick"))
        ledger.append(_record("b1", experiment="fig01", scale="tiny"))
        ledger.append(_record("a3", experiment="fig10", scale="tiny"))
        tiny = ledger.read(experiment="fig10", scale="tiny")
        assert [r.run_id for r in tiny] == ["a1", "a3"]
        assert [r.run_id for r in ledger.read(last=2)] == ["b1", "a3"]

    def test_latest_picks_the_newest_match(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        assert ledger.latest("fig10") is None
        ledger.append(_record("old", experiment="fig10"))
        ledger.append(_record("new", experiment="fig10"))
        assert ledger.latest("fig10").run_id == "new"
        assert ledger.latest("fig10", scale="paper") is None

    def test_concurrent_appends_never_tear(self, tmp_path):
        """Threaded appenders (one fd each, O_APPEND) interleave whole
        lines — every record parses back."""
        ledger = RunLedger(tmp_path / "ledger.jsonl")

        def append_batch(worker):
            for i in range(20):
                ledger.append(_record(f"w{worker}-{i}"))

        threads = [
            threading.Thread(target=append_batch, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(ledger.read()) == 80


class TestResolveLedger:
    """The ``REPRO_LEDGER`` knob: default, redirect, off."""

    def test_unset_uses_the_default_path(self, monkeypatch, tmp_path):
        """Default: ``ledger.jsonl`` beside the artifact store."""
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ledger = resolve_ledger()
        assert ledger is not None
        assert ledger.path == tmp_path / "ledger.jsonl"
        assert ledger.path == default_ledger_path()

    def test_off_values_disable(self, monkeypatch):
        for value in ("off", "OFF", "0", "none", "false", "  "):
            monkeypatch.setenv("REPRO_LEDGER", value)
            assert resolve_ledger() is None

    def test_path_redirects(self, monkeypatch, tmp_path):
        target = tmp_path / "elsewhere.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(target))
        ledger = resolve_ledger()
        assert ledger is not None and ledger.path == target


class _StubConfig:
    def scale_name(self):
        return "tiny"


class _StubFlow:
    """The slice of a TuningFlow that capture_run reads."""

    design_key = "d" * 16
    statlib_key = "s" * 16
    config = _StubConfig()
    _minimum_periods = {1.0: 2.5}


class TestCaptureRun:
    """Building a record from a finished run's pieces."""

    def test_captures_science_and_execution(self):
        result = ExperimentResult(
            "fake", "stub", rows=[{"method": "vt", "sigma": 1.5}]
        )
        stage_records = [
            StageRecord("synth", "k1", "hit", 1.0),
            StageRecord("synth", "k2", "miss", 3.0),
            StageRecord("statlib", "k3", "computed", 0.5),
        ]
        record = capture_run(
            "fake",
            result,
            _StubFlow(),
            stage_records=stage_records,
            counters={"store.artifact.hit": 1},
            wall=4.5,
        )
        assert record.experiment == "fake"
        assert record.scale == "tiny"
        assert record.metrics["sigma[vt]"] == 1.5
        assert record.metrics["minimum_period[1]"] == 2.5
        assert record.fingerprints == {
            "design": "d" * 16,
            "statlib": "s" * 16,
        }
        assert record.stages["synth"] == {
            "count": 2,
            "seconds": 4.0,
            "hit": 1,
            "miss": 1,
        }
        assert record.counters == {"store.artifact.hit": 1}
        assert record.wall == 4.5
        assert record.host["cpus"] >= 1
        assert len(record.run_id) == 12  # 6 random bytes, hex

    def test_run_ids_are_distinct(self):
        result = ExperimentResult("fake", "stub", rows=[])
        ids = {
            capture_run("fake", result, _StubFlow()).run_id for _ in range(8)
        }
        assert len(ids) == 8


class TestRunnerAutoLedger:
    """run_experiments appends one record per experiment by default."""

    def _stub_table(self, monkeypatch):
        import repro.experiments.runner as runner
        from repro.observe import get_metrics

        def fake_run(context):
            """Stub experiment growing a test-registered counter."""
            get_metrics().counter(
                "repro_test_fake_items_total", "Ledger probe."
            ).inc(2)
            return ExperimentResult(
                "fake", "stub", rows=[{"method": "vt", "sigma": 1.5}]
            )

        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", {"fake": fake_run})
        return runner

    def test_explicit_ledger_records_each_run(self, tmp_path, monkeypatch):
        runner = self._stub_table(monkeypatch)
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        runner.run_experiments(ids=["fake"], ledger=ledger)
        runner.run_experiments(ids=["fake"], ledger=ledger)
        records = ledger.read(experiment="fake")
        assert len(records) == 2
        assert records[0].metrics["sigma[vt]"] == 1.5
        assert records[0].counters["repro_test_fake_items_total"] == 2
        assert records[0].wall > 0

    def test_env_redirect_is_honored(self, tmp_path, monkeypatch):
        """``REPRO_LEDGER=<path>`` routes the default ledger there."""
        runner = self._stub_table(monkeypatch)
        target = tmp_path / "redirected.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(target))
        runner.run_experiments(ids=["fake"])
        assert len(RunLedger(target).read(experiment="fake")) == 1

    def test_ledger_false_disables(self, tmp_path, monkeypatch):
        runner = self._stub_table(monkeypatch)
        target = tmp_path / "redirected.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(target))
        runner.run_experiments(ids=["fake"], ledger=False)
        assert not target.exists()

    def test_env_off_disables(self, tmp_path, monkeypatch):
        runner = self._stub_table(monkeypatch)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_LEDGER", "off")
        runner.run_experiments(ids=["fake"])
        assert not (tmp_path / "ledger.jsonl").exists()
