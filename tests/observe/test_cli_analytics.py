"""The analytics CLI: ``trace``, ``report``, ``check``, ``store clear``.

Exit-code contracts end to end through :func:`repro.__main__.main`:
``trace diff`` and ``check`` are CI gates, so 0/1/2 must mean
pass/regression/cannot-run exactly — including the drill where a
perturbed baseline turns a passing ``check`` into exit 1.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.__main__ as cli
from repro.observe import JsonlExporter, Tracer, load_trace
from repro.observe.analyze import baseline_from_record
from repro.observe.ledger import RunLedger, RunRecord


def _write_trace(path, walls=(0.0,)):
    """Record one root span per wall time to ``path`` (truncating)."""
    tracer = Tracer(JsonlExporter(path, truncate=True))
    for _ in walls:
        with tracer.span("work"):
            pass
    tracer.finish()
    return path


def _fake_trace_line(path, name, wall):
    """Append one hand-built span line (controlled wall time)."""
    with open(path, "a", encoding="utf-8") as handle:
        record = {
            "type": "span",
            "trace": "hand",
            "id": f"hand-{name}",
            "parent": None,
            "name": name,
            "wall": wall,
            "cpu": wall,
        }
        handle.write(json.dumps(record) + "\n")


def _record(run_id="r1", metrics=None):
    return RunRecord(
        run_id=run_id,
        timestamp=1000.0,
        experiment="fake",
        scale="tiny",
        metrics=metrics if metrics is not None else {"sigma[vt]": 2.0},
        stages={"synth": {"count": 1, "seconds": 1.0, "hit": 1}},
        wall=1.5,
    )


@pytest.fixture
def ledger_path(tmp_path):
    """A ledger holding two runs of the ``fake`` experiment."""
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record("r1", metrics={"sigma[vt]": 2.0}))
    ledger.append(_record("r2", metrics={"sigma[vt]": 2.01}))
    return path


@pytest.fixture
def baseline_path(tmp_path, ledger_path):
    """A baseline the ledger's latest ``fake`` run satisfies."""
    baseline = baseline_from_record(
        _record("r2", metrics={"sigma[vt]": 2.01}), rtol=0.05
    )
    path = tmp_path / "fake.json"
    path.write_text(json.dumps(baseline, indent=2))
    return path


class TestStoreClear:
    """``store clear`` empties the one store, both codecs, and exits 0."""

    def test_clear_reports_both_halves(self, tmp_path, monkeypatch, capsys):
        """Libraries (``.npz``) and stage artifacts (``.json.gz``) go in
        one pass, reported on one line."""
        from repro.parallel.artifacts import ArtifactStore, fingerprint

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        store = ArtifactStore()
        store.store("stat", fingerprint({"lib": 1}), {"a": np.zeros(3)})
        store.store("synth", fingerprint({"run": 1}), {"met": True})
        assert cli.main(["store", "clear"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [f"removed 2 artifacts from {store.directory}"]
        assert store.stats().entries == 0


class TestTraceCli:
    """``trace summarize`` and ``trace diff`` exit codes."""

    def test_summarize_renders_paths(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "a.jsonl")
        assert cli.main(["trace", "summarize", str(path)]) == 0
        assert "work" in capsys.readouterr().out

    def test_summarize_missing_file_exits_2(self, tmp_path, capsys):
        code = cli.main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_diff_same_run_exits_0(self, tmp_path, capsys):
        """Two traces of the same (warm) run report no regressions."""
        a = _write_trace(tmp_path / "a.jsonl")
        b = _write_trace(tmp_path / "b.jsonl")
        assert cli.main(["trace", "diff", str(a), str(b)]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_diff_regression_exits_1(self, tmp_path, capsys):
        """Wall-time growth beyond rtol and the floor fails the gate."""
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.touch()
        b.touch()
        _fake_trace_line(a, "stage.synth", 1.0)
        _fake_trace_line(b, "stage.synth", 2.0)
        assert cli.main(["trace", "diff", str(a), str(b)]) == 1
        assert "<< regression" in capsys.readouterr().out

    def test_diff_thresholds_are_flags(self, tmp_path):
        """A generous --rtol turns the same comparison back to 0."""
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.touch()
        b.touch()
        _fake_trace_line(a, "stage.synth", 1.0)
        _fake_trace_line(b, "stage.synth", 2.0)
        assert cli.main(["trace", "diff", str(a), str(b), "--rtol", "2"]) == 0


class TestTraceTruncateSemantics:
    """Reusing one ``--trace`` path keeps only the latest run."""

    def _run_traced_stub(self, monkeypatch, path):
        import repro.experiments.runner as runner
        from repro.experiments.base import ExperimentResult
        from repro.observe import get_tracer

        def fake_run(context):
            """Stub experiment recording one span."""
            with get_tracer().span("fake.work"):
                pass
            return ExperimentResult("fake", "stub", rows=[])

        fake_table = {"fake": fake_run}
        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", fake_table)
        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", fake_table)
        monkeypatch.setenv("REPRO_LEDGER", "off")  # trace semantics only
        assert cli.main(["fake", "--trace", str(path)]) == 0

    def test_cli_reuse_truncates(self, tmp_path, monkeypatch):
        """Two runs through the same path leave exactly one trace —
        spans don't double and a single trace id remains."""
        path = tmp_path / "out.jsonl"
        self._run_traced_stub(monkeypatch, path)
        first = load_trace(path)
        self._run_traced_stub(monkeypatch, path)
        second = load_trace(path)
        assert len(second.trace_ids) == 1
        assert len(second.spans) == len(first.spans)

    def test_appending_exporter_on_recycled_path_is_flagged(
        self, tmp_path, monkeypatch, capsys
    ):
        """The programmatic default (append) on a used path interleaves
        two trace ids; ``summarize`` warns instead of silently summing."""
        path = tmp_path / "out.jsonl"
        self._run_traced_stub(monkeypatch, path)
        joiner = Tracer(JsonlExporter(path))  # append: a second trace id
        with joiner.span("late.work"):
            pass
        joiner.finish()
        assert len(load_trace(path).trace_ids) == 2
        capsys.readouterr()
        assert cli.main(["trace", "summarize", str(path)]) == 0
        assert "interleaved traces" in capsys.readouterr().out


class TestReportCli:
    """``report`` renders the ledger and always exits 0."""

    def test_report_renders_two_runs(self, ledger_path, capsys):
        assert cli.main(["report", "--ledger", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "## fake @ tiny — 2 runs" in out
        assert "| r1 |" in out and "| r2 |" in out
        assert "metric movement" in out

    def test_report_empty_ledger(self, tmp_path, capsys):
        path = tmp_path / "none.jsonl"
        assert cli.main(["report", "--ledger", str(path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_report_filters_by_experiment(self, ledger_path, capsys):
        code = cli.main(
            ["report", "--ledger", str(ledger_path), "--experiment", "other"]
        )
        assert code == 0
        assert "empty" in capsys.readouterr().out


class TestCheckCli:
    """``check`` is the regression gate: 0 pass, 1 drift, 2 can't run."""

    def test_matching_baseline_exits_0(self, ledger_path, baseline_path, capsys):
        code = cli.main(
            ["check", "--baseline", str(baseline_path),
             "--ledger", str(ledger_path)]
        )
        assert code == 0
        assert "check ok" in capsys.readouterr().out

    def test_perturbed_baseline_exits_1(
        self, tmp_path, ledger_path, baseline_path, capsys
    ):
        """The acceptance drill: inflate one baseline metric beyond the
        tolerance and the same invocation flips from 0 to 1."""
        baseline = json.loads(baseline_path.read_text())
        baseline["metrics"]["sigma[vt]"] *= 1.5
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(baseline))
        code = cli.main(
            ["check", "--baseline", str(perturbed),
             "--ledger", str(ledger_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL: metric drift: sigma[vt]" in out
        assert "check failed" in out

    def test_rtol_override_loosens_the_gate(
        self, tmp_path, ledger_path, baseline_path
    ):
        baseline = json.loads(baseline_path.read_text())
        baseline["metrics"]["sigma[vt]"] *= 1.5
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(baseline))
        code = cli.main(
            ["check", "--baseline", str(perturbed),
             "--ledger", str(ledger_path), "--rtol", "0.9"]
        )
        assert code == 0

    def test_unreadable_baseline_exits_2(self, ledger_path, tmp_path, capsys):
        code = cli.main(
            ["check", "--baseline", str(tmp_path / "missing.json"),
             "--ledger", str(ledger_path)]
        )
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_no_matching_ledger_record_exits_2(
        self, tmp_path, baseline_path, capsys
    ):
        code = cli.main(
            ["check", "--baseline", str(baseline_path),
             "--ledger", str(tmp_path / "empty.jsonl")]
        )
        assert code == 2
        assert "no ledger record" in capsys.readouterr().err

    def test_update_refreshes_the_baseline(
        self, tmp_path, ledger_path, baseline_path, capsys
    ):
        """--update rewrites a drifting baseline from the latest run,
        after which the plain check passes again."""
        baseline = json.loads(baseline_path.read_text())
        baseline["metrics"]["sigma[vt]"] *= 1.5
        drifting = tmp_path / "drifting.json"
        drifting.write_text(json.dumps(baseline))
        argv = ["check", "--baseline", str(drifting),
                "--ledger", str(ledger_path)]
        assert cli.main(argv) == 1
        assert cli.main(argv + ["--update"]) == 0
        assert "baseline refreshed" in capsys.readouterr().out
        refreshed = json.loads(drifting.read_text())
        assert refreshed["metrics"]["sigma[vt]"] == 2.01
        assert cli.main(argv) == 0
