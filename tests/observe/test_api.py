"""The redesigned top-level surface: lazy exports, CLI, config errors.

``import repro`` must stay cheap (the curated names resolve lazily on
first touch), the CLI must accept the shared execution flags everywhere
(and reject the removed ``cache`` alias), and the environment knobs
must fail loudly on typos.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.errors import ConfigError, ReproError


class TestLazyPackage:
    """`import repro` is light; attributes resolve on first access."""

    def test_import_is_lazy(self):
        """Importing the package must not pull in the numeric stack or
        the flow machinery (checked in a pristine interpreter)."""
        import os
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        code = (
            "import sys; import repro; "
            "heavy = [m for m in ('numpy', 'repro.flow', 'repro.synth', "
            "'repro.characterization') if m in sys.modules]; "
            "assert not heavy, f'eagerly imported: {heavy}'; "
            "print('lazy-ok')"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert "lazy-ok" in result.stdout

    def test_all_public_names_resolve(self):
        """Every name in ``__all__`` is importable from the top level."""
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_expected_surface(self):
        """The curated API covers the flow, pipeline, characterization,
        catalog and tracing entry points."""
        import repro

        for name in (
            "TuningFlow",
            "FlowConfig",
            "SynthesisRun",
            "ArtifactPipeline",
            "Tracer",
            "build_catalog",
            "Characterizer",
        ):
            assert name in repro.__all__

    def test_unknown_attribute_raises(self):
        """A missing attribute raises AttributeError, not ImportError."""
        import repro

        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_dir_lists_exports(self):
        """``dir(repro)`` advertises the lazy names for tab completion."""
        import repro

        assert set(repro.__all__) <= set(dir(repro))

    def test_top_level_import_matches_deep_import(self):
        """The lazy re-export is the same object as the deep import."""
        import repro
        from repro.flow.experiment import TuningFlow
        from repro.observe.tracer import Tracer

        assert repro.TuningFlow is TuningFlow
        assert repro.Tracer is Tracer


class TestConfigValidation:
    """Environment knobs fail loudly instead of silently defaulting."""

    def test_bad_scale_raises_config_error(self, monkeypatch):
        """A typo'd REPRO_SCALE names the bad value and the options."""
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_SCALE", "tiyn")
        with pytest.raises(ConfigError, match="tiyn"):
            FlowConfig.from_environment()

    def test_config_error_is_a_repro_error(self):
        """ConfigError slots into the package exception hierarchy."""
        assert issubclass(ConfigError, ReproError)

    def test_non_integer_jobs_raises(self, monkeypatch):
        """REPRO_JOBS must be an integer."""
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            FlowConfig.from_environment()

    def test_negative_jobs_raises(self, monkeypatch):
        """REPRO_JOBS must be >= 0 (0 = one worker per CPU)."""
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ConfigError, match=">= 0"):
            FlowConfig.from_environment()

    def test_valid_environment_accepted(self, monkeypatch):
        """The happy path still works, whitespace and case tolerated."""
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_SCALE", " Tiny ")
        monkeypatch.setenv("REPRO_JOBS", "3")
        config = FlowConfig.from_environment()
        assert config.n_workers == 3


class TestFromEnvPrecedence:
    """from_env: explicit argument > environment > default, per knob."""

    def test_defaults_without_env(self, monkeypatch):
        from repro.flow.experiment import FlowConfig

        for name in ("REPRO_SCALE", "REPRO_JOBS", "REPRO_KERNEL",
                     "REPRO_BACKEND"):
            monkeypatch.delenv(name, raising=False)
        config = FlowConfig.from_env()
        assert config.scale_name() == "quick"
        assert config.n_workers == 1
        assert config.cache is True
        assert config.tracer is None

    def test_environment_beats_default(self, monkeypatch):
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        config = FlowConfig.from_env()
        assert config.scale_name() == "tiny"
        assert config.n_workers == 4
        assert config.kernel == "scalar"
        assert config.backend == "serial"

    def test_explicit_argument_beats_environment(self, monkeypatch):
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        config = FlowConfig.from_env(
            scale="quick", jobs=2, kernel="vectorized", backend="process",
            cache=False,
        )
        assert config.scale_name() == "quick"
        assert config.n_workers == 2
        assert config.kernel == "vectorized"
        assert config.backend == "process"
        assert config.cache is False

    def test_explicit_bad_values_fail_loudly(self):
        from repro.flow.experiment import FlowConfig

        with pytest.raises(ConfigError, match="bogus"):
            FlowConfig.from_env(scale="bogus")
        with pytest.raises(ConfigError, match=">= 0"):
            FlowConfig.from_env(jobs=-1)
        with pytest.raises(ConfigError, match="unknown kernel"):
            FlowConfig.from_env(kernel="turbo")
        with pytest.raises(ConfigError, match="unknown backend"):
            FlowConfig.from_env(backend="cloud")

    def test_metrics_knob_resolves_with_same_precedence(self, monkeypatch):
        from repro.flow.experiment import FlowConfig

        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert FlowConfig.from_env().metrics is True
        monkeypatch.setenv("REPRO_METRICS", "off")
        assert FlowConfig.from_env().metrics is False
        assert FlowConfig.from_env(metrics=True).metrics is True
        monkeypatch.setenv("REPRO_METRICS", "maybe")
        with pytest.raises(ConfigError, match="REPRO_METRICS"):
            FlowConfig.from_env()

    def test_metrics_field_does_not_change_config_identity(self):
        """Flow memo keys and fingerprints ignore the metrics toggle."""
        from dataclasses import replace

        from repro.flow.experiment import FlowConfig

        config = FlowConfig.tiny()
        assert replace(config, metrics=False) == config

    def test_from_environment_is_a_thin_alias(self, monkeypatch):
        """The original entry point and from_env agree."""
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert FlowConfig.from_environment() == FlowConfig.from_env()

    def test_build_context_goes_through_from_env(self, monkeypatch):
        """CLI knobs override the environment via the one resolver."""
        from repro.experiments.runner import build_context

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_JOBS", "4")
        context = build_context(jobs=2, backend="serial")
        assert context.flow.config.n_workers == 2
        assert context.flow.config.backend == "serial"
        assert context.flow.config.scale_name() == "tiny"


class TestCliSurface:
    """Subcommand layout: shared flags, store, id shorthand."""

    def test_experiment_id_shorthand(self):
        """``python -m repro fig10 ...`` rewrites to ``run fig10 ...``."""
        from repro.__main__ import _normalize_argv

        assert _normalize_argv(["fig10", "--profile"]) == [
            "run",
            "fig10",
            "--profile",
        ]
        assert _normalize_argv(["list"]) == ["list"]
        assert _normalize_argv([]) == []

    def test_run_accepts_shared_flags(self):
        """The parent parser wires every execution flag into ``run``."""
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args(
            ["run", "fig10", "-j", "2", "--no-cache", "--manifest",
             "--trace", "out.jsonl", "--profile"]
        )
        assert args.ids == ["fig10"]
        assert args.jobs == 2
        assert args.no_cache and args.manifest and args.profile
        assert args.trace == "out.jsonl"

    def test_store_stats(self, capsys):
        """``store stats`` prints one line for the one store and exits 0."""
        from repro.__main__ import main

        assert main(["store", "stats"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert "artifacts" in out

    def test_cache_alias_removed(self, capsys):
        """The deprecated ``cache`` alias is gone: the parser rejects it
        with a usage error naming the surviving subcommands."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "stats"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'cache'" in capsys.readouterr().err

    def test_backend_queue_is_a_choice_error(self, capsys):
        """``--backend`` accepts only ``serial`` and ``process``."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig02", "--backend", "queue"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'queue'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knob, message",
        [
            ("REPRO_SCALE=bogus", "unknown REPRO_SCALE 'bogus'"),
            ("REPRO_BACKEND=queue", "use one of serial, process"),
        ],
    )
    def test_repro_error_is_one_stderr_line(self, knob, message, tmp_path):
        """A bad knob ends the command with exit code 2 and one
        ``error: <Type>: <message>`` line — no traceback."""
        import os
        from pathlib import Path

        import repro

        name, value = knob.split("=")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        env["REPRO_LEDGER"] = "off"
        env[name] = value
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig02"],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: ConfigError: ")
        assert message in lines[0]

    def test_serve_subcommand_parses(self):
        """``serve`` accepts its own flags plus the shared execution
        flags (one parent parser — the consolidated knob surface)."""
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--port", "0", "--scale", "tiny",
             "--backend", "serial", "--max-pending", "3", "-j", "2"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.scale == "tiny"
        assert args.backend == "serial"
        assert args.max_pending == 3
        assert args.jobs == 2

    def test_serve_rejects_no_cache(self, capsys):
        """``serve --no-cache`` fails loudly: warm hits stream from the
        artifact store, so the service cannot run without it."""
        from repro.__main__ import main

        assert main(["serve", "--no-cache", "--port", "0"]) == 2
        assert "cache" in capsys.readouterr().err

    def test_traced_run_writes_jsonl_and_profile(
        self, tmp_path, monkeypatch, capsys
    ):
        """A traced CLI run (against a stub experiment) writes a
        readable JSONL trace and prints the time tree."""
        import repro.__main__ as cli
        import repro.experiments.runner as runner
        from repro.experiments.base import ExperimentResult
        from repro.observe import get_tracer, load_trace
        from repro.observe.catalog import SYNTH_CALLS

        def fake_run(context):
            """Stub experiment recording one span and one counter."""
            with get_tracer().span("fake.work"):
                SYNTH_CALLS.inc(3)
            return ExperimentResult("fake", "stub", rows=[])

        fake_table = {"fake": fake_run}
        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", fake_table)
        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", fake_table)
        path = tmp_path / "out.jsonl"
        assert cli.main(["fake", "--trace", str(path), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "spans written to" in out
        assert "experiment.fake" in out  # the rendered tree
        trace = load_trace(path)
        assert "fake.work" in trace.span_names()
        assert trace.counters["synth.calls"] == 3

    def test_trace_dir_writes_per_experiment_artifacts(
        self, tmp_path, monkeypatch
    ):
        """``--trace-dir`` produces one ``<id>.trace.jsonl`` per
        experiment, each a self-contained trace."""
        import repro.__main__ as cli
        import repro.experiments.runner as runner
        from repro.experiments.base import ExperimentResult
        from repro.observe import get_tracer, load_trace
        from repro.observe.catalog import SYNTH_CALLS

        def make_run(experiment_id):
            """A stub experiment factory recording one counted span."""

            def run(context):
                """Stub experiment body."""
                with get_tracer().span("stub.work"):
                    SYNTH_CALLS.inc()
                return ExperimentResult(experiment_id, "stub", rows=[])

            return run

        fake_table = {"one": make_run("one"), "two": make_run("two")}
        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", fake_table)
        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", fake_table)
        directory = tmp_path / "traces"
        assert cli.main(["run", "--all", "--trace-dir", str(directory)]) == 0
        for experiment_id in ("one", "two"):
            trace = load_trace(directory / f"{experiment_id}.trace.jsonl")
            assert f"experiment.{experiment_id}" in trace.span_names()
            assert "stub.work" in trace.span_names()
            assert trace.counters["synth.calls"] == 1
