"""Kernel selection plumbing: globals, config, environment and CLI.

The kernel knob must behave exactly like ``n_workers``: an execution
choice that is validated loudly everywhere it can enter (constructor,
config, environment variable, CLI flag) and that never leaks past the
scope that set it.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.__main__ import _build_parser
from repro.characterization.characterize import Characterizer
from repro.errors import ConfigError
from repro.experiments.runner import build_context
from repro.flow.experiment import FlowConfig, TuningFlow
from repro.kernels.dispatch import (
    DEFAULT_KERNEL,
    KERNEL_NAMES,
    get_kernel,
    resolve_kernel,
    set_kernel,
    use_kernel,
    validate_kernel,
)
from repro.sta.engine import analyze


class TestGlobalState:
    def test_default_kernel_is_vectorized(self):
        assert DEFAULT_KERNEL == "vectorized"
        assert set(KERNEL_NAMES) == {"scalar", "vectorized"}

    def test_set_kernel_returns_previous_and_installs(self):
        previous = set_kernel("scalar")
        try:
            assert get_kernel() == "scalar"
        finally:
            set_kernel(previous)
        assert get_kernel() == previous

    def test_use_kernel_restores_on_exit(self):
        before = get_kernel()
        with use_kernel("scalar") as active:
            assert active == "scalar"
            assert get_kernel() == "scalar"
        assert get_kernel() == before

    def test_use_kernel_restores_on_exception(self):
        before = get_kernel()
        with pytest.raises(RuntimeError):
            with use_kernel("scalar"):
                raise RuntimeError("boom")
        assert get_kernel() == before

    def test_resolve_kernel_defaults_to_active(self):
        with use_kernel("scalar"):
            assert resolve_kernel(None) == "scalar"
            assert resolve_kernel("vectorized") == "vectorized"

    @pytest.mark.parametrize("name", ["", "Vectorized", "simd", "scalar "])
    def test_bad_names_raise_config_error(self, name):
        with pytest.raises(ConfigError, match="unknown kernel"):
            validate_kernel(name)

    def test_set_kernel_rejects_bad_name_without_switching(self):
        before = get_kernel()
        with pytest.raises(ConfigError):
            set_kernel("bogus")
        assert get_kernel() == before


def test_kernels_package_imports_first():
    """`import repro.kernels` before anything else must not cycle.

    The test suite always pulls in `repro.characterization` first, which
    masks the `kernels.characterization <-> characterize` import cycle;
    a fresh interpreter with kernels imported first is the honest probe.
    """
    script = (
        "import repro.kernels, repro.characterization; "
        "print(repro.kernels.get_kernel())"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "vectorized"


class TestEntryPointValidation:
    def test_characterizer_validates_kernel_eagerly(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            Characterizer(kernel="bogus")

    def test_characterizer_adopts_active_kernel(self):
        with use_kernel("scalar"):
            assert Characterizer().kernel == "scalar"
        assert Characterizer(kernel="vectorized").kernel == "vectorized"

    def test_analyze_validates_kernel(self, chain_netlist, statistical_library):
        from repro.sta.graph import TimingGraph

        graph = TimingGraph(chain_netlist, statistical_library)
        with pytest.raises(ConfigError, match="unknown kernel"):
            analyze(graph, 2.0, kernel="bogus")


class TestFlowConfig:
    def test_default_matches_dispatch_default(self):
        assert FlowConfig().kernel == DEFAULT_KERNEL

    def test_from_environment_reads_repro_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert FlowConfig.from_env().kernel == "scalar"
        monkeypatch.setenv("REPRO_KERNEL", "  VECTORIZED ")
        assert FlowConfig.from_env().kernel == "vectorized"

    def test_from_environment_rejects_bad_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ConfigError, match="unknown kernel"):
            FlowConfig.from_env()

    def test_tuning_flow_installs_config_kernel(self):
        with use_kernel("vectorized"):
            flow = TuningFlow(FlowConfig(kernel="scalar", cache=False))
            assert get_kernel() == "scalar"
            assert flow.characterizer.kernel == "scalar"

    def test_build_context_kernel_override(self):
        context = build_context(cache=False, kernel="scalar")
        assert context.flow.config.kernel == "scalar"
        with pytest.raises(ConfigError, match="unknown kernel"):
            build_context(cache=False, kernel="warp")


class TestCli:
    def test_run_accepts_kernel_flag(self):
        parser = _build_parser()
        args = parser.parse_args(["run", "--kernel", "scalar"])
        assert args.kernel == "scalar"
        assert parser.parse_args(["run"]).kernel is None

    def test_run_rejects_unknown_kernel(self, capsys):
        parser = _build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--kernel", "warp"])
        assert "invalid choice" in capsys.readouterr().err
