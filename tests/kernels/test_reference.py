"""The reference seam itself: complete, effective, and import-safe.

An equivalence test is only as good as its substitution: a batched call
site missing from :data:`~tests.kernels.reference.REFERENCE_SITES`
would run production code in both legs and compare it with itself.
"""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import repro
from repro.characterization import characterize
from repro.kernels import sta as kernels_sta
from repro.kernels.sta import worst_arc_values, worst_values
from repro.sta.engine import analyze
from repro.sta.graph import TimingGraph
from tests.kernels.reference import REFERENCE_SITES, reference_kernels

#: The batched functions the reference sites stand in for.
BATCHED = {
    "worst_arc_values": worst_arc_values,
    "worst_values": worst_values,
    "batched_arc_tables": characterize.batched_arc_tables,
    "batched_arc_energy": characterize.batched_arc_energy,
}


def test_every_batched_call_site_is_substituted():
    """Every module outside ``repro.kernels`` that binds a batched
    function is a reference site."""
    bound = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith("repro.kernels"):
            continue
        module = importlib.import_module(info.name)
        for name, function in BATCHED.items():
            if getattr(module, name, None) is function:
                bound.add((info.name, name))
    assert bound == {(module, name) for module, name, _ in REFERENCE_SITES}


def test_substitution_takes_effect_and_is_undone():
    with reference_kernels():
        for module, name, reference in REFERENCE_SITES:
            assert getattr(importlib.import_module(module), name) is reference
    for module, name, _ in REFERENCE_SITES:
        assert getattr(importlib.import_module(module), name) is BATCHED[name]


def test_analyze_reaches_the_scalar_lookups(
    adder_netlist, statistical_library, monkeypatch
):
    """Under the references an STA pass looks up every table of every
    arc and launch with one scalar ``bilinear_interpolate`` call: the
    level loop's slew half is substituted, not only the launches."""
    graph = TimingGraph(adder_netlist, statistical_library)
    calls = []
    scalar = kernels_sta.bilinear_interpolate

    def counted(lut, slew, load):
        calls.append(lut)
        return scalar(lut, slew, load)

    monkeypatch.setattr(kernels_sta, "bilinear_interpolate", counted)
    analyze(graph, 2.0)
    assert calls == []
    with reference_kernels():
        analyze(graph, 2.0)
    assert len(calls) == 4 * (graph.n_arcs + len(graph.launches))
    assert graph.n_arcs > len(graph.launches) > 0


def test_kernels_package_imports_first():
    """`import repro.kernels` before anything else must not cycle.

    The test suite always pulls in `repro.characterization` first, which
    masks the `kernels.characterization <-> characterize` import cycle;
    a fresh interpreter with kernels imported first is the honest probe.
    """
    script = (
        "import repro.kernels, repro.characterization; "
        "print(repro.kernels.scalar_arc_tables.__module__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "repro.kernels.characterization"
