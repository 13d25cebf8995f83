"""One compiled design per flow, shared by every synthesis.

A flow compiles its evaluation design once
(:attr:`~repro.flow.experiment.TuningFlow.compiled_design`); every
synthesis run and min-period probe binds its own cells on it and
buffers on copies of its arrays, so no run copies or edits the
netlist, no run sees another's edits, and no live timing graph
outlives the call that synthesized it.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pytest

from repro.flow.experiment import FlowConfig, TuningFlow
from repro.netlist.model import Netlist
from repro.sta.graph import CompiledDesign, TimingGraph

#: A tight and a relaxed clock of the tiny design (ns).
TIGHT, RELAXED = 1.56, 2.49
#: The tightest sigma ceiling: its tuned runs buffer.
METHOD, PARAMETER = "sigma_ceiling", 0.01


def tiny_flow() -> TuningFlow:
    return TuningFlow(
        replace(FlowConfig.from_env(scale="tiny", jobs=1, backend="serial"), cache=False)
    )


@pytest.fixture(scope="module")
def library():
    return tiny_flow().statistical_library


def fresh_flow(library) -> TuningFlow:
    """A new flow sharing the module's statistical library."""
    flow = tiny_flow()
    flow._statistical = library
    return flow


def stored_bytes(run) -> dict:
    return {name: array.tobytes() for name, array in run.to_arrays().items()}


def test_two_syntheses_give_the_same_artifacts_in_either_order(library):
    first, second = fresh_flow(library), fresh_flow(library)
    tuned_first = first.tuned(TIGHT, METHOD, PARAMETER)
    baseline_second = first.baseline(RELAXED)
    baseline_first = second.baseline(RELAXED)
    tuned_second = second.tuned(TIGHT, METHOD, PARAMETER)
    assert stored_bytes(tuned_first) == stored_bytes(tuned_second)
    assert stored_bytes(baseline_first) == stored_bytes(baseline_second)
    assert tuned_first.result.buffer_instances > 0  # a run that buffered


def test_four_points_compile_once_and_copy_no_netlist(library, monkeypatch):
    compiles, copies = [], []
    compile_design, copy = CompiledDesign.of.__func__, Netlist.copy

    def counting_compile(cls, netlist, config=None):
        compiles.append(netlist)
        return compile_design(cls, netlist, config)

    def counting_copy(netlist):
        copies.append(netlist)
        return copy(netlist)

    monkeypatch.setattr(CompiledDesign, "of", classmethod(counting_compile))
    monkeypatch.setattr(Netlist, "copy", counting_copy)
    flow = fresh_flow(library)
    for period in (TIGHT, RELAXED):
        flow.compare(period, METHOD, PARAMETER)
    assert len(flow._runs) == 4
    assert len(compiles) == 1
    assert copies == []


def test_a_run_shares_the_flow_design_until_it_buffers(library):
    flow = fresh_flow(library)
    compiled = flow.compiled_design
    relaxed = flow.baseline(RELAXED).result
    assert relaxed.buffer_instances == 0
    assert relaxed.timing.graph.compiled is compiled
    tuned = flow.tuned(TIGHT, METHOD, PARAMETER).result
    assert tuned.buffer_instances > 0
    assert tuned.timing.graph.compiled is not compiled
    assert tuned.n_instances == len(compiled.design) + tuned.buffer_instances
    # the shared design is untouched by the run that buffered
    assert flow.compiled_design is compiled
    assert len(compiled.design) == len(flow.build_design())
    # the run's netlist is made on request, from its arrays
    netlist = tuned.netlist
    assert len(netlist) == tuned.n_instances
    assert TimingGraph(netlist, library).cell_ids.tolist() == tuned.timing.graph.cell_ids.tolist()
    assert np.array_equal(
        TimingGraph(netlist, library).loads, tuned.timing.graph.loads
    )


def test_no_timing_graph_outlives_its_points(library):
    flow = fresh_flow(library)
    for period in (TIGHT, RELAXED):
        flow.compare(period, METHOD, PARAMETER)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, TimingGraph)]
