"""The compiled level schedule against the scalar reference, under edits.

The synthesizer edits a timing graph two ways: it rebinds cells and
calls :meth:`~repro.sta.graph.TimingGraph.remap`, and it splits nets
with inverter pairs and rebuilds the graph.  After every such step the
vectorized pass must equal ``kernel="scalar"`` bit-for-bit on every
:class:`~repro.sta.engine.TimingResult` array and on the launches — and
so must a graph compiled from scratch, so a stale table id left behind
by ``remap`` cannot hide.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.flow.experiment import FlowConfig, TuningFlow
from repro.sta.engine import analyze
from repro.sta.graph import TimingGraph
from repro.synth.buffering import plan_groups, split_fanout
from repro.synth.constraints import SynthesisConstraints
from repro.synth.mapping import CellChoices
from repro.synth.synthesizer import synthesize

PERIOD = 2.5

RESULT_ARRAYS = (
    "arrival",
    "slew",
    "required",
    "arc_delay",
    "arc_transition",
    "endpoint_slacks",
)


@pytest.fixture(scope="module")
def tiny_synthesis():
    """The tiny-scale design, synthesized once against its library."""
    flow = TuningFlow(FlowConfig.from_env(scale="tiny", jobs=1, backend="serial"))
    library = flow.statistical_library
    constraints = SynthesisConstraints(clock_period=PERIOD)
    result = synthesize(flow.build_design(), library, constraints)
    return result.netlist, library, CellChoices(library, constraints)


def assert_bit_identical(fast, reference):
    for name in RESULT_ARRAYS:
        assert np.array_equal(getattr(fast, name), getattr(reference, name)), name
    assert list(fast.launches.items()) == list(reference.launches.items())


def assert_matches_references(graph):
    vectorized = analyze(graph, PERIOD, kernel="vectorized")
    assert_bit_identical(vectorized, analyze(graph, PERIOD, kernel="scalar"))
    fresh = TimingGraph(graph.netlist, graph.library)
    assert_bit_identical(vectorized, analyze(fresh, PERIOD, kernel="scalar"))


#: One resize move: (instance pick, upsize?) — picks index the netlist.
MOVES = st.lists(
    st.tuples(st.integers(0, 10**6), st.booleans()), min_size=1, max_size=40
)


@given(
    steps=st.lists(MOVES, min_size=1, max_size=3),
    split_pick=st.integers(0, 10**6),
)
@settings(
    max_examples=6,
    deadline=None,
    # one example is several full scalar passes: report the first
    # failure as drawn rather than spend minutes shrinking it
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_vectorized_equals_scalar_across_resizes_and_a_split(
    tiny_synthesis, steps, split_pick
):
    base, library, choices = tiny_synthesis
    netlist = copy.deepcopy(base)
    instances = list(netlist)
    graph = TimingGraph(netlist, library)
    assert_matches_references(graph)

    for moves in steps:
        for pick, upsize in moves:
            instance = instances[pick % len(instances)]
            variant = (
                choices.next_up(instance.cell)
                if upsize
                else choices.next_down(instance.cell)
            )
            if variant is not None:
                instance.cell = variant.cell_name
        graph.remap()
        assert_matches_references(graph)

    # one buffer split (a topology edit), then a full rebuild
    splittable = sorted(
        name
        for name, net in netlist.nets.items()
        if name != netlist.clock
        and sum(1 for sink in net.sinks if not sink.is_port) >= 2
    )
    net_name = splittable[split_pick % len(splittable)]
    _kept, groups = plan_groups(list(netlist.net(net_name).sinks), 2)
    split_fanout(netlist, net_name, groups, choices.smallest("INV").cell_name)
    graph = TimingGraph(netlist, library)
    assert graph.n_arcs > 0
    assert_matches_references(graph)
