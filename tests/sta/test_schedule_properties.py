"""The compiled level schedule against the scalar reference, under edits.

The synthesizer edits a timing graph two ways: it rebinds cells and
calls :meth:`~repro.sta.graph.TimingGraph.remap`, and it splits nets
with inverter pairs and rebuilds the graph.  After every such step the
batched pass must equal the scalar reference bit-for-bit on every
:class:`~repro.sta.engine.TimingResult` array and on the launches — and
so must a graph compiled from scratch, so a stale table id left behind
by ``remap`` cannot hide.  ``remap`` patches only what the changed
cells touch, so its mapping-dependent state — the cached load half of
every arc's lookups included — must also equal a fresh graph's, bit
for bit, after every resize step.  A library whose cells mix LUT grid
shapes runs the same level loop and must match the reference too.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.cells.naming import parse_cell_name
from repro.flow.experiment import FlowConfig, TuningFlow
from repro.kernels.sta import LoadSide
from repro.liberty.lut import bilinear_interpolate
from repro.liberty.model import Lut
from repro.sta.engine import analyze
from repro.sta.graph import TimingGraph
from repro.synth.buffering import plan_groups, split_fanout
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import synthesize
from tests.kernels.reference import reference_kernels
from tests.synth.reference import CellChoices

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
    batched = analyze(graph, PERIOD)
    fresh = TimingGraph(graph.netlist, graph.library)
    with reference_kernels():
        assert_bit_identical(batched, analyze(graph, PERIOD))
        assert_bit_identical(batched, analyze(fresh, PERIOD))


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
        graph.remap(graph.design.read_cells())
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


def assert_same_mapping(graph, fresh):
    """Every binding-dependent array of ``graph`` equals ``fresh``'s,
    compared as raw bytes (so a ``-0.0`` or a rounding cannot hide)."""
    for name in ("loads", "arc_tables", "endpoint_setups", "launch_q", "launch_tables"):
        ours, theirs = getattr(graph, name), getattr(fresh, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    for name in LoadSide.__slots__:
        ours, theirs = getattr(graph.load_side, name), getattr(fresh.load_side, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert graph.launches == fresh.launches
    assert graph.endpoints == fresh.endpoints


@given(
    steps=st.lists(st.tuples(MOVES, MOVES), min_size=1, max_size=4),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_diff_remap_equals_a_fresh_graph(tiny_synthesis, steps):
    base, library, choices = tiny_synthesis
    netlist = base.copy()
    instances = list(netlist)
    sequential = [instance for instance in instances if instance.is_sequential]
    graph = TimingGraph(netlist, library)
    for any_moves, sequential_moves in steps:
        for pool, moves in ((instances, any_moves), (sequential, sequential_moves)):
            for pick, upsize in moves:
                instance = pool[pick % len(pool)]
                variant = (
                    choices.next_up(instance.cell)
                    if upsize
                    else choices.next_down(instance.cell)
                )
                if variant is not None:
                    instance.cell = variant.cell_name
        graph.remap(graph.design.read_cells())
        assert_same_mapping(graph, TimingGraph(netlist, library))
    # a remap without changes keeps the state
    graph.remap(graph.design.read_cells())
    assert_same_mapping(graph, TimingGraph(netlist, library))


def _regridded(lut, n_slew, n_load):
    """``lut`` resampled onto an ``(n_slew, n_load)`` grid over its own
    axis ranges."""
    slews = np.geomspace(lut.index_1[0], lut.index_1[-1], n_slew)
    loads = np.geomspace(lut.index_2[0], lut.index_2[-1], n_load)
    values = [[bilinear_interpolate(lut, slew, load) for load in loads] for slew in slews]
    return Lut(slews, loads, values)


TIMING_TABLES = ("cell_rise", "cell_fall", "rise_transition", "fall_transition")


@given(
    n_slew=st.sampled_from([2, 3, 5, 8, 9]),
    n_load=st.integers(2, 8),
    data=st.data(),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mixed_grid_shapes_match_the_reference(
    adder_netlist, statistical_library, n_slew, n_load, data
):
    """Some of the design's cells regridded to a second shape (narrower
    or wider slew axis than the characterizer's): the padded level
    loop equals the scalar reference, before and after a resize, and
    ``remap`` equals a fresh graph."""
    library = copy.deepcopy(statistical_library)
    netlist = adder_netlist.copy()
    variants = {}
    for cell in library:
        variants.setdefault(parse_cell_name(cell.name).family, []).append(cell.name)
    # bind the instances round-robin over their variants, so the levels
    # hold several cells of each family
    for position, instance in enumerate(netlist):
        choices = variants[instance.family]
        instance.cell = choices[position % len(choices)]
    bound = sorted({instance.cell for instance in netlist if not instance.is_sequential})
    regrid = data.draw(
        st.lists(st.booleans(), min_size=len(bound), max_size=len(bound)).filter(
            lambda flags: 0 < sum(flags) < len(flags)
        )
    )
    for name, flag in zip(bound, regrid):
        if flag:
            for _pin, arc in library.cell(name).arcs():
                for field in TIMING_TABLES:
                    lut = getattr(arc, field)
                    if lut is not None:
                        setattr(arc, field, _regridded(lut, n_slew, n_load))
    graph = TimingGraph(netlist, library)
    shapes = {graph.tables.luts[tid].shape for tid in graph.arc_tables.ravel().tolist()}
    assert len(shapes) == 2
    assert_matches_references(graph)

    # resize some instances to any variant of their family, then remap
    for instance in data.draw(st.lists(st.sampled_from(list(netlist)), max_size=12)):
        instance.cell = data.draw(st.sampled_from(variants[instance.family]))
    graph.remap(graph.design.read_cells())
    assert_same_mapping(graph, TimingGraph(netlist, library))
    assert_matches_references(graph)
