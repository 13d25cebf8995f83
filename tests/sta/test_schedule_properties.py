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
for bit, after every resize step.  A graph bound on a shared
:class:`~repro.sta.graph.CompiledDesign` (the synthesizer's graphs)
must equal a graph compiled from the netlist, array for array, under
any binding and after remaps; the compiled arrays it shares are
read-only.  (``tests/synth/test_buffer_replay.py`` holds the graphs
bound after every array buffer round to the same equality.)  A library
whose cells mix LUT grid shapes runs the same level loop and must
match the reference too.
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
from repro.sta.graph import CompiledDesign, TimingGraph
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import synthesize
from tests.kernels.reference import reference_kernels
from tests.synth.reference import CellChoices, plan_groups, split_fanout

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
        graph.remap(graph.read_cells())
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


def assert_same_arrays(ours, theirs, names):
    for name in names:
        mine, other = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == other.dtype and mine.shape == other.shape, name
        assert mine.tobytes() == other.tobytes(), name


#: Every array of :class:`DesignArrays`.
DESIGN_ARRAYS = (
    "family_ids", "out_ptr", "out_nets", "pin_run", "in_ptr", "in_nets", "in_slot",
    "arc_ptr", "arc_src", "arc_dst", "clock_net", "driver", "sink_ptr",
    "sink_owner", "sink_slot", "n_ports", "sink_nets", "out_owner", "in_owner",
    "arc_owner", "arc_slot", "is_sequential",
)

#: Every array of :class:`CompiledDesign` beyond its design.
TOPOLOGY_ARRAYS = (
    "launch_owners", "endpoint_owners", "arc_owners", "arc_slots", "arc_src",
    "arc_dst", "arc_level", "level_order", "endpoint_net_ids", "fanouts",
    "static_loads",
)


def assert_same_graph(graph, fresh):
    """``graph`` equals ``fresh`` array for array: the compiled design
    (names and order, CSR arrays, sink lists, topology) and the
    binding (:func:`assert_same_mapping`)."""
    ours, theirs = graph.compiled, fresh.compiled
    for name in ("names", "net_names", "families", "port_sinks", "undriven"):
        assert getattr(ours.design, name) == getattr(theirs.design, name), name
    assert_same_arrays(ours.design, theirs.design, DESIGN_ARRAYS)
    assert_same_arrays(ours, theirs, TOPOLOGY_ARRAYS)
    for name in ("name", "ports", "clock", "config", "net_ids", "clock_net_id",
                 "primary_input_ids", "launch_sites", "endpoint_sites", "depth", "n_arcs"):
        assert getattr(ours, name) == getattr(theirs, name), name
    assert len(ours.level_schedule) == len(theirs.level_schedule)
    for (rows, src, dst), (their_rows, their_src, their_dst) in zip(
        ours.level_schedule, theirs.level_schedule
    ):
        assert rows == their_rows
        assert src.tobytes() == their_src.tobytes() and dst.tobytes() == their_dst.tobytes()
    assert_same_mapping(graph, fresh)


def assert_same_timing(fast, reference):
    """Two passes agree bit for bit (arrays, launches, slack order)."""
    assert_bit_identical(fast, reference)
    assert fast.wns == reference.wns


def assert_same_mapping(graph, fresh):
    """Every binding-dependent array of ``graph`` equals ``fresh``'s,
    compared as raw bytes (so a ``-0.0`` or a rounding cannot hide)."""
    assert_same_arrays(
        graph, fresh, ("loads", "arc_tables", "endpoint_setups", "launch_q", "launch_tables")
    )
    assert_same_arrays(graph.load_side, fresh.load_side, LoadSide.__slots__)
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
        graph.remap(graph.read_cells())
        assert_same_mapping(graph, TimingGraph(netlist, library))
    # a remap without changes keeps the state
    graph.remap(graph.read_cells())
    assert_same_mapping(graph, TimingGraph(netlist, library))


@given(
    bindings=st.lists(st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
                      min_size=1, max_size=3),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_graph_bound_on_the_compiled_design_equals_a_fresh_one(
    tiny_synthesis, bindings
):
    """Random bindings (every instance on any variant of its family)
    bound on one compiled design — each on a new graph, and remapped on
    the first — equal graphs compiled from the netlist so bound."""
    base, library, choices = tiny_synthesis
    compiled = CompiledDesign.of(base)
    netlist = base.copy()
    instances = list(netlist)
    remapped = None
    for picks in bindings:
        for position, instance in enumerate(instances):
            variants = choices.variants(instance.family)
            instance.cell = variants[picks[position % len(picks)] % len(variants)].cell_name
        fresh = TimingGraph(netlist, library)
        bound = TimingGraph(compiled, library, cell_ids=fresh.cell_ids)
        assert bound.design is compiled.design
        assert_same_graph(bound, fresh)
        assert_same_timing(analyze(bound, PERIOD), analyze(fresh, PERIOD))
        if remapped is None:
            remapped = bound
        else:
            remapped.remap(fresh.cell_ids)
            assert_same_graph(remapped, fresh)


def test_the_compiled_design_is_read_only(tiny_synthesis):
    base, library, _choices = tiny_synthesis
    graph = TimingGraph(base, library)
    shared = [
        graph.design.in_nets, graph.design.sink_owner, graph.arc_src,
        graph.level_order, graph.level_schedule[0][1], graph.fanouts,
        graph.compiled.static_loads,
    ]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    # the binding is the graph's own
    graph.loads[0] = graph.loads[0]
    graph.load_side.columns[0] = graph.load_side.columns[0]


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
    graph.remap(graph.read_cells())
    assert_same_mapping(graph, TimingGraph(netlist, library))
    assert_matches_references(graph)
