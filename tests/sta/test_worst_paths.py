"""Array worst-path extraction and the array eq. (11) roll-up against
the object-model references of :mod:`tests.sta.reference`.

On random designs (instance order shuffled or not, cells bound at
random, two pins of a gate sometimes on one net) the materialized
:class:`WorstPaths` must equal the net-by-net backtrack path for path,
or both must raise the same :class:`TimingError` text, and
:func:`design_statistics` must equal the object-model fold bit for bit.
A run holding the paths must round-trip ``==`` through its stored
arrays, and the fold over its stored step sigmas must equal
:func:`design_statistics` at any correlation.
Ties are forced by giving the arcs of one gate from one source net one
delay; damage bumps arrivals (the tolerance check) or makes every
incoming arc of a net ``-inf``/``nan`` (no finite arc).  Pinned cases
cover ties on the paths, launch steps, output-port endpoints, two
endpoints on one net, a path of no cells, and each error.
"""

from __future__ import annotations

import dataclasses
import io
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TimingError
from repro.flow.experiment import RunSummary, SynthesisRun
from repro.netlist.builder import NetlistBuilder
from repro.sta.engine import analyze
from repro.sta.graph import TimingGraph, cell_tables
from repro.sta.paths import WorstPaths, depth_histogram, extract_worst_paths, worst_path
from repro.sta.statistics import design_statistics, fold_statistics
from tests.sta import reference


def random_design(seed: int, n_gates: int, library, shuffle: bool):
    """A random DAG between registers, bound to random cells of the
    library.  Gates may read one net on two pins; output ports sit on a
    primary input, on a register output and on internal nets that a
    register also captures (two endpoints on one net)."""
    rng = random.Random(seed)
    builder = NetlistBuilder(f"paths{seed}")
    builder.clock()
    inputs = builder.input_bus("in", 4)
    nets = list(builder.register(inputs[:3])) + [inputs[3]]
    gates = (
        lambda: builder.inv(rng.choice(nets)),
        lambda: builder.nand(*rng.choices(nets, k=2)),
        lambda: builder.nor(*rng.choices(nets, k=2)),
        lambda: builder.nor2b(*rng.choices(nets, k=2)),
        lambda: builder.or_(*rng.choices(nets, k=2)),
        lambda: builder.xnor(*rng.choices(nets, k=2)),
        lambda: builder.nand4(*rng.choices(nets, k=4)),
        lambda: builder.mux2(*rng.choices(nets, k=3)),
        lambda: builder.addh(*rng.choices(nets, k=2)),
        lambda: builder.addf(*rng.choices(nets, k=3)),
    )
    for _ in range(n_gates):
        made = rng.choice(gates)()
        nets.extend(made if isinstance(made, tuple) else [made])
    netlist = builder.netlist
    captured = [net for net in nets if not netlist.net(net).sinks]
    launched = builder.register(captured)
    builder.output("y_in", inputs[3])
    builder.output("y_q", launched[0])
    for index, net in enumerate([captured[-1]] + rng.sample(nets, min(3, len(nets)))):
        builder.output(f"y{index}", net)
    netlist.validate()

    tables = cell_tables(library)
    variants = {}
    for name, family in zip(tables.names, tables.families):
        variants.setdefault(family, []).append(name)
    for instance in netlist:
        instance.cell = rng.choice(variants[instance.family])
    if shuffle:
        items = list(netlist.instances.items())
        rng.shuffle(items)
        netlist.instances = dict(items)
    return netlist


def force_ties(result) -> None:
    """Give the arcs of one gate from one source net the largest of
    their delays: equal ``arrival + delay``, arrivals unchanged."""
    graph = result.graph
    groups = {}
    for arc, pair in enumerate(zip(graph.arc_src.tolist(), graph.arc_dst.tolist())):
        groups.setdefault(pair, []).append(arc)
    for arcs in groups.values():
        if len(arcs) > 1:
            result.arc_delay[arcs] = result.arc_delay[arcs].max()


def damage(result, rng: random.Random, kind: str) -> None:
    """Break a few nets that have incoming arcs."""
    graph = result.graph
    driven = sorted(set(graph.arc_dst.tolist()))
    for net in rng.sample(driven, min(3, len(driven))):
        if kind == "late":
            result.arrival[net] += 0.5
        else:
            result.arc_delay[graph.arc_dst == net] = -np.inf if kind == "-inf" else np.nan


def outcome(extract, *args):
    try:
        return list(extract(*args))
    except TimingError as error:
        return str(error)


def timed(netlist, library, period, ties=False):
    result = analyze(TimingGraph(netlist, library), period)
    if ties:
        force_ties(result)
    return result


def assert_statistics_equal(paths, library):
    for rho in (0.0, 0.4):
        assert design_statistics(paths, library, rho=rho) == reference.design_statistics(
            list(paths), library, rho=rho
        )


def stored(arrays):
    """``arrays`` after an ``.npz`` write and read."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def roundtrip(paths: WorstPaths) -> WorstPaths:
    return WorstPaths.from_arrays(stored(paths.to_arrays()))


def assert_run_roundtrips(result, paths, library, period):
    """A run of ``paths`` equals itself rebuilt from its stored arrays,
    and folding the stored step sigmas equals :func:`design_statistics`
    at rho 0 and 0.4."""
    netlist = result.graph.netlist
    summary = RunSummary(
        met=bool(result.wns >= 0),
        area=float(len(netlist)) / 3,
        wns=float(result.wns),
        sizing_iterations=len(paths),
        buffer_instances=0,
        failure_reason="" if result.wns >= 0 else "timing not met — café",
        legality_violations=1,
        n_instances=len(netlist),
        cell_counts=tuple(sorted(Counter(instance.cell for instance in netlist).items())),
    )
    run = SynthesisRun(period, summary, paths, design_statistics(paths, library))
    arrays = stored(run.to_arrays())
    assert SynthesisRun.from_arrays(arrays, period) == run
    for rho in (0.0, 0.4):
        assert fold_statistics(
            WorstPaths.from_arrays({name: arrays[name] for name in paths.to_arrays()}),
            arrays["step_sigma"],
            rho,
        ) == design_statistics(paths, library, rho)


@given(
    seed=st.integers(0, 10**6),
    n_gates=st.integers(5, 80),
    period=st.floats(0.5, 3.0),
    shuffle=st.booleans(),
    ties=st.booleans(),
    broken=st.sampled_from(["", "late", "-inf", "nan"]),
)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_array_paths_equal_the_backtrack(
    statistical_library, seed, n_gates, period, shuffle, ties, broken
):
    netlist = random_design(seed, n_gates, statistical_library, shuffle)
    result = timed(netlist, statistical_library, period, ties)
    if broken:
        damage(result, random.Random(seed), broken)
    expected = outcome(reference.worst_paths, result)
    assert outcome(extract_worst_paths, result) == expected
    if isinstance(expected, str):
        return
    paths = extract_worst_paths(result)
    assert roundtrip(paths) == paths
    assert list(roundtrip(paths)) == list(paths)
    assert sum(depth_histogram(paths).values()) == len(paths)
    assert_statistics_equal(paths, statistical_library)
    assert_run_roundtrips(result, paths, statistical_library, period)

    # an endpoint subset, in another order
    endpoints = list(result.graph.endpoints)
    random.Random(seed).shuffle(endpoints)
    chosen = endpoints[: len(endpoints) // 2 + 1]
    assert list(extract_worst_paths(result, chosen)) == reference.worst_paths(result, chosen)


class TestPinnedCases:
    @pytest.fixture()
    def result(self, statistical_library):
        return timed(random_design(3, 60, statistical_library, True), statistical_library, 1.2, True)

    def test_every_case_is_on_the_paths(self, result):
        paths = extract_worst_paths(result)
        assert list(paths) == reference.worst_paths(result)
        graph = result.graph
        values = result.arrival[graph.arc_src] + result.arc_delay
        nets = {name: net for net, name in enumerate(graph.net_names)}
        tied = [
            step
            for path in paths
            for step in path.steps
            if not step.is_launch
            and np.count_nonzero(
                (graph.arc_dst == nets[step.output_net])
                & (values == result.arrival[nets[step.output_net]])
            ) > 1
        ]
        assert tied, "no tie on a worst path"
        assert any(path.steps and path.steps[0].is_launch for path in paths)
        kinds = [endpoint.kind for endpoint in graph.endpoints]
        assert "output_port" in kinds
        assert len({e.net_id for e in graph.endpoints}) < len(graph.endpoints)
        assert 0 in depth_histogram(paths)  # the output on a primary input
        assert 1 in depth_histogram(paths)  # the output on a register

    def test_design_statistics_equal_the_object_fold(self, result, statistical_library):
        assert_statistics_equal(extract_worst_paths(result), statistical_library)
        assert_run_roundtrips(
            result, extract_worst_paths(result), statistical_library, 1.2
        )

    def test_worst_path(self, result):
        assert worst_path(result) == reference.backtrack(result, result.worst_endpoint())

    @pytest.mark.parametrize("kind", ["late", "-inf", "nan"])
    def test_broken_nets_raise_the_reference_error(self, result, kind):
        damage(result, random.Random(1), kind)
        expected = outcome(reference.worst_paths, result)
        assert isinstance(expected, str)
        assert outcome(extract_worst_paths, result) == expected

    def test_a_late_arrival_on_a_worst_path_is_inconsistent(self, result):
        deepest = max(reference.worst_paths(result), key=lambda path: path.depth)
        net = result.graph.net_names.index(deepest.steps[-1].output_net)
        result.arrival[net] += 1e-6
        with pytest.raises(TimingError, match="inconsistent arrivals") as error:
            extract_worst_paths(result)
        assert str(error.value) == outcome(reference.worst_paths, result)

    def test_a_cycle_of_picks_does_not_terminate(self, result):
        graph = result.graph
        endpoint = max(graph.endpoints, key=lambda e: result.arrival[e.net_id])
        arc = int(np.flatnonzero(graph.arc_dst == endpoint.net_id)[0])
        # the compiled topology is read-only: damage this graph's copy
        graph.arc_src = graph.arc_src.copy()
        graph.arc_src[arc] = endpoint.net_id  # the arc now feeds itself
        expected = "path backtracking did not terminate"
        assert outcome(reference.worst_paths, result) == expected
        assert outcome(extract_worst_paths, result) == expected


class TestStoredForm:
    def test_rejects_inconsistent_arrays(self, statistical_library):
        result = timed(random_design(5, 30, statistical_library, False), statistical_library, 2.0)
        arrays = extract_worst_paths(result).to_arrays()
        assert WorstPaths.from_arrays(dict(arrays)) == extract_worst_paths(result)
        size = extract_worst_paths(result).strings.size
        for name, broken in (
            ("offsets", arrays["offsets"][:-1]),
            ("names", arrays["names"] + size),
            ("delay", arrays["delay"].astype(np.int64)),
            ("launch", arrays["launch"][1:]),
            ("strings", extract_worst_paths(result).strings),
            ("strings", arrays["strings"][:-1]),
            ("strings", np.frombuffer(b"\xff\x00", dtype=np.uint8)),
        ):
            with pytest.raises(ValueError):
                WorstPaths.from_arrays({**arrays, name: broken})
        with pytest.raises(ValueError):
            WorstPaths.from_arrays({**arrays, "extra": arrays["delay"]})

    def test_a_name_holding_nul_is_not_stored(self, statistical_library):
        result = timed(random_design(5, 30, statistical_library, False), statistical_library, 2.0)
        paths = extract_worst_paths(result)
        strings = paths.strings.tolist()
        strings[0] += "\0x"
        with pytest.raises(ValueError, match="NUL"):
            dataclasses.replace(paths, strings=np.array(strings)).to_arrays()
