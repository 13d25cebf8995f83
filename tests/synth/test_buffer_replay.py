"""Every array buffer round against the object-model reference.

The synthesizer splits heavy nets on its design's arrays
(:class:`~repro.synth.buffering.BufferRound`) and compiles the edited
arrays; it never edits :class:`~repro.netlist.model.Netlist` objects.
The replaying synthesizer below runs each buffer round twice from the
same state: first :func:`tests.synth.reference.fix_fanout` on a netlist
made from the arrays and bound to the working cells, then the
production round.  Both must make the same splits: the same instance
and net names in the same order, the same CSR arrays and sink lists
(output ports included), the same binding, the same nets given up as
unsplittable, and a graph bound on the new arrays must equal a graph
compiled from the edited netlist — mapping state and
:class:`~repro.sta.engine.TimingResult` alike.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlist.builder import NetlistBuilder
from repro.sta.engine import analyze
from repro.sta.graph import TimingGraph
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import Synthesizer
from tests.sta.test_schedule_properties import assert_same_graph, assert_same_timing
from tests.synth import reference
from tests.synth.test_window_enforcement import make_windows


class BufferReplay(Synthesizer):
    """Checks each buffer round against the reference before keeping it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reference_stuck = set()
        self.split_rounds = 0

    def _fix_fanout(self, result):
        names = self.graph.cells.names
        netlist = self.compiled.netlist([names[cell] for cell in self.cells.tolist()])
        buffers = self.buffer_instances
        expected, instances = reference.fix_fanout(self, result, netlist, self.reference_stuck)
        created = super()._fix_fanout(result)
        assert created == expected
        assert self.buffer_instances - buffers == instances
        assert {self.compiled.net_names[net] for net in self._fanout_stuck} == self.reference_stuck
        if created:
            self.split_rounds += 1
            fresh = TimingGraph(netlist, self.library, self.sta_config)
            bound = TimingGraph(self.compiled, self.library, cell_ids=self.cells)
            assert np.array_equal(self.cells, fresh.cell_ids)
            assert_same_graph(bound, fresh)
            period = self.constraints.clock_period
            assert_same_timing(analyze(bound, period), analyze(fresh, period))
        return created


def hub_design(seed: int, n_gates: int, n_hubs: int):
    """A random DAG in which a few *hub* nets feed many gates, with an
    output port tapping some hubs between their gate sinks."""
    rng = random.Random(seed)
    builder = NetlistBuilder(f"hubs{seed}")
    builder.clock()
    nets = list(builder.register(builder.input_bus("in", 4)))
    hubs = [builder.inv(rng.choice(nets)) for _ in range(n_hubs)]
    nets.extend(hubs)

    def pick():
        return rng.choice(hubs) if rng.random() < 0.6 else rng.choice(nets)

    gates = (
        lambda: builder.inv(pick()),
        lambda: builder.nand(pick(), pick()),
        lambda: builder.nor(pick(), pick()),
        lambda: builder.mux2(pick(), pick(), pick()),
        lambda: builder.addh(pick(), pick()),
    )
    taps = 0
    for index in range(n_gates):
        made = rng.choice(gates)()
        nets.extend(made if isinstance(made, tuple) else [made])
        if index % 7 == 3:
            builder.output(f"tap{taps}", rng.choice(hubs))
            taps += 1
    netlist = builder.netlist
    builder.register([net for net in nets if not netlist.net(net).sinks])
    netlist.validate()
    return netlist


def replay(netlist, library, period, **constraints):
    synth = BufferReplay(
        netlist, library, SynthesisConstraints(clock_period=period, **constraints)
    )
    synth.run()
    return synth


@given(
    seed=st.integers(0, 10**6),
    n_gates=st.integers(20, 90),
    n_hubs=st.integers(1, 3),
    period=st.floats(0.5, 3.0),
    max_load=st.sampled_from([None, 0.0004, 0.001, 0.003]),
    rounds=st.integers(1, 3),
)
@settings(
    max_examples=14,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_buffer_round_equals_the_object_model_reference(
    statistical_library, seed, n_gates, n_hubs, period, max_load, rounds
):
    windows = (
        None if max_load is None
        else make_windows(statistical_library, max_load=max_load, families=("INV", "ND2"))
    )
    replay(
        hub_design(seed, n_gates, n_hubs), statistical_library, period,
        windows=windows, max_buffer_rounds=rounds,
    )


def test_replay_covers_splits_ports_and_repeat_rounds(statistical_library):
    """Pinned cases split in three rounds, give up on some nets, move
    sinks off nets that an output port keeps, and split for timing
    alone (untuned)."""
    windows = make_windows(statistical_library, max_load=0.0004, families=("INV", "ND2"))
    synth = replay(
        hub_design(1, 80, 2), statistical_library, 0.6,
        windows=windows, max_buffer_rounds=3,
    )
    assert synth.split_rounds == 3
    assert synth._fanout_stuck
    design = synth.compiled.design
    split_with_port = [
        net
        for net in design.port_sinks
        if any(
            design.names[owner].startswith("synbuf_a")
            for owner in design.sink_owner[design.sink_ptr[net]:design.sink_ptr[net + 1]]
        )
    ]
    assert split_with_port
    untuned = replay(hub_design(0, 80, 2), statistical_library, 0.6, max_buffer_rounds=3)
    assert untuned.split_rounds >= 2
