"""The linear ``prune_dangling`` against the fixpoint reference.

Random designs whose outputs feed only a few ports (so most of the
logic, registers included, hangs in dead cones) are pruned both ways:
the worklist must remove the same instances and leave the same
``instances`` and ``nets`` in the same order, with the same sink lists.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.builder import NetlistBuilder
from tests.netlist.reference import prune_dangling_fixpoint


def dead_cone_design(seed: int, n_gates: int, n_outputs: int):
    rng = random.Random(seed)
    builder = NetlistBuilder(f"cones{seed}")
    builder.clock()
    nets = list(builder.input_bus("in", 4))
    gates = (
        lambda: builder.inv(rng.choice(nets)),
        lambda: builder.nand(*rng.sample(nets, 2)),
        lambda: builder.nor(*rng.sample(nets, 2)),
        lambda: builder.xnor(*rng.sample(nets, 2)),
        lambda: builder.mux2(*rng.sample(nets, 3)),
        lambda: builder.addh(*rng.sample(nets, 2)),
        lambda: builder.addf(*rng.sample(nets, 3)),
        lambda: builder.dff(rng.choice(nets)),
    )
    for _ in range(n_gates):
        made = rng.choice(gates)()
        nets.extend(made if isinstance(made, tuple) else [made])
    for index, net in enumerate(rng.sample(nets, min(n_outputs, len(nets)))):
        builder.output(f"y{index}", net)
    return builder.netlist


def snapshot(netlist):
    return (
        list(netlist.instances),
        list(netlist.nets),
        {name: list(net.sinks) for name, net in netlist.nets.items()},
        {name: net.driver for name, net in netlist.nets.items()},
    )


@given(
    seed=st.integers(0, 10**6),
    n_gates=st.integers(0, 150),
    n_outputs=st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_worklist_prune_equals_the_fixpoint(seed, n_gates, n_outputs):
    netlist = dead_cone_design(seed, n_gates, n_outputs)
    expected = netlist.copy()
    removed = prune_dangling_fixpoint(expected)
    assert netlist.prune_dangling() == removed
    assert snapshot(netlist) == snapshot(expected)
    assert netlist.prune_dangling() == 0


def test_designs_have_dead_cones():
    netlist = dead_cone_design(3, 150, 2)
    assert netlist.prune_dangling() > 50
