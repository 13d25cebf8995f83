"""``DesignArrays.levelized_order`` against ``Netlist.combinational_order``.

The timing graph orders its arcs, and so its path tie-breaks, by the
integer topological sort; the netlist's object sort is the reference.
On random designs — acyclic, with combinational cycles (registers may
break them), or with undriven nets — both must give the same positions
and levels, or raise the same :class:`NetlistError` text.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.functions import function_by_name
from repro.errors import NetlistError
from repro.netlist.model import Netlist
from repro.sta.graph import DesignArrays

FAMILIES = ("INV", "ND2", "NR2", "XNR2", "MUX2", "ADDH", "ADDF", "DFF", "DFFR", "LATQ")


def random_design(seed: int, n_gates: int, mode: str) -> Netlist:
    """Gates in random order over random earlier nets.  ``cycles`` also
    reads nets driven by later gates; ``undriven`` also reads nets that
    nothing drives."""
    rng = random.Random(seed)
    netlist = Netlist(f"levels{seed}")
    netlist.add_input_port("clk")
    netlist.set_clock("clk")
    sources = [netlist.add_input_port(f"in{index}") for index in range(3)]
    gates = []
    for index in range(n_gates):
        function = function_by_name(rng.choice(FAMILIES))
        outputs = {pin: f"g{index}_{pin}" for pin in function.output_pins}
        gates.append((f"g{index}", function, outputs))
    every_output = [net for _name, _function, outputs in gates for net in outputs.values()]
    for name, function, outputs in gates:
        connections = dict(outputs)
        for pin in function.input_pins:
            roll = rng.random()
            if pin == function.clock_pin:
                connections[pin] = "clk"
            elif mode == "cycles" and roll < 0.3:
                connections[pin] = rng.choice(every_output)
            elif mode == "undriven" and roll < 0.05:
                connections[pin] = f"float{rng.randint(0, 3)}"
            else:
                connections[pin] = rng.choice(sources)
        netlist.add_instance(name, function.name, connections)
        sources.extend(outputs.values())
    names = list(netlist.instances)
    rng.shuffle(names)
    netlist.instances = {name: netlist.instances[name] for name in names}
    return netlist


def outcome_of_netlist(netlist: Netlist):
    try:
        order = [instance.name for instance in netlist.combinational_order()]
        return order, netlist.levelize()
    except NetlistError as error:
        return str(error)


def outcome_of_arrays(netlist: Netlist):
    design = DesignArrays.from_netlist(netlist)
    try:
        positions, levels = design.levelized_order()
    except NetlistError as error:
        return str(error)
    names = design.names
    return [names[p] for p in positions], dict(zip(names, levels))


@given(
    seed=st.integers(0, 10**6),
    n_gates=st.integers(0, 60),
    mode=st.sampled_from(["acyclic", "cycles", "undriven"]),
)
@settings(max_examples=150, deadline=None)
def test_levelized_order_equals_the_netlist_sort(seed, n_gates, mode):
    netlist = random_design(seed, n_gates, mode)
    assert outcome_of_arrays(netlist) == outcome_of_netlist(netlist)


@pytest.mark.parametrize(
    ("mode", "message"),
    [("cycles", "combinational cycle involving"), ("undriven", "is undriven")],
)
def test_random_designs_reach_each_error(mode, message):
    """Both error paths are exercised, and agree, on pinned seeds."""
    hits = 0
    for seed in range(40):
        netlist = random_design(seed, 30, mode)
        outcome = outcome_of_netlist(netlist)
        assert outcome_of_arrays(netlist) == outcome
        hits += isinstance(outcome, str) and message in outcome
    assert hits >= 5


def test_acyclic_designs_have_ties_and_depth():
    """Several gates become ready at once (the stack order decides) and
    levels run deep, so the position check has something to order."""
    netlist = random_design(11, 60, "acyclic")
    order, levels = outcome_of_netlist(netlist)
    assert outcome_of_arrays(netlist) == (order, levels)
    assert max(levels.values()) >= 4
    assert sum(1 for level in levels.values() if level == 1) >= 3
