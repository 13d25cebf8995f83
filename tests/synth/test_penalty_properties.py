"""Batched TILOS penalty terms against the all-live scalar reference.

``Synthesizer._upsize_critical`` looks up every penalty term of a pass
up front (``_penalty_terms``, by array gathers over the design's cell
ids), for the driver's current cell and for the cell its own move may
give it, and then sums the precomputed terms in pin order.  The
reference below is the former per-move fold over
``TimingArc.worst_delay`` with every cell read live.  Each fine-tuning
pass of a synthesis is replayed with that reference: every term must
equal it bit for bit — for drivers upsized earlier in the same pass
too — and the replayed pass must accept exactly the moves the batched
pass accepts.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlist.builder import NetlistBuilder
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import _EPS, Synthesizer


def driver_penalty(synth, net_id, extra_cap, result):
    """Delay increase of a net's driver if the net gains ``extra_cap``,
    every lookup scalar and every cell read live (the reference)."""
    graph = synth.graph
    driver = synth.netlist.net(graph.net_names[net_id]).driver
    if driver is None or driver.instance is None:
        return 0.0
    instance = synth.netlist.instance(driver.instance)
    cell = synth.library.cell(instance.cell)
    function = instance.function
    load = float(graph.loads[net_id])
    worst_old = 0.0
    worst_new = 0.0
    for input_pin, output_pin in function.arcs():
        if instance.net_of(output_pin) != graph.net_names[net_id]:
            continue
        slew = (
            synth.sta_config.clock_slew
            if input_pin == function.clock_pin
            else float(result.slew[graph.net_ids[instance.net_of(input_pin)]])
        )
        arc = cell.pin(output_pin).arc_from(input_pin)
        worst_old = max(worst_old, arc.worst_delay(slew, load))
        worst_new = max(worst_new, arc.worst_delay(slew, load + extra_cap))
    return worst_new - worst_old


def reference_terms(synth, instance, up_cell, result):
    """``(net id, extra capacitance)`` of every penalized input pin of
    a move, in pin order — port-driven nets included."""
    old_cell = synth.library.cell(instance.cell)
    new_cell = synth.library.cell(up_cell)
    function = instance.function
    terms = []
    for pin in function.input_pins:
        if pin == function.clock_pin:
            continue
        extra = new_cell.pins[pin].capacitance - old_cell.pins[pin].capacitance
        if extra <= 0:
            continue
        net_id = synth.graph.net_ids[instance.net_of(pin)]
        if result.required[net_id] - result.arrival[net_id] >= -_EPS:
            continue
        terms.append((net_id, extra))
    return terms


class ReplayedSynthesizer(Synthesizer):
    """Replays each fine-tuning pass with the reference before running
    the batched pass, and checks both agree."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.terms_checked = 0
        self.upsized_drivers = 0

    def _upsize_critical(self, result):
        netlist, design = self.netlist, self.graph.design
        names = self.graph.cells.names
        self.graph.write_cells(self.cells)
        before = {instance.name: instance.cell for instance in netlist}
        instances, ups, benefits = self._critical_moves(result)
        term_ptr, drivers, at_current, at_upsized = self._penalty_terms(
            instances, ups, result
        )
        move_up = dict(zip(instances.tolist(), ups.tolist()))
        for move, (position, up, benefit) in enumerate(
            zip(instances.tolist(), ups.tolist(), benefits.tolist())
        ):
            instance, up_cell = netlist.instance(design.names[position]), names[up]
            live = reference_terms(self, instance, up_cell, result)
            driven = []
            for net_id, extra in live:
                driver = netlist.net(self.graph.net_names[net_id]).driver
                if driver is not None and driver.instance is not None:
                    driven.append((net_id, extra, netlist.instance(driver.instance)))
            pins = []
            for term in range(term_ptr[move], term_ptr[move + 1]):
                driver = int(drivers[term])
                term_of = {names[self.cells[driver]]: at_current[term]}
                if driver in move_up:
                    term_of[names[move_up[driver]]] = at_upsized[term]
                pins.append((netlist.instance(design.names[driver]), term_of))
            assert [d.name for _, _, d in driven] == [d.name for d, _ in pins]
            for (net_id, extra, driver), (_driver, term_of) in zip(driven, pins):
                assert driver.cell in term_of
                if driver.cell != before[driver.name]:
                    self.upsized_drivers += 1
                bound = driver.cell
                for cell_name, term in term_of.items():
                    driver.cell = cell_name
                    assert term == driver_penalty(self, net_id, extra, result)
                    self.terms_checked += 1
                driver.cell = bound
            penalty = 0.0
            for net_id, extra in live:
                penalty += driver_penalty(self, net_id, extra, result)
                if penalty >= benefit:
                    break
            if benefit > penalty:
                instance.cell = up_cell
        replayed = {instance.name: instance.cell for instance in netlist}
        changes = super()._upsize_critical(result)
        self.graph.write_cells(self.cells)
        assert {instance.name: instance.cell for instance in netlist} == replayed
        assert changes == sum(replayed[name] != cell for name, cell in before.items())
        return changes


def random_design(seed: int, n_gates: int):
    """A random DAG over the reduced catalog's families, multi-output
    adders included, between input and output registers."""
    rng = random.Random(seed)
    builder = NetlistBuilder(f"random{seed}")
    builder.clock()
    nets = list(builder.register(builder.input_bus("in", 6)))
    gates = (
        lambda: builder.inv(rng.choice(nets)),
        lambda: builder.nand(*rng.sample(nets, 2)),
        lambda: builder.nor(*rng.sample(nets, 2)),
        lambda: builder.nor2b(*rng.sample(nets, 2)),
        lambda: builder.or_(*rng.sample(nets, 2)),
        lambda: builder.xnor(*rng.sample(nets, 2)),
        lambda: builder.nand4(*rng.sample(nets, 4)),
        lambda: builder.mux2(*rng.sample(nets, 3)),
        lambda: builder.addh(*rng.sample(nets, 2)),
        lambda: builder.addf(*rng.sample(nets, 3)),
    )
    for _ in range(n_gates):
        made = rng.choice(gates)()
        nets.extend(made if isinstance(made, tuple) else [made])
    netlist = builder.netlist
    outputs = builder.register([net for net in nets if not netlist.net(net).sinks])
    builder.output("y", outputs[0])
    netlist.validate()
    return netlist


def replay(netlist, library, period):
    synth = ReplayedSynthesizer(
        netlist, library, SynthesisConstraints(clock_period=period)
    )
    synth.run()
    return synth


@given(
    seed=st.integers(0, 10**6),
    n_gates=st.integers(20, 120),
    period=st.floats(0.4, 1.2),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_batched_penalty_terms_equal_the_live_reference(
    statistical_library, seed, n_gates, period
):
    replay(random_design(seed, n_gates), statistical_library, period)


def test_replay_covers_drivers_upsized_in_the_same_pass(statistical_library):
    synth = replay(random_design(7, 120), statistical_library, 0.6)
    assert synth.terms_checked > 0
    assert synth.upsized_drivers > 0
