"""The object-model cell choices, sizing passes and buffering, kept as
references.

Production sizes on integer cell-id arrays
(:class:`~repro.synth.synthesizer.Synthesizer`) over the variants of
:class:`~repro.synth.mapping.VariantTables`.  :class:`CellChoices` is
the same variant rule built from the library's cell objects and name
parsing (see ``tests/synth/test_mapping.py``), and the pass functions
are the same passes written over the netlist's :class:`Instance`
objects: they read and write ``instance.cell`` one instance at a time,
in netlist order, with every decision made in the loop.  Each takes the
synthesizer whose graph, library and constraints it reads, so a test
can replay any production pass on the same state (see
``tests/synth/test_sizer_replay.py``).

Buffering is kept the same way: :func:`split_fanout` and
:func:`plan_groups` edit a :class:`~repro.netlist.model.Netlist`'s
objects, and :func:`fix_fanout` is the synthesizer's buffer round
written over them, which ``tests/synth/test_buffer_replay.py`` holds
the array path (:class:`~repro.synth.buffering.BufferRound`) to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cells.naming import parse_cell_name
from repro.errors import SynthesisError
from repro.kernels.sta import worst_values
from repro.liberty.model import Library
from repro.netlist.model import Netlist, PinRef
from repro.synth.buffering import BUFFER_PREFIX
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import _EPS, Synthesizer, _slacks


@dataclass(frozen=True)
class Variant:
    """One usable drive-strength variant of a family."""

    cell_name: str
    strength: float
    #: Effective maximum load: min over output pins of window max_load
    #: (when tuned) and the cell's own max_capacitance.
    max_load: float
    #: Effective maximum input slew (min over windows; inf untuned).
    max_slew: float
    area: float


class CellChoices:
    """Usable variants per family, sorted by drive strength."""

    def __init__(self, library: Library, constraints: SynthesisConstraints):
        self.library = library
        self.constraints = constraints
        self._variants: Dict[str, List[Variant]] = {}
        for cell in library:
            name = parse_cell_name(cell.name)
            family = name.family
            outputs = cell.output_pins()
            output_pins = tuple(p.name for p in outputs)
            if not constraints.is_cell_usable(cell.name, output_pins):
                continue
            max_load = min(p.max_capacitance for p in outputs)
            max_slew = float("inf")
            for pin in outputs:
                window = constraints.window_for(cell.name, pin.name)
                if window is not None:
                    max_load = min(max_load, window.max_load)
                    max_slew = min(max_slew, window.max_slew)
            self._variants.setdefault(family, []).append(
                Variant(
                    cell_name=cell.name,
                    strength=name.strength,
                    max_load=max_load,
                    max_slew=max_slew,
                    area=cell.area,
                )
            )
        for variants in self._variants.values():
            variants.sort(key=lambda v: v.strength)
        self._by_name: Dict[str, Tuple[str, int, Variant]] = {}
        for family, variants in self._variants.items():
            for position, variant in enumerate(variants):
                self._by_name[variant.cell_name] = (family, position, variant)

    def variants(self, family: str) -> List[Variant]:
        """Usable variants of a family (ascending strength)."""
        try:
            variants = self._variants[family]
        except KeyError:
            raise SynthesisError(
                f"tuning left no usable variant of family {family!r}; "
                "the restriction is too tight to synthesize this design"
            ) from None
        return variants

    def families(self) -> List[str]:
        """Families with at least one usable variant."""
        return sorted(self._variants)

    def variant_of(self, cell_name: str) -> Variant:
        """The variant record of a bound cell name."""
        return self._lookup(cell_name)[2]

    def next_up(self, cell_name: str) -> Optional[Variant]:
        """The next stronger usable variant, or None at the top."""
        family, position, _variant = self._lookup(cell_name)
        variants = self._variants[family]
        return variants[position + 1] if position + 1 < len(variants) else None

    def next_down(self, cell_name: str) -> Optional[Variant]:
        """The next weaker usable variant, or None at the bottom."""
        family, position, _variant = self._lookup(cell_name)
        return self._variants[family][position - 1] if position > 0 else None

    def _lookup(self, cell_name: str) -> Tuple[str, int, Variant]:
        try:
            return self._by_name[cell_name]
        except KeyError:
            raise SynthesisError(
                f"cell {cell_name} is not usable under the constraints"
            ) from None

    def smallest(self, family: str) -> Variant:
        """Weakest usable variant of a family."""
        return self.variants(family)[0]

    def largest(self, family: str) -> Variant:
        """Strongest usable variant of a family."""
        return self.variants(family)[-1]

    def smallest_for_load(
        self, family: str, load: float, actual_load: Optional[float] = None
    ) -> Variant:
        """Weakest variant legally driving ``load``, else the weakest
        driving ``actual_load`` when that is smaller, else the
        strongest."""
        for variant in self.variants(family):
            if variant.max_load >= load:
                return variant
        if actual_load is not None and actual_load < load:
            for variant in self.variants(family):
                if variant.max_load >= actual_load:
                    return variant
        return self.largest(family)


def choices_of(synth) -> CellChoices:
    """The reference choices under the synthesizer's library and
    constraints."""
    return CellChoices(synth.library, synth.constraints)

#: (instance, output net ids, non-clock input net ids) per instance.
View = Tuple[object, List[int], List[int]]


def instance_views(synth) -> List[View]:
    """(instance, output net ids, non-clock input net ids)."""
    graph = synth.graph
    views = []
    for instance in synth.netlist:
        function = instance.function
        outs = [graph.net_ids[instance.net_of(p)] for p in function.output_pins]
        ins = [
            graph.net_ids[instance.net_of(p)]
            for p in function.input_pins
            if p != function.clock_pin
        ]
        views.append((instance, outs, ins))
    return views


def slacks(result) -> List[float]:
    return (result.required - result.arrival).tolist()


def run_maxima(values: np.ndarray, starts: List[int]) -> List[float]:
    """``max(0, max(run))`` of each run of ``values``."""
    maxima = np.zeros(len(starts))
    bounds = np.asarray(starts + [values.size], dtype=np.intp)
    filled = bounds[:-1] < bounds[1:]
    if filled.any():
        maxima[filled] = np.maximum(
            0.0, np.maximum.reduceat(values, bounds[:-1][filled])
        )
    return maxima.tolist()


def presize(synth, utilization, critical_only, result) -> int:
    choices = choices_of(synth)
    changes = 0
    loads = synth.graph.loads.tolist()
    slack_of = slacks(result) if critical_only else []
    for instance, outs, _ins in instance_views(synth):
        if critical_only:
            if min(slack_of[o] for o in outs) >= -_EPS:
                continue
        load = max(loads[o] for o in outs)
        candidate = choices.smallest_for_load(
            instance.family, load / utilization, actual_load=load
        )
        if candidate.strength > choices.variant_of(instance.cell).strength:
            instance.cell = candidate.cell_name
            changes += 1
    return changes


def legalize_once(synth, result) -> int:
    graph, choices = synth.graph, choices_of(synth)
    max_transition = synth.constraints.max_transition
    loads, slews = graph.loads.tolist(), result.slew.tolist()
    changes = 0
    for instance, outs, ins in instance_views(synth):
        variant = choices.variant_of(instance.cell)
        load = max(loads[o] for o in outs)
        if load > variant.max_load + _EPS:
            candidate = choices.smallest_for_load(instance.family, load)
            if candidate.strength > variant.strength:
                instance.cell = candidate.cell_name
                changes += 1
                variant = candidate
        if max(slews[o] for o in outs) > max_transition + _EPS:
            up = choices.next_up(instance.cell)
            if up is not None:
                instance.cell = up.cell_name
                changes += 1
                variant = up
        if not ins or math.isinf(variant.max_slew):
            continue
        for net_id in ins:
            if slews[net_id] > variant.max_slew + _EPS:
                driver = synth.netlist.net(graph.net_names[net_id]).driver
                if driver is None or driver.instance is None:
                    continue
                driver_instance = synth.netlist.instance(driver.instance)
                up = choices.next_up(driver_instance.cell)
                if up is not None:
                    driver_instance.cell = up.cell_name
                    changes += 1
    return changes


def stage_values(synth, queries, result) -> List[Tuple[float, List[float]]]:
    """Per ``(instance, cell name)``: stage delay and per-pin worst
    output transitions, one batched lookup over the instance's arcs."""
    graph = synth.graph
    tables = graph.tables
    slew_of = np.append(result.slew, synth.sta_config.clock_slew)
    rows: List[int] = []
    in_nets: List[int] = []
    out_nets: List[int] = []
    stage_starts: List[int] = []
    pin_starts: List[int] = []
    for instance, cell_name in queries:
        function = instance.function
        arcs = function.arcs()
        stage_starts.append(len(rows))
        pin_starts.extend(
            len(rows)
            + next((i for i, arc in enumerate(arcs) if arc[1] == pin), len(arcs))
            for pin in function.output_pins
        )
        for input_pin, output_pin in arcs:
            rows.append(tables.row(cell_name, output_pin, input_pin))
            in_nets.append(
                -1
                if input_pin == function.clock_pin
                else graph.net_ids[instance.net_of(input_pin)]
            )
            out_nets.append(graph.net_ids[instance.net_of(output_pin)])
    index = np.asarray(rows, dtype=np.intp)
    slews = slew_of[np.asarray(in_nets, dtype=np.intp)]
    loads = graph.loads[np.asarray(out_nets, dtype=np.intp)]
    values = worst_values(
        tables,
        np.concatenate([tables.delay[index], tables.transition[index]]),
        np.concatenate([slews, slews]),
        np.concatenate([loads, loads]),
    )
    delays = run_maxima(values[: index.size], stage_starts)
    transitions = run_maxima(values[index.size:], pin_starts)
    stages = []
    pin = 0
    for (instance, _cell_name), delay in zip(queries, delays):
        n_pins = len(instance.function.output_pins)
        stages.append((delay, transitions[pin:pin + n_pins]))
        pin += n_pins
    return stages


def critical_moves(synth, result) -> List[Tuple[object, str, float]]:
    choices = choices_of(synth)
    slack_of, loads = slacks(result), synth.graph.loads.tolist()
    negative = []
    for view in instance_views(synth):
        slack = min(slack_of[o] for o in view[1])
        if slack < -_EPS:
            negative.append((slack, view))
    negative.sort(key=lambda item: item[0])
    moves = []
    for _slack, (instance, outs, _ins) in negative[: synth._FINE_CANDIDATES]:
        up = choices.next_up(instance.cell)
        if up is None:
            continue
        load = max(loads[o] for o in outs)
        if up.max_load + _EPS < load:
            stronger = choices.smallest_for_load(instance.family, load)
            if stronger.strength <= choices.variant_of(instance.cell).strength:
                continue
            up = stronger
        moves.append((instance, up.cell_name))
    stages = stage_values(
        synth, [(instance, instance.cell) for instance, _up in moves] + moves, result
    )
    return [
        (instance, up_cell, current - upsized)
        for (instance, up_cell), (current, _), (upsized, _) in zip(
            moves, stages, stages[len(moves):]
        )
        if current - upsized > 0
    ]


def penalty_terms(synth, instance, up_cell, result) -> List[Tuple[object, int, float]]:
    """``(driver instance, net id, extra capacitance)`` per penalized
    input pin of a move, in pin order."""
    graph, netlist, library = synth.graph, synth.netlist, synth.library
    slack_of = slacks(result)
    old_pins = library.cell(instance.cell).pins
    new_pins = library.cell(up_cell).pins
    function = instance.function
    terms = []
    for pin in function.input_pins:
        if pin == function.clock_pin:
            continue
        extra = new_pins[pin].capacitance - old_pins[pin].capacitance
        if extra <= 0:
            continue
        net_id = graph.net_ids[instance.net_of(pin)]
        if slack_of[net_id] >= -_EPS:
            continue
        driver = netlist.net(graph.net_names[net_id]).driver
        if driver is None or driver.instance is None:
            continue
        terms.append((netlist.instance(driver.instance), net_id, extra))
    return terms


def driver_term(synth, driver, net_id, extra, result) -> float:
    """The driver's stage-delay increase on ``net_id`` at its live cell
    (one batched lookup over its arcs into the net)."""
    graph = synth.graph
    tables = graph.tables
    function = driver.function
    net_name = graph.net_names[net_id]
    arcs = [
        (input_pin, output_pin)
        for input_pin, output_pin in function.arcs()
        if driver.net_of(output_pin) == net_name
    ]
    if not arcs:
        return 0.0
    index = np.asarray(
        [tables.row(driver.cell, output_pin, input_pin) for input_pin, output_pin in arcs],
        dtype=np.intp,
    )
    slews = np.asarray(
        [
            synth.sta_config.clock_slew
            if input_pin == function.clock_pin
            else result.slew[graph.net_ids[driver.net_of(input_pin)]]
            for input_pin, _output_pin in arcs
        ]
    )
    load = float(graph.loads[net_id])
    values = worst_values(
        tables,
        np.concatenate([tables.delay[index], tables.delay[index]]),
        np.concatenate([slews, slews]),
        np.asarray([load] * len(arcs) + [load + extra] * len(arcs)),
    )
    worst_old = max(0.0, float(values[: len(arcs)].max()))
    worst_new = max(0.0, float(values[len(arcs):].max()))
    return worst_new - worst_old


def upsize_critical(synth, result) -> int:
    """The TILOS pass with every penalty looked up live, when summed."""
    changes = 0
    moves = critical_moves(synth, result)
    terms = [penalty_terms(synth, i, up, result) for i, up, _ in moves]
    for (instance, up_cell, benefit), pins in zip(moves, terms):
        total = 0.0
        for driver, net_id, extra in pins:
            total += driver_term(synth, driver, net_id, extra, result)
            if total >= benefit:
                break
        if benefit > total:
            instance.cell = up_cell
            changes += 1
    return changes


def transition_legal_after_downsize(synth, choices, instance, worst_by_pin) -> bool:
    for output_pin, worst in zip(instance.function.output_pins, worst_by_pin):
        if worst > synth.constraints.max_transition + _EPS:
            return False
        for sink in synth.netlist.net(instance.net_of(output_pin)).sinks:
            if sink.instance is None:
                continue
            sink_variant = choices.variant_of(
                synth.netlist.instance(sink.instance).cell
            )
            if not math.isinf(sink_variant.max_slew) and (
                worst > sink_variant.max_slew + _EPS
            ):
                return False
    return True


def downsize_pass(synth, result, margin) -> int:
    """One area-recovery pass (without its remap and rollback)."""
    choices = choices_of(synth)
    moves = []
    for view in instance_views(synth):
        down = choices.next_down(view[0].cell)
        if down is not None:
            moves.append((view, down))
    stages = stage_values(
        synth,
        [(view[0], view[0].cell) for view, _down in moves]
        + [(view[0], down.cell_name) for view, down in moves],
        result,
    )
    loads, slews = synth.graph.loads.tolist(), result.slew.tolist()
    slack_of = slacks(result)
    changes = 0
    for ((instance, outs, ins), down), (current, _), downsized in zip(
        moves, stages, stages[len(moves):]
    ):
        if max(loads[o] for o in outs) > down.max_load + _EPS:
            continue
        if ins and not math.isinf(down.max_slew):
            if max(slews[i] for i in ins) > down.max_slew + _EPS:
                continue
        if not transition_legal_after_downsize(synth, choices, instance, downsized[1]):
            continue
        slack = min(slack_of[o] for o in outs)
        if slack - (downsized[0] - current) < margin:
            continue
        instance.cell = down.cell_name
        changes += 1
    return changes


# ----------------------------------------------------------------------
# Buffering over netlist objects
# ----------------------------------------------------------------------


def split_fanout(
    netlist: Netlist,
    net_name: str,
    sink_groups: Sequence[Sequence[PinRef]],
    inverter_cell: str,
) -> List[str]:
    """Move sink groups behind inverter pairs; returns new instances.

    Sinks not mentioned in any group stay on the original net.  Port
    sinks cannot be moved (their polarity is the design's interface).
    """
    if not sink_groups:
        raise SynthesisError("split_fanout needs at least one sink group")
    net = netlist.net(net_name)
    sinks = set(net.sinks)
    moved = set()
    for group in sink_groups:
        for sink in group:
            if sink.is_port:
                raise SynthesisError(
                    f"cannot buffer output port sink on net {net_name}"
                )
            if sink not in sinks:
                raise SynthesisError(f"{sink} is not a sink of {net_name}")
            if sink in moved:
                raise SynthesisError(f"{sink} is in two sink groups")
            moved.add(sink)

    created: List[str] = []
    first_name = netlist.unique_name(f"{BUFFER_PREFIX}_a")
    first_out = f"{first_name}.Z"
    netlist.add_instance(first_name, "INV", {"A": net_name, "Z": first_out})
    netlist.instance(first_name).cell = inverter_cell
    created.append(first_name)
    # one pass keeps the unmoved sinks in order; each group lands on
    # its inverter's net in group order
    net.sinks = [sink for sink in net.sinks if sink not in moved]
    for group in sink_groups:
        second_name = netlist.unique_name(f"{BUFFER_PREFIX}_b")
        second_out = f"{second_name}.Z"
        netlist.add_instance(second_name, "INV", {"A": first_out, "Z": second_out})
        netlist.instance(second_name).cell = inverter_cell
        created.append(second_name)
        netlist.net(second_out).sinks.extend(group)
        for sink in group:
            netlist.instance(sink.instance).connections[sink.pin] = second_out
    return created


def plan_groups(
    sinks: Sequence[PinRef], n_groups: int
) -> Tuple[List[PinRef], List[List[PinRef]]]:
    """Split movable sinks into ``n_groups`` round-robin groups.

    Returns (kept sinks, groups).  Port sinks are always kept on the
    original net.
    """
    if n_groups < 1:
        raise SynthesisError("need at least one buffer group")
    movable = [s for s in sinks if not s.is_port]
    kept = [s for s in sinks if s.is_port]
    if not movable:
        raise SynthesisError("net has no movable sinks to buffer")
    groups: List[List[PinRef]] = [[] for _ in range(n_groups)]
    for index, sink in enumerate(movable):
        groups[index % n_groups].append(sink)
    return kept, [g for g in groups if g]


def net_load(synth, netlist: Netlist, net_name: str) -> float:
    """Current capacitance of a net, from the netlist's objects."""
    config = synth.sta_config
    net = netlist.net(net_name)
    total = config.wire_cap_per_fanout * len(net.sinks)
    for sink in net.sinks:
        if sink.instance is None:
            total += config.output_port_cap
        else:
            cell = synth.library.cell(netlist.instance(sink.instance).cell)
            total += cell.pins[sink.pin].capacitance
    return total


def fix_fanout(synth, result, netlist: Netlist, stuck: Set[str]) -> Tuple[int, int]:
    """The synthesizer's buffer round over ``netlist``'s objects (bound
    to the synthesizer's cells, timed by its graph): ``(new nets,
    new instances)``; ``stuck`` holds the names of the nets no split
    can fix, across rounds."""
    graph, design = synth.graph, synth.graph.design
    choices = choices_of(synth)
    capacity = {
        family: choices.largest(family).max_load for family in [*design.families, "INV"]
    }
    owners = design.out_owner
    loads = graph.loads[design.out_nets]
    illegal = np.array(
        [
            load > capacity[design.families[design.family_ids[owner]]] + _EPS
            for load, owner in zip(loads.tolist(), owners.tolist())
        ],
        dtype=bool,
    )
    timing_heavy = (
        (_slacks(result)[design.out_nets] < -_EPS)
        & (loads > Synthesizer._TIMING_BUFFER_LOAD)
        & (graph.fanouts[design.out_nets] >= Synthesizer._TIMING_BUFFER_FANOUT)
        & np.array(
            [not netlist.instance(design.names[owner]).name.startswith(BUFFER_PREFIX)
             for owner in owners.tolist()],
            dtype=bool,
        )
    )
    worklist = [
        (graph.net_names[net_id], netlist.instance(design.names[owner]).family, not bad)
        for net_id, owner, bad, heavy in zip(
            design.out_nets.tolist(), owners.tolist(), illegal.tolist(), timing_heavy.tolist()
        )
        if bad or heavy
    ]
    created = instances = 0
    inverter = choices.smallest("INV")
    sink_cap = synth.library.cell(inverter.cell_name).pin("A").capacitance
    while worklist:
        net_name, family, force = worklist.pop()
        if net_name in stuck:
            continue
        load = net_load(synth, netlist, net_name)
        if not force and load <= capacity[family] + _EPS:
            continue
        movable = sum(1 for s in netlist.net(net_name).sinks if not s.is_port)
        if movable <= 1 and not force:
            stuck.add(net_name)
            continue
        branch_load = min(capacity[family], Synthesizer._BRANCH_TARGET_LOAD)
        n_groups = max(1, math.ceil(load / max(branch_load, _EPS)))
        try:
            _kept, groups = plan_groups(list(netlist.net(net_name).sinks), n_groups)
        except SynthesisError:
            stuck.add(net_name)
            continue
        buffer = choices.smallest_for_load("INV", load / max(len(groups), 1) + sink_cap)
        names = split_fanout(netlist, net_name, groups, buffer.cell_name)
        instances += len(names)
        created += len(names)
        for name in names:
            new_net = netlist.instance(name).net_of("Z")
            if net_load(synth, netlist, new_net) > capacity["INV"] + _EPS:
                worklist.append((new_net, "INV", False))
    return created, instances
