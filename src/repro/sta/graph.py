"""Timing-graph construction.

The graph is an arc-level, array-oriented view of a mapped netlist:

* **nets** are the timing nodes (every net has exactly one driver);
* **arcs** connect an input net to an output net through a cell's
  timing arc; the *level order* sorts them by the logic level of their
  driving instances, and the *level schedule* lists, per level, its
  slice of that order with the arcs' source and sink nets, so the
  engine evaluates a whole level with one kernel call;
* **loads** are static per mapping: sink input-pin capacitances plus a
  per-fanout wire estimate and output-port loads.

Sequential cells split the graph: their CP->Q arc launches new source
nets at the clock edge, and their D pins are endpoints checked against
``period - guard_band - setup``.

A graph has two parts.  The :class:`CompiledDesign` is everything no
cell binding changes: a :class:`DesignArrays` — the design as integer
arrays (a family id per instance, its output and input nets in CSR
form, each net's driver, the sink pins) that the synthesizer sizes on
— and the *topology* (arc src/dst, the level schedule, endpoints,
fanouts and static loads).  It is compiled once, read-only, and shared
by every graph bound on it: a flow compiles its design once and every
synthesis binds on it.  Buffer insertion appends instances and nets to
the arrays and compiles the edited arrays again
(:meth:`CompiledDesign.rebuilt`); no topology edit goes through
:class:`~repro.netlist.model.Netlist` objects.

The *binding* is per graph.  Everything that depends on the
instance->cell binding (loads, endpoint setups, launches, and each
arc's table ids into the library's compiled
:class:`~repro.kernels.sta.LibraryTables`) comes from one cell-id
array: :meth:`TimingGraph.remap` binds it, diffs it against the array
it bound last, and re-gathers from the library's :class:`CellTables`
only the loads and arc rows the changed instances touch.  So does the
load half of every arc's table lookups (:attr:`TimingGraph.load_side`,
level by level), which the engine keeps between passes and ``remap``
refreshes in place.  ``TimingGraph(netlist, library)`` compiles the
netlist and binds its ``instance.cell`` names; the synthesizer binds
its own array on the flow's compiled design, and makes a
:class:`Netlist` only when a caller asks for one
(:attr:`TimingGraph.netlist`).
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

import numpy as np

from repro.cells.functions import CellFunction, function_by_name
from repro.cells.naming import parse_cell_name
from repro.errors import CatalogError, NetlistError, TimingError
from repro.kernels.sta import LibraryTables, LoadSide, library_tables
from repro.liberty.model import Library
from repro.netlist.model import Instance, Net, Netlist, PinRef, PortDirection


@dataclass(frozen=True)
class StaConfig:
    """Analysis conventions."""

    #: Transition assumed at primary inputs (ns).
    input_slew: float = 0.05
    #: Transition of the (ideal) clock at sequential clock pins (ns).
    clock_slew: float = 0.04
    #: Wire capacitance added per sink pin (pF).
    wire_cap_per_fanout: float = 0.00015
    #: Load presented by a primary output (pF).
    output_port_cap: float = 0.002
    #: Slew assumed on an undriven/constant net (ns).
    default_slew: float = 0.05


@dataclass(frozen=True)
class Endpoint:
    """A timing endpoint: FF data pin or primary output."""

    net_id: int
    kind: str  # "ff_data" | "output_port"
    name: str  # "instance/D" or port name
    #: Setup time to subtract from the required time (FF endpoints).
    setup: float = 0.0


class CellTables:
    """Per-cell arrays of one library, indexed by cell id (library order).

    Every cell name is parsed here once, into its family and strength;
    :class:`~repro.synth.mapping.VariantTables` builds the usable
    variants from these lists and the windows.  A row is laid out in
    its family's pin and arc order
    (``CellFunction.input_pins``, ``CellFunction.arcs()``), so every
    variant of a family shares one layout and an instance gathers the
    values of any of its variants with one index.  Absent entries (a
    cell whose name names no known family, a missing pin or arc) read
    ``nan`` / ``-1``.  :func:`cell_tables` builds them once per library.
    """

    def __init__(self, library: Library, tables: LibraryTables) -> None:
        cells = list(library)
        #: Cell id -> name, and back.
        self.names: List[str] = [cell.name for cell in cells]
        self.index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        #: Cell id -> family name ("" when the name parses to none).
        self.families: List[str] = []
        #: Cell id -> drive strength of its name (``nan`` with no family).
        self.strength: List[float] = []
        #: Cell id -> its output pins (``Cell.output_pins`` order), and
        #: the smallest ``max_capacitance`` over them.
        self.output_pins: List[Tuple[str, ...]] = []
        self.max_capacitance: List[float] = []
        functions: List[Optional[CellFunction]] = []
        for cell in cells:
            try:
                name = parse_cell_name(cell.name)
                family, strength = name.family, name.strength
                function: Optional[CellFunction] = function_by_name(family)
            except CatalogError:
                family, strength, function = "", math.nan, None
            self.families.append(family)
            self.strength.append(strength)
            functions.append(function)
            outputs = cell.output_pins()
            self.output_pins.append(tuple(pin.name for pin in outputs))
            self.max_capacitance.append(
                min((pin.max_capacitance for pin in outputs), default=math.inf)
            )
        known = [function for function in functions if function is not None]
        width = max((len(function.input_pins) for function in known), default=0)
        depth = max((len(function.arcs()) for function in known), default=0)
        #: Cell areas as Python floats (a design's area sums them in
        #: instance order, left to right).
        self.area: List[float] = [cell.area for cell in cells]
        self.setup = np.array([cell.setup_time for cell in cells])
        #: (cells, input pins) input-pin capacitances.
        self.pin_caps = np.full((len(cells), width), np.nan)
        #: (cells, arcs) arc rows of ``tables``.
        self.arc_rows = np.full((len(cells), depth), -1, dtype=np.intp)
        #: Arc row of each sequential cell's clock -> first-output arc.
        self.launch_rows = np.full(len(cells), -1, dtype=np.intp)
        rows = tables.rows
        for cell_id, (cell, function) in enumerate(zip(cells, functions)):
            if function is None:
                continue
            for slot, pin in enumerate(function.input_pins):
                if pin in cell.pins:
                    self.pin_caps[cell_id, slot] = cell.pins[pin].capacitance
            for slot, (input_pin, output_pin) in enumerate(function.arcs()):
                self.arc_rows[cell_id, slot] = rows.get(
                    (cell.name, output_pin, input_pin), -1
                )
            if function.is_sequential:
                self.launch_rows[cell_id] = rows.get(
                    (cell.name, function.output_pins[0], function.clock_pin), -1
                )


_CELL_TABLES: "weakref.WeakKeyDictionary[Library, CellTables]" = (
    weakref.WeakKeyDictionary()
)


def cell_tables(library: Library) -> CellTables:
    """The :class:`CellTables` of ``library``, built on first use."""
    tables = _CELL_TABLES.get(library)
    if tables is None:
        tables = _CELL_TABLES[library] = CellTables(library, library_tables(library))
    return tables


@dataclass(frozen=True)
class _FamilyLayout:
    """Pin and arc positions every instance of one family shares."""

    function: CellFunction
    #: (position in ``input_pins``, pin) of each non-clock input.
    inputs: Tuple[Tuple[int, str], ...]
    #: Per arc of ``arcs()``: its input pin (``None`` for the clock pin)
    #: and its output pin.
    arc_inputs: Tuple[Optional[str], ...]
    arc_outputs: Tuple[str, ...]
    #: Per arc: the position of its input pin in ``inputs`` (``-1`` for
    #: the clock pin) and of its output pin in ``output_pins``.
    arc_input_index: Tuple[int, ...]
    arc_output_index: Tuple[int, ...]
    #: Per output pin: the position of its first arc (``arcs()`` lists
    #: each output pin's arcs as one run).
    runs: Tuple[int, ...]
    #: Input pin -> its position in ``input_pins``.
    slots: Dict[str, int]

    @staticmethod
    def of(function: CellFunction) -> "_FamilyLayout":
        arcs = function.arcs()
        inputs = tuple(
            (slot, pin)
            for slot, pin in enumerate(function.input_pins)
            if pin != function.clock_pin
        )
        input_index = {pin: k for k, (_slot, pin) in enumerate(inputs)}
        return _FamilyLayout(
            function=function,
            inputs=inputs,
            arc_inputs=tuple(
                None if input_pin == function.clock_pin else input_pin
                for input_pin, _output_pin in arcs
            ),
            arc_outputs=tuple(output_pin for _input_pin, output_pin in arcs),
            arc_input_index=tuple(input_index.get(pin, -1) for pin, _ in arcs),
            arc_output_index=tuple(
                function.output_pins.index(pin) for _, pin in arcs
            ),
            runs=tuple(
                next((k for k, arc in enumerate(arcs) if arc[1] == pin), len(arcs))
                for pin in function.output_pins
            ),
            slots={pin: slot for slot, pin in enumerate(function.input_pins)},
        )


_LAYOUTS: Dict[str, _FamilyLayout] = {}


def family_layout(family: str) -> _FamilyLayout:
    """The pin and arc layout of ``family``, built on first use."""
    layout = _LAYOUTS.get(family)
    if layout is None:
        layout = _LAYOUTS[family] = _FamilyLayout.of(function_by_name(family))
    return layout


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only (compiled designs are shared)."""
    array.flags.writeable = False
    return array


def _table(rows: List[Tuple[int, ...]]) -> np.ndarray:
    """A ragged list of int rows, padded with ``-1`` into one array."""
    width = max((len(row) for row in rows), default=0)
    table = np.full((len(rows), width), -1, dtype=np.intp)
    for index, row in enumerate(rows):
        table[index, : len(row)] = row
    return table


def _ptr(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of rows with ``counts`` entries each."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)


class DesignArrays:
    """A design as integer arrays, compiled once and shared read-only.

    Instances are addressed by their position in netlist order, nets by
    their position in the netlist's net order (``net_names``).  Per
    instance: its ``names`` entry, ``family_ids`` (into ``families``
    and their ``layouts``); its output nets in pin order,
    ``out_nets[out_ptr[i]:out_ptr[i + 1]]``; its non-clock input nets
    the same way (``in_ptr``/``in_nets``, ``in_slot`` the pin's position
    in ``input_pins``); its arcs in ``arcs()`` order
    (``arc_ptr``/``arc_src``/``arc_dst``, ``arc_src`` ``-1`` at a clock
    pin), with ``pin_run`` the offset of each output pin's first arc;
    its ``clock_net`` (``-1`` without a clock pin).  Per net: its
    ``driver`` instance (``-1`` for a port or none), its instance sink
    pins (``sink_ptr``; ``sink_owner``/``sink_slot`` in the netlist's
    sink order), its output-port sinks (a count, ``n_ports``, and for
    the nets that have any, ``port_sinks``: each port's position in the
    net's full sink list) and whether it is ``undriven``.  ``*_owner``
    arrays map each CSR entry back to its instance.

    The constructor derives every array from the pin connections
    (``out_nets``, ``in_nets``, ``clock_net``) and the sink lists, so
    :meth:`from_netlist` (one walk of the objects) and buffer insertion
    (:class:`~repro.synth.buffering.BufferRound`, which appends to the
    arrays) build it the same way.
    """

    def __init__(
        self,
        names: List[str],
        net_names: List[str],
        families: List[str],
        family_ids: np.ndarray,
        out_nets: np.ndarray,
        in_nets: np.ndarray,
        clock_net: np.ndarray,
        sinks: Tuple[np.ndarray, np.ndarray, np.ndarray],
        n_ports: np.ndarray,
        port_sinks: Dict[int, Tuple[Tuple[int, str], ...]],
        undriven: FrozenSet[int],
    ):
        self.names = names
        self.net_names = net_names
        self.index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self.families = families
        self.layouts = [family_layout(family) for family in families]
        self.port_sinks = port_sinks
        self.undriven = undriven
        layouts = self.layouts
        count, n_nets = len(names), len(net_names)
        self.family_ids = _frozen(np.asarray(family_ids, dtype=np.intp))
        family_ids = self.family_ids
        positions = np.arange(count)

        def per_family(count_of) -> np.ndarray:
            return np.asarray([count_of(layout) for layout in layouts], dtype=np.intp)

        def owners(ptr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            owner = np.repeat(positions, np.diff(ptr))
            return owner, np.arange(owner.size) - ptr[owner]

        self.out_ptr = _ptr(
            per_family(lambda layout: len(layout.function.output_pins))[family_ids]
        )
        self.in_ptr = _ptr(per_family(lambda layout: len(layout.inputs))[family_ids])
        self.arc_ptr = _ptr(per_family(lambda layout: len(layout.arc_inputs))[family_ids])
        self.out_nets = np.asarray(out_nets, dtype=np.intp)
        self.in_nets = np.asarray(in_nets, dtype=np.intp)
        self.clock_net = np.asarray(clock_net, dtype=np.intp)
        self.out_owner, out_index = owners(self.out_ptr)
        self.in_owner, in_index = owners(self.in_ptr)
        self.arc_owner, self.arc_slot = owners(self.arc_ptr)
        out_family = family_ids[self.out_owner]
        self.pin_run = _table([layout.runs for layout in layouts])[out_family, out_index]
        self.in_slot = _table(
            [tuple(slot for slot, _pin in layout.inputs) for layout in layouts]
        )[family_ids[self.in_owner], in_index]
        arc_family = family_ids[self.arc_owner]
        arc_in = _table([layout.arc_input_index for layout in layouts])[
            arc_family, self.arc_slot
        ]
        arc_out = _table([layout.arc_output_index for layout in layouts])[
            arc_family, self.arc_slot
        ]
        # a clock pin's arc reads index -1: the appended -1
        self.arc_src = np.append(self.in_nets, -1)[
            np.where(arc_in >= 0, self.in_ptr[self.arc_owner] + arc_in, -1)
        ]
        self.arc_dst = self.out_nets[self.out_ptr[self.arc_owner] + arc_out]
        self.driver = np.full(n_nets, -1, dtype=np.intp)
        self.driver[self.out_nets] = self.out_owner
        self.sink_ptr, self.sink_owner, self.sink_slot = (
            np.asarray(values, dtype=np.intp) for values in sinks
        )
        self.n_ports = np.asarray(n_ports, dtype=np.intp)
        self.sink_nets = np.repeat(np.arange(n_nets), np.diff(self.sink_ptr))
        self.is_sequential = np.asarray(
            [layout.function.is_sequential for layout in layouts], dtype=bool
        )[family_ids]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                _frozen(value)

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "DesignArrays":
        """Compile ``netlist`` in one walk of its objects."""
        net_ids = {name: i for i, name in enumerate(netlist.nets)}
        index = {name: i for i, name in enumerate(netlist.instances)}
        families: List[str] = []
        family_of: Dict[str, int] = {}
        family_ids: List[int] = []
        out_nets: List[int] = []
        in_nets: List[int] = []
        clock_net: List[int] = []
        for instance in netlist:
            family = family_of.get(instance.family)
            if family is None:
                family = family_of[instance.family] = len(families)
                families.append(instance.family)
            layout = family_layout(instance.family)
            family_ids.append(family)
            connections = instance.connections
            out_nets.extend(net_ids[connections[pin]] for pin in layout.function.output_pins)
            in_nets.extend(net_ids[connections[pin]] for _slot, pin in layout.inputs)
            clock_pin = layout.function.clock_pin
            clock_net.append(net_ids[connections[clock_pin]] if clock_pin else -1)

        sink_ptr, sink_owner, sink_slot, n_ports = [0], [], [], []
        port_sinks: Dict[int, Tuple[Tuple[int, str], ...]] = {}
        undriven: Set[int] = set()
        for net_id, net in enumerate(netlist.nets.values()):
            if net.driver is None:
                undriven.add(net_id)
            ports = []
            for position, sink in enumerate(net.sinks):
                if sink.instance is None:
                    ports.append((position, sink.pin))
                    continue
                sink_owner.append(index[sink.instance])
                family = netlist.instances[sink.instance].family
                sink_slot.append(family_layout(family).slots[sink.pin])
            sink_ptr.append(len(sink_owner))
            n_ports.append(len(ports))
            if ports:
                port_sinks[net_id] = tuple(ports)
        return cls(
            list(netlist.instances),
            list(netlist.nets),
            families,
            family_ids,
            out_nets,
            in_nets,
            clock_net,
            (sink_ptr, sink_owner, sink_slot),
            n_ports,
            port_sinks,
            frozenset(undriven),
        )

    def __len__(self) -> int:
        return len(self.names)

    def levelized_order(self) -> Tuple[List[int], List[int]]:
        """The combinational instances' positions in topological order,
        and the logic level of every instance.

        The integer form of :meth:`Netlist.combinational_order` and
        :meth:`Netlist.levelize`, with their order (a stack over
        netlist order), levels and errors.
        """
        sequential = self.is_sequential.tolist()
        driver, in_ptr, in_nets = self.driver.tolist(), self.in_ptr.tolist(), self.in_nets.tolist()
        count = len(self.names)
        indegree = [0] * count
        dependents: List[List[int]] = [[] for _ in range(count)]
        ready: List[int] = []
        for position in range(count):
            if sequential[position]:
                continue
            degree = 0
            for net_id in in_nets[in_ptr[position]:in_ptr[position + 1]]:
                if net_id in self.undriven:
                    raise NetlistError(f"net {self.net_names[net_id]} is undriven")
                source = driver[net_id]
                if source >= 0 and not sequential[source]:
                    degree += 1
                    dependents[source].append(position)
            indegree[position] = degree
            if degree == 0:
                ready.append(position)
        order: List[int] = []
        while ready:
            position = ready.pop()
            order.append(position)
            for dependent in dependents[position]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != count - sum(sequential):
            stuck = sorted(
                self.names[position]
                for position in range(count)
                if indegree[position] > 0
            )
            raise NetlistError(
                f"combinational cycle involving {len(stuck)} instances, "
                f"e.g. {stuck[:5]}"
            )
        levels = [0] * count
        for position in order:
            level = 0
            for net_id in in_nets[in_ptr[position]:in_ptr[position + 1]]:
                source = driver[net_id]
                level = max(level, levels[source] + 1 if source >= 0 else 1)
            levels[position] = level
        return order, levels

    def out_max(self, net_values: np.ndarray) -> np.ndarray:
        """Per instance: the largest of ``net_values`` over its outputs."""
        return np.maximum.reduceat(net_values[self.out_nets], self.out_ptr[:-1])

    def out_min(self, net_values: np.ndarray) -> np.ndarray:
        """Per instance: the smallest of ``net_values`` over its outputs."""
        return np.minimum.reduceat(net_values[self.out_nets], self.out_ptr[:-1])


class CompiledDesign:
    """Everything of a timing graph that no cell binding changes.

    The :class:`DesignArrays`, the net ids, the clock and primary-input
    nets, the launch and endpoint sites, the graph's arcs in level
    order with their level schedule, each net's fanout and the static
    part of its load.  Every array is read-only: a flow compiles its
    design once (:meth:`of`) and every synthesis binds its own cells on
    it (:class:`TimingGraph`); buffer insertion makes a new one from
    the edited arrays (:meth:`rebuilt`), never from objects.
    """

    def __init__(
        self,
        name: str,
        design: DesignArrays,
        ports: Tuple[Tuple[str, PortDirection, str], ...],
        clock: str,
        config: StaConfig,
    ):
        self.name = name
        self.design = design
        #: (port, direction, port net) in declaration order.
        self.ports = ports
        #: The clock input port ('' for none).
        self.clock = clock
        self.config = config
        self.net_names = design.net_names
        self.net_ids: Dict[str, int] = {name: i for i, name in enumerate(self.net_names)}
        self.clock_net_id = self.net_ids.get(clock, -1)
        self.primary_input_ids = [
            self.net_ids[net]
            for port, direction, net in ports
            if direction is PortDirection.INPUT and port != clock
        ]

        #: Positions of the sequential instances, in netlist order.
        self.launch_owners = _frozen(np.flatnonzero(design.is_sequential))
        #: Per launch: its instance name, output pin and Q net.
        self.launch_sites: List[Tuple[str, str, int]] = []
        #: The endpoints, without setups (see :attr:`TimingGraph.endpoints`).
        self.endpoint_sites: List[Endpoint] = []
        #: Per flip-flop endpoint: the instance whose setup it checks.
        endpoint_owners: List[int] = []
        in_ptr, in_nets = design.in_ptr.tolist(), design.in_nets.tolist()
        out_ptr, out_nets = design.out_ptr.tolist(), design.out_nets.tolist()
        for position in self.launch_owners.tolist():
            name = design.names[position]
            layout = design.layouts[design.family_ids[position]]
            function = layout.function
            self.launch_sites.append(
                (name, function.output_pins[0], out_nets[out_ptr[position]])
            )
            inputs = [pin for _slot, pin in layout.inputs]
            for pin in function.data_input_pins:
                self.endpoint_sites.append(
                    Endpoint(
                        net_id=in_nets[in_ptr[position] + inputs.index(pin)],
                        kind="ff_data",
                        name=f"{name}/{pin}",
                    )
                )
                endpoint_owners.append(position)
        for port, direction, net in ports:
            if direction is PortDirection.OUTPUT:
                self.endpoint_sites.append(
                    Endpoint(net_id=self.net_ids[net], kind="output_port", name=port)
                )
        if not self.endpoint_sites:
            raise TimingError("design has no timing endpoints")
        self.endpoint_owners = _frozen(np.asarray(endpoint_owners, dtype=np.intp))

        # the graph's arcs are the design arcs of the combinational
        # instances, instance by instance in topological order
        order, levels = design.levelized_order()
        #: The deepest logic level (:meth:`Netlist.levelize`'s maximum).
        self.depth = max(levels, default=0)
        ordered = np.asarray(order, dtype=np.intp)
        starts = design.arc_ptr[ordered]
        counts = design.arc_ptr[ordered + 1] - starts
        positions = np.arange(counts.sum()) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts
        )

        # per graph arc: its design instance and its place in that
        # instance's arcs (its pins in the family layout's
        # ``arc_inputs``/``arc_outputs``), which address its row in
        # CellTables.arc_rows
        self.arc_owners = _frozen(design.arc_owner[positions])
        self.arc_slots = _frozen(design.arc_slot[positions])
        self.arc_src = _frozen(design.arc_src[positions].astype(np.int64))
        self.arc_dst = _frozen(design.arc_dst[positions].astype(np.int64))
        self.arc_level = _frozen(
            np.repeat(np.asarray(levels, dtype=np.int64)[ordered], counts)
        )
        self.n_arcs = positions.size

        # level schedule: (rows of level_order, src nets, dst nets) per
        # level, ascending; arcs of one level never feed each other
        #: Arc ids level by level: the row order of the load side.
        self.level_order = _frozen(np.argsort(self.arc_level, kind="stable"))
        order = self.level_order
        bounds = np.flatnonzero(np.diff(self.arc_level[order])) + 1
        edges = [0, *bounds.tolist(), self.n_arcs] if self.n_arcs else [0]
        src, dst = _frozen(self.arc_src[order]), _frozen(self.arc_dst[order])
        self.level_schedule: List[Tuple[slice, np.ndarray, np.ndarray]] = [
            (slice(start, stop), src[start:stop], dst[start:stop])
            for start, stop in zip(edges, edges[1:])
        ]
        self.endpoint_net_ids = _frozen(np.array(
            [endpoint.net_id for endpoint in self.endpoint_sites], dtype=np.int64
        ))

        # the loads' static part: per-fanout wire and output ports
        port_counts = design.n_ports.astype(np.int64)
        #: Sink pins (instance pins and ports) per net.
        self.fanouts = _frozen(np.diff(design.sink_ptr).astype(np.int64) + port_counts)
        self.static_loads = _frozen(
            config.wire_cap_per_fanout * self.fanouts
            + config.output_port_cap * port_counts
        )

    @classmethod
    def of(cls, netlist: Netlist, config: Optional[StaConfig] = None) -> "CompiledDesign":
        """Compile ``netlist`` (one walk of its objects)."""
        ports = tuple(
            (port, direction, netlist.port_net(port))
            for port, direction in netlist.ports.items()
        )
        return cls(
            netlist.name,
            DesignArrays.from_netlist(netlist),
            ports,
            netlist.clock,
            config or StaConfig(),
        )

    def rebuilt(self, design: DesignArrays) -> "CompiledDesign":
        """This design's ports and conventions over edited ``design``
        arrays, re-levelized."""
        return CompiledDesign(self.name, design, self.ports, self.clock, self.config)

    def netlist(self, cells: Optional[List[str]] = None) -> Netlist:
        """The design as a :class:`Netlist` (nets, instances, ports and
        sink lists in the compiled order), each instance bound to
        ``cells[position]`` when given."""
        design = self.design
        netlist = Netlist(self.name)
        netlist.ports = {port: direction for port, direction, _net in self.ports}
        netlist.port_nets = {port: net for port, _direction, net in self.ports}
        netlist.clock = self.clock
        names, net_names = design.names, design.net_names
        nets = [Net(name) for name in net_names]
        for port, direction, net in self.ports:
            if direction is PortDirection.INPUT:
                nets[self.net_ids[net]].driver = PinRef(None, port)
        out_ptr, out_nets = design.out_ptr.tolist(), design.out_nets.tolist()
        in_ptr, in_nets = design.in_ptr.tolist(), design.in_nets.tolist()
        clock_net = design.clock_net.tolist()
        for position, (name, family) in enumerate(zip(names, design.family_ids.tolist())):
            layout = design.layouts[family]
            function = layout.function
            connections: Dict[str, str] = {}
            for (_slot, pin), net_id in zip(
                layout.inputs, in_nets[in_ptr[position]:in_ptr[position + 1]]
            ):
                connections[pin] = net_names[net_id]
            if function.clock_pin:
                connections[function.clock_pin] = net_names[clock_net[position]]
            for pin, net_id in zip(
                function.output_pins, out_nets[out_ptr[position]:out_ptr[position + 1]]
            ):
                connections[pin] = net_names[net_id]
                nets[net_id].driver = PinRef(name, pin)
            netlist.instances[name] = Instance(
                name, design.families[family], connections, cells[position] if cells else ""
            )
        sink_ptr = design.sink_ptr.tolist()
        owners, slots = design.sink_owner.tolist(), design.sink_slot.tolist()
        input_pins = [
            design.layouts[family].function.input_pins for family in design.family_ids.tolist()
        ]
        for net_id, net in enumerate(nets):
            start, stop = sink_ptr[net_id], sink_ptr[net_id + 1]
            net.sinks = [
                PinRef(names[owner], input_pins[owner][slot])
                for owner, slot in zip(owners[start:stop], slots[start:stop])
            ]
            for position, port in design.port_sinks.get(net_id, ()):
                net.sinks.insert(position, PinRef(None, port))
            netlist.nets[net.name] = net
        return netlist


class TimingGraph:
    """Array-oriented timing graph: a compiled design and one binding."""

    def __init__(
        self,
        design: Union[Netlist, CompiledDesign],
        library: Library,
        config: Optional[StaConfig] = None,
        cell_ids: Optional[np.ndarray] = None,
    ):
        """Compile ``design`` when it is a :class:`Netlist` (binding its
        ``instance.cell`` names), or bind ``cell_ids`` on a compiled
        design shared with other graphs.  ``config`` applies to the
        compile."""
        if isinstance(design, Netlist):
            self._netlist: Optional[Netlist] = design
            compiled = CompiledDesign.of(design, config)
        else:
            if cell_ids is None or config not in (None, design.config):
                raise TimingError(
                    "a compiled design binds a cell-id array under its own StaConfig"
                )
            self._netlist = None
            compiled = design
        self.compiled = compiled
        self.library = library
        self.config = compiled.config
        self.cells = cell_tables(library)
        self.tables: LibraryTables = library_tables(library)
        # the shared, read-only topology
        self.design = compiled.design
        self.net_ids, self.net_names = compiled.net_ids, compiled.net_names
        self.clock_net_id = compiled.clock_net_id
        self.primary_input_ids = compiled.primary_input_ids
        self.arc_owners, self.arc_slots = compiled.arc_owners, compiled.arc_slots
        self.arc_src, self.arc_dst = compiled.arc_src, compiled.arc_dst
        self.arc_level, self.n_arcs = compiled.arc_level, compiled.n_arcs
        self.level_order, self.level_schedule = compiled.level_order, compiled.level_schedule
        self.endpoint_net_ids = compiled.endpoint_net_ids
        self.fanouts = compiled.fanouts
        #: The bound cell ids (none before the first remap, which
        #: treats every instance as changed).
        self.cell_ids: Optional[np.ndarray] = None
        #: Per sink pin: its capacitance under the bound cell.
        self._caps = np.zeros(self.design.sink_owner.size)
        self.loads = compiled.static_loads.copy()
        self.arc_tables = np.zeros((self.n_arcs, 4), dtype=np.intp)
        #: The load half of every arc's lookups, level by level (row
        #: ``r`` is arc ``level_order[r]`` at its sink net's load); the
        #: first remap builds it.
        self.load_side: LoadSide
        self.remap(self.read_cells() if cell_ids is None else cell_ids)

    # ------------------------------------------------------------------

    def remap(self, cell_ids: np.ndarray) -> None:
        """Bind ``cell_ids`` (a cell id per design instance, see
        :meth:`read_cells`) and refresh what depends on it.

        Call after changing drive strengths; buffer insertion binds a
        new graph on the edited design instead.  Each call diffs
        ``cell_ids`` against the binding the previous call saw (the
        constructor's first call counts every instance as changed), so
        callers keep no dirty set: only the loads of nets whose sinks
        changed cell and only the changed owners' ``arc_tables`` rows
        are gathered again, and only those arcs and the arcs into those
        nets get their :attr:`load_side` rows interpolated again, in
        place.  A changed sequential cell also recomputes the (few)
        endpoint setups and launches whole.  A dirty net is
        re-accumulated whole — the static part, then every sink's
        capacitance in sink order — so its float equals a fresh
        graph's; ``loads`` and ``arc_tables`` are replaced, never
        written in place.
        """
        cell_ids = np.array(cell_ids, dtype=np.intp)
        design, cells = self.design, self.cells
        arc_owners, arc_slots = self.arc_owners, self.arc_slots
        first = self.cell_ids is None
        changed = np.ones(len(design), dtype=bool) if first else cell_ids != self.cell_ids
        self.cell_ids = cell_ids
        sinks = changed[design.sink_owner]
        dirty = np.zeros(len(self.net_names), dtype=bool)
        if sinks.any():
            self._caps[sinks] = cells.pin_caps[
                cell_ids[design.sink_owner[sinks]], design.sink_slot[sinks]
            ]
            dirty[design.sink_nets[sinks]] = True
            loads = self.loads.copy()
            loads[dirty] = self.compiled.static_loads[dirty]
            picked = dirty[design.sink_nets]
            np.add.at(loads, design.sink_nets[picked], self._caps[picked])
            self.loads = loads
        arcs = changed[arc_owners]
        if arcs.any():
            arc_tables = self.arc_tables.copy()
            arc_tables[arcs] = self._table_ids(
                cells.arc_rows[cell_ids[arc_owners[arcs]], arc_slots[arcs]]
            )
            self.arc_tables = arc_tables
        order = self.level_order
        stale = arcs[order] | dirty[self.arc_dst[order]]
        if first or stale.any():
            rows = np.flatnonzero(stale)
            fresh = LoadSide(
                self.tables,
                self.arc_tables[order[rows]],
                self.loads[self.arc_dst[order[rows]]],
            )
            if first:
                self.load_side = fresh
            else:
                self.load_side.write(rows, fresh)
        if first or changed[self.compiled.launch_owners].any():
            self._remap_sequential()

    def _remap_sequential(self) -> None:
        """Endpoint setups and clock->Q launches of the bound sequential
        cells."""
        compiled, cells, bound = self.compiled, self.cells, self.cell_ids
        owners = compiled.endpoint_owners
        setups = np.zeros(len(compiled.endpoint_sites))
        setups[: owners.size] = cells.setup[bound[owners]]
        self.endpoint_setups = setups
        self._endpoints: Optional[List[Endpoint]] = None

        # clock->Q launches, grouped by bound cell in first-seen order
        by_cell: Dict[int, List[int]] = {}
        for launch, cell_id in enumerate(bound[compiled.launch_owners].tolist()):
            by_cell.setdefault(cell_id, []).append(launch)
        #: (instance, cell, output pin, Q net) per launch, in scan order.
        self.launches: List[Tuple[str, str, str, int]] = []
        launch_rows: List[int] = []
        for cell_id, members in by_cell.items():
            cell_name, row = cells.names[cell_id], int(cells.launch_rows[cell_id])
            for launch in members:
                name, out_pin, q_net = compiled.launch_sites[launch]
                self.launches.append((name, cell_name, out_pin, q_net))
                launch_rows.append(row)
        self.launch_q = np.array(
            [launch[3] for launch in self.launches], dtype=np.int64
        )
        self.launch_tables = self._table_ids(np.asarray(launch_rows, dtype=np.intp))

    @property
    def endpoints(self) -> List[Endpoint]:
        """The timing endpoints (flip-flop data pins, then output ports)
        with the setups of the bound cells; built on first use after a
        remap that changed a sequential cell."""
        if self._endpoints is None:
            self._endpoints = [
                Endpoint(site.net_id, site.kind, site.name, setup)
                for site, setup in zip(
                    self.compiled.endpoint_sites, self.endpoint_setups.tolist()
                )
            ]
        return self._endpoints

    def _table_ids(self, rows: np.ndarray) -> np.ndarray:
        """(n, 4) delay + transition table-id pairs of library arc rows."""
        if rows.size and rows.min() < 0:
            raise TimingError("bound cell lacks a timing arc of its family")
        ids = np.concatenate(
            [self.tables.delay[rows], self.tables.transition[rows]], axis=1
        )
        if ids.size and ids.min() < 0:
            raise TimingError("timing arc lacks delay or transition tables")
        return ids

    # ------------------------------------------------------------------
    # The object view, made only on request

    @property
    def netlist(self) -> Netlist:
        """The netlist the graph was compiled from; for a graph bound on
        a compiled design, one made from the arrays on first use, bound
        to the cells bound then (:meth:`write_cells` updates it)."""
        if self._netlist is None:
            names = self.cells.names
            self._netlist = self.compiled.netlist(
                [names[cell_id] for cell_id in self.cell_ids.tolist()]
            )
        return self._netlist

    def read_cells(self) -> np.ndarray:
        """The ``instance.cell`` names of :attr:`netlist`, as cell ids."""
        index, families = self.cells.index, self.cells.families
        ids = []
        for instance in self.netlist:
            cell_id = index.get(instance.cell)
            if cell_id is None or families[cell_id] != instance.family:
                raise TimingError(
                    f"instance {instance.name} ({instance.family}) is not bound "
                    f"to a library cell of its family: {instance.cell!r}"
                )
            ids.append(cell_id)
        return np.asarray(ids, dtype=np.intp)

    def write_cells(self, cell_ids: np.ndarray) -> None:
        """Set every ``instance.cell`` of :attr:`netlist` from ``cell_ids``."""
        names = self.cells.names
        for instance, cell_id in zip(self.netlist, cell_ids.tolist()):
            instance.cell = names[cell_id]

    # ------------------------------------------------------------------

    def total_area(self) -> float:
        """Total cell area of the bound design (um^2)."""
        area = self.cells.area
        return sum(area[cell_id] for cell_id in self.cell_ids.tolist())

    def cell_usage(self) -> Dict[str, int]:
        """Bound-cell histogram (paper Fig. 9), in first-use order."""
        names = self.cells.names
        return {
            names[cell_id]: count
            for cell_id, count in Counter(self.cell_ids.tolist()).items()
        }

    def fanout_of(self, net_id: int) -> int:
        """Number of sink pins on a net."""
        return int(self.fanouts[net_id])
