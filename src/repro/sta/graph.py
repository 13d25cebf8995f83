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

The netlist is compiled once per graph, in one walk: the *topology*
(arc src/dst, the level schedule, endpoints) and a
:class:`DesignArrays` — the design as integer arrays (a cell id and a
family id per instance, its output and input nets in CSR form, each
net's driver, the sink pins) that the synthesizer sizes on.  Everything
that depends on the instance->cell binding (loads, endpoint setups,
launches, and each arc's table ids into the library's compiled
:class:`~repro.kernels.sta.LibraryTables`) comes from one cell-id
array: :meth:`TimingGraph.remap` binds it, diffs it against the array it
bound last, and re-gathers from the library's :class:`CellTables` only
the loads and arc rows the changed instances touch.  So does the load
half of every arc's table lookups (:attr:`TimingGraph.load_side`,
level by level), which the engine keeps between passes.  The constructor
binds the instances' ``instance.cell`` names
(:meth:`DesignArrays.read_cells`); the sizer binds its own array.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cells.functions import CellFunction, function_by_name
from repro.cells.naming import parse_cell_name
from repro.errors import CatalogError, NetlistError, TimingError
from repro.kernels.sta import LibraryTables, LoadSide, library_tables
from repro.liberty.model import Library
from repro.netlist.model import Instance, Netlist


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
    #: Per output pin: the position of its first arc (``arcs()`` lists
    #: each output pin's arcs as one run).
    runs: Tuple[int, ...]
    #: Input pin -> its position in ``input_pins``.
    slots: Dict[str, int]

    @staticmethod
    def of(function: CellFunction) -> "_FamilyLayout":
        arcs = function.arcs()
        return _FamilyLayout(
            function=function,
            inputs=tuple(
                (slot, pin)
                for slot, pin in enumerate(function.input_pins)
                if pin != function.clock_pin
            ),
            arc_inputs=tuple(
                None if input_pin == function.clock_pin else input_pin
                for input_pin, _output_pin in arcs
            ),
            arc_outputs=tuple(output_pin for _input_pin, output_pin in arcs),
            runs=tuple(
                next((k for k, arc in enumerate(arcs) if arc[1] == pin), len(arcs))
                for pin in function.output_pins
            ),
            slots={pin: slot for slot, pin in enumerate(function.input_pins)},
        )


class DesignArrays:
    """A netlist compiled to integer arrays.

    Instances are addressed by their position in netlist order, nets by
    the graph's net ids, cells by :class:`CellTables` ids.  Per
    instance: ``family_ids`` (into ``families``); its output nets in pin
    order, ``out_nets[out_ptr[i]:out_ptr[i + 1]]``; its non-clock input
    nets the same way (``in_ptr``/``in_nets``, ``in_slot`` the pin's
    position in ``input_pins``); its arcs in ``arcs()`` order
    (``arc_ptr``/``arc_src``/``arc_dst``, ``arc_src`` ``-1`` at a clock
    pin), with ``pin_run`` the offset of each output pin's first arc;
    its ``clock_net`` (``-1`` without a clock pin).  Per net: its
    ``driver`` instance (``-1`` for a port or none), its sink pins
    (``sink_ptr``; ``sink_owner``/``sink_slot`` in the netlist's sink
    order, every input pin included) and whether it is ``undriven``.
    ``*_owner`` arrays map each CSR entry back to its instance.
    """

    def __init__(self, netlist: Netlist, net_ids: Dict[str, int], cells: CellTables):
        self.cells = cells
        self.net_names: List[str] = list(net_ids)
        self.instances: List[Instance] = list(netlist)
        self.index: Dict[str, int] = {}
        self.families: List[str] = []
        self.layouts: List[_FamilyLayout] = []
        family_of: Dict[str, int] = {}
        family_ids: List[int] = []
        out_ptr, out_nets, pin_run = [0], [], []
        in_ptr, in_nets, in_slot = [0], [], []
        arc_ptr, arc_src, arc_dst = [0], [], []
        clock_net: List[int] = []
        driver = [-1] * len(net_ids)
        for position, instance in enumerate(self.instances):
            self.index[instance.name] = position
            family = family_of.get(instance.family)
            if family is None:
                family = family_of[instance.family] = len(self.families)
                self.families.append(instance.family)
                self.layouts.append(_FamilyLayout.of(instance.function))
            layout = self.layouts[family]
            family_ids.append(family)
            connections = instance.connections
            for pin in layout.function.output_pins:
                net_id = net_ids[connections[pin]]
                out_nets.append(net_id)
                driver[net_id] = position
            out_ptr.append(len(out_nets))
            pin_run.extend(layout.runs)
            for slot, pin in layout.inputs:
                in_nets.append(net_ids[connections[pin]])
                in_slot.append(slot)
            in_ptr.append(len(in_nets))
            clock_pin = layout.function.clock_pin
            clock_net.append(net_ids[connections[clock_pin]] if clock_pin else -1)
            arc_src.extend(
                -1 if pin is None else net_ids[connections[pin]]
                for pin in layout.arc_inputs
            )
            arc_dst.extend(net_ids[connections[pin]] for pin in layout.arc_outputs)
            arc_ptr.append(len(arc_src))

        sink_ptr, sink_owner, sink_slot, n_ports = [0], [], [], []
        #: Ids of the nets without a driver.
        self.undriven: Set[int] = set()
        for net_id, net in enumerate(netlist.nets.values()):
            if net.driver is None:
                self.undriven.add(net_id)
            ports = 0
            for sink in net.sinks:
                if sink.instance is None:
                    ports += 1
                    continue
                owner = self.index[sink.instance]
                sink_owner.append(owner)
                sink_slot.append(self.layouts[family_ids[owner]].slots[sink.pin])
            sink_ptr.append(len(sink_owner))
            n_ports.append(ports)

        def array(values: List[int]) -> np.ndarray:
            return np.asarray(values, dtype=np.intp)

        self.family_ids = array(family_ids)
        self.out_ptr, self.out_nets, self.pin_run = array(out_ptr), array(out_nets), array(pin_run)
        self.in_ptr, self.in_nets, self.in_slot = array(in_ptr), array(in_nets), array(in_slot)
        self.arc_ptr, self.arc_src, self.arc_dst = array(arc_ptr), array(arc_src), array(arc_dst)
        self.clock_net, self.driver = array(clock_net), array(driver)
        self.sink_ptr, self.sink_owner = array(sink_ptr), array(sink_owner)
        self.sink_slot, self.n_ports = array(sink_slot), array(n_ports)
        self.sink_nets = np.repeat(np.arange(len(n_ports)), np.diff(self.sink_ptr))
        positions = np.arange(len(self.instances))
        self.out_owner = np.repeat(positions, np.diff(self.out_ptr))
        self.in_owner = np.repeat(positions, np.diff(self.in_ptr))
        self.arc_owner = np.repeat(positions, np.diff(self.arc_ptr))
        #: Each arc's position within its instance's arcs.
        self.arc_slot = np.arange(len(arc_src)) - self.arc_ptr[self.arc_owner]
        self.is_sequential = np.array(
            [self.layouts[family].function.is_sequential for family in family_ids],
            dtype=bool,
        )

    def __len__(self) -> int:
        return len(self.instances)

    def levelized_order(self) -> Tuple[List[int], List[int]]:
        """The combinational instances' positions in topological order,
        and the logic level of every instance.

        The integer form of :meth:`Netlist.combinational_order` and
        :meth:`Netlist.levelize`, with their order (a stack over
        netlist order), levels and errors.
        """
        sequential = self.is_sequential.tolist()
        driver, in_ptr, in_nets = self.driver.tolist(), self.in_ptr.tolist(), self.in_nets.tolist()
        count = len(self.instances)
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
                self.instances[position].name
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

    def read_cells(self) -> np.ndarray:
        """The instances' ``instance.cell`` names, as cell ids."""
        index, families = self.cells.index, self.cells.families
        ids = []
        for instance in self.instances:
            cell_id = index.get(instance.cell)
            if cell_id is None or families[cell_id] != instance.family:
                raise TimingError(
                    f"instance {instance.name} ({instance.family}) is not bound "
                    f"to a library cell of its family: {instance.cell!r}"
                )
            ids.append(cell_id)
        return np.asarray(ids, dtype=np.intp)

    def write_cells(self, cell_ids: np.ndarray) -> None:
        """Set every ``instance.cell`` from ``cell_ids``."""
        names = self.cells.names
        for instance, cell_id in zip(self.instances, cell_ids.tolist()):
            instance.cell = names[cell_id]

    def out_max(self, net_values: np.ndarray) -> np.ndarray:
        """Per instance: the largest of ``net_values`` over its outputs."""
        return np.maximum.reduceat(net_values[self.out_nets], self.out_ptr[:-1])

    def out_min(self, net_values: np.ndarray) -> np.ndarray:
        """Per instance: the smallest of ``net_values`` over its outputs."""
        return np.minimum.reduceat(net_values[self.out_nets], self.out_ptr[:-1])


class TimingGraph:
    """Array-oriented timing graph of a mapped netlist."""

    def __init__(
        self,
        netlist: Netlist,
        library: Library,
        config: Optional[StaConfig] = None,
    ):
        self.netlist = netlist
        self.library = library
        self.config = config or StaConfig()
        self.tables: LibraryTables = library_tables(library)
        self._build_topology()
        self.remap(self.design.read_cells())

    # ------------------------------------------------------------------

    def _build_topology(self) -> None:
        """Mapping-independent structure: nets, arcs, levels, endpoints."""
        netlist = self.netlist
        self.net_ids: Dict[str, int] = {name: i for i, name in enumerate(netlist.nets)}
        self.net_names: List[str] = list(netlist.nets)
        self.design = design = DesignArrays(
            netlist, self.net_ids, cell_tables(self.library)
        )

        clock_net = netlist.clock
        self.clock_net_id = self.net_ids.get(clock_net, -1)
        self.primary_input_ids = [
            self.net_ids[p] for p in netlist.input_ports() if p != clock_net
        ]

        #: Positions of the sequential instances, in netlist order.
        self._launch_owners = np.flatnonzero(design.is_sequential)
        #: Per launch: its instance name, output pin and Q net.
        self._launch_sites: List[Tuple[str, str, int]] = []
        #: The endpoints, without setups (see :attr:`endpoints`).
        self._endpoint_sites: List[Endpoint] = []
        #: Per flip-flop endpoint: the instance whose setup it checks.
        endpoint_owners: List[int] = []
        for position in self._launch_owners.tolist():
            instance = design.instances[position]
            function = design.layouts[design.family_ids[position]].function
            out_pin = function.output_pins[0]
            self._launch_sites.append(
                (instance.name, out_pin, self.net_ids[instance.connections[out_pin]])
            )
            for pin in function.data_input_pins:
                self._endpoint_sites.append(
                    Endpoint(
                        net_id=self.net_ids[instance.net_of(pin)],
                        kind="ff_data",
                        name=f"{instance.name}/{pin}",
                    )
                )
                endpoint_owners.append(position)
        for port in netlist.output_ports():
            self._endpoint_sites.append(
                Endpoint(
                    net_id=self.net_ids[netlist.port_net(port)],
                    kind="output_port",
                    name=port,
                )
            )
        if not self._endpoint_sites:
            raise TimingError("design has no timing endpoints")
        self._endpoint_owners = np.asarray(endpoint_owners, dtype=np.intp)

        # the graph's arcs are the design arcs of the combinational
        # instances, instance by instance in topological order
        order, levels = design.levelized_order()
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
        self.arc_owners = design.arc_owner[positions]
        self.arc_slots = design.arc_slot[positions]
        self.arc_src = design.arc_src[positions].astype(np.int64)
        self.arc_dst = design.arc_dst[positions].astype(np.int64)
        self.arc_level = np.repeat(np.asarray(levels, dtype=np.int64)[ordered], counts)
        self.n_arcs = positions.size

        # level schedule: (rows of level_order, src nets, dst nets) per
        # level, ascending; arcs of one level never feed each other
        #: Arc ids level by level: the row order of :attr:`load_side`.
        self.level_order = order = np.argsort(self.arc_level, kind="stable")
        bounds = np.flatnonzero(np.diff(self.arc_level[order])) + 1
        edges = [0, *bounds.tolist(), self.n_arcs] if self.n_arcs else [0]
        src, dst = self.arc_src[order], self.arc_dst[order]
        self.level_schedule: List[Tuple[slice, np.ndarray, np.ndarray]] = [
            (slice(start, stop), src[start:stop], dst[start:stop])
            for start, stop in zip(edges, edges[1:])
        ]
        self.endpoint_net_ids = np.array(
            [endpoint.net_id for endpoint in self._endpoint_sites], dtype=np.int64
        )

        # the loads' static part: per-fanout wire and output ports
        config = self.config
        port_counts = design.n_ports.astype(np.int64)
        #: Sink pins (instance pins and ports) per net.
        self.fanouts = np.diff(design.sink_ptr).astype(np.int64) + port_counts
        self._static_loads = (
            config.wire_cap_per_fanout * self.fanouts
            + config.output_port_cap * port_counts
        )
        #: The bound cell ids (none before the first remap, which
        #: treats every instance as changed).
        self.cell_ids: Optional[np.ndarray] = None
        #: Per sink pin: its capacitance under the bound cell.
        self._caps = np.zeros(design.sink_owner.size)
        self.loads = self._static_loads.copy()
        self.arc_tables = np.zeros((self.n_arcs, 4), dtype=np.intp)
        #: The load half of every arc's lookups, level by level (row
        #: ``r`` is arc ``level_order[r]`` at its sink net's load); the
        #: first remap builds it.
        self.load_side: LoadSide

    # ------------------------------------------------------------------

    def remap(self, cell_ids: np.ndarray) -> None:
        """Bind ``cell_ids`` (a cell id per design instance, see
        :meth:`DesignArrays.read_cells`) and refresh what depends on it.

        Call after changing drive strengths; topology edits (buffer
        insertion) need a full :class:`TimingGraph` rebuild instead.
        Each call diffs ``cell_ids`` against the binding the previous
        call saw (the constructor's first call counts every instance as
        changed), so callers keep no dirty set: only the loads of nets
        whose sinks changed cell and only the changed owners'
        ``arc_tables`` rows are gathered again, and only those arcs and
        the arcs into those nets get their :attr:`load_side` rows
        interpolated again.  A changed sequential cell also recomputes
        the (few) endpoint setups and launches whole.  A dirty net is
        re-accumulated whole — the static part, then every sink's
        capacitance in sink order — so its float equals a fresh
        graph's; ``loads``, ``arc_tables`` and ``load_side`` are
        replaced, never written in place.
        """
        cell_ids = np.array(cell_ids, dtype=np.intp)
        design, cells = self.design, self.design.cells
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
            loads[dirty] = self._static_loads[dirty]
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
            self.load_side = fresh if first else self.load_side.replaced(rows, fresh)
        if first or changed[self._launch_owners].any():
            self._remap_sequential()

    def _remap_sequential(self) -> None:
        """Endpoint setups and clock->Q launches of the bound sequential
        cells."""
        cells, bound = self.design.cells, self.cell_ids
        setups = np.zeros(len(self._endpoint_sites))
        setups[: self._endpoint_owners.size] = cells.setup[bound[self._endpoint_owners]]
        self.endpoint_setups = setups
        self._endpoints: Optional[List[Endpoint]] = None

        # clock->Q launches, grouped by bound cell in first-seen order
        by_cell: Dict[int, List[int]] = {}
        for launch, cell_id in enumerate(bound[self._launch_owners].tolist()):
            by_cell.setdefault(cell_id, []).append(launch)
        #: (instance, cell, output pin, Q net) per launch, in scan order.
        self.launches: List[Tuple[str, str, str, int]] = []
        launch_rows: List[int] = []
        for cell_id, members in by_cell.items():
            cell_name, row = cells.names[cell_id], int(cells.launch_rows[cell_id])
            for launch in members:
                name, out_pin, q_net = self._launch_sites[launch]
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
                for site, setup in zip(self._endpoint_sites, self.endpoint_setups.tolist())
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

    def total_area(self) -> float:
        """Total cell area of the bound design (um^2)."""
        area = self.design.cells.area
        return sum(area[cell_id] for cell_id in self.cell_ids.tolist())

    def cell_usage(self) -> Dict[str, int]:
        """Bound-cell histogram (paper Fig. 9)."""
        return self.netlist.cell_histogram()

    def fanout_of(self, net_id: int) -> int:
        """Number of sink pins on a net."""
        return int(self.fanouts[net_id])
