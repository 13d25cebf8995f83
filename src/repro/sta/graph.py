"""Timing-graph construction.

The graph is an arc-level, array-oriented view of a mapped netlist:

* **nets** are the timing nodes (every net has exactly one driver);
* **arcs** connect an input net to an output net through a cell's
  timing arc; the *level schedule* lists, per logic level of the
  driving instances, the arc indices with their source and sink nets,
  so the engine evaluates a whole level with one kernel call;
* **loads** are static per mapping: sink input-pin capacitances plus a
  per-fanout wire estimate and output-port loads.

Sequential cells split the graph: their CP->Q arc launches new source
nets at the clock edge, and their D pins are endpoints checked against
``period - guard_band - setup``.

The netlist *topology* part of the graph (arc src/dst, the level
schedule, endpoints) is built once; :meth:`TimingGraph.remap` refreshes
the parts that depend on the instance->cell binding (loads, endpoint
setups, and each arc's table ids into the library's compiled
:class:`~repro.kernels.sta.LibraryTables`), which is what the
synthesizer's sizing loop iterates on.  It diffs the binding against
the one it saw last and patches only the loads and arc rows the
changed cells touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TimingError
from repro.kernels.sta import LibraryTables, library_tables
from repro.liberty.model import Cell, Library
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

    def to_payload(self) -> dict:
        """JSON-serializable rendering (artifact pipeline)."""
        return {
            "net_id": self.net_id,
            "kind": self.kind,
            "name": self.name,
            "setup": self.setup,
        }

    @staticmethod
    def from_payload(payload: dict) -> "Endpoint":
        """Rebuild an endpoint stored with :meth:`to_payload`."""
        return Endpoint(
            net_id=int(payload["net_id"]),
            kind=payload["kind"],
            name=payload["name"],
            setup=float(payload["setup"]),
        )


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
        self.remap()

    # ------------------------------------------------------------------

    def _cell_of(self, instance: Instance) -> Cell:
        if not instance.cell:
            raise TimingError(
                f"instance {instance.name} is not bound to a library cell"
            )
        return self.library.cell(instance.cell)

    def _build_topology(self) -> None:
        """Mapping-independent structure: nets, arcs, levels, endpoints."""
        netlist = self.netlist
        self.net_ids: Dict[str, int] = {name: i for i, name in enumerate(netlist.nets)}
        self.net_names: List[str] = list(netlist.nets)

        clock_net = netlist.clock
        self.clock_net_id = self.net_ids.get(clock_net, -1)
        self.primary_input_ids = [
            self.net_ids[p] for p in netlist.input_ports() if p != clock_net
        ]

        self.launch_instances: List[Instance] = list(netlist.sequential_instances())
        self.endpoints: List[Endpoint] = []
        for instance in self.launch_instances:
            for pin in instance.function.data_input_pins:
                self.endpoints.append(
                    Endpoint(
                        net_id=self.net_ids[instance.net_of(pin)],
                        kind="ff_data",
                        name=f"{instance.name}/{pin}",
                    )
                )
        for port in netlist.output_ports():
            self.endpoints.append(
                Endpoint(
                    net_id=self.net_ids[netlist.port_net(port)],
                    kind="output_port",
                    name=port,
                )
            )
        if not self.endpoints:
            raise TimingError("design has no timing endpoints")

        order = netlist.combinational_order()
        levels = netlist.levelize(order)
        arc_src: List[int] = []
        arc_dst: List[int] = []
        arc_level: List[int] = []
        self.arc_instance: List[str] = []
        self.arc_related: List[str] = []
        self.arc_out_pin: List[str] = []
        #: Instances owning arcs, in arc order (each owns a contiguous run).
        self._arc_owners: List[Instance] = list(order)
        #: Instance name -> [first, stop) of the arcs it owns.
        self._arc_runs: Dict[str, Tuple[int, int]] = {}
        for instance in order:
            level = levels[instance.name]
            first = len(arc_src)
            for input_pin, output_pin in instance.function.arcs():
                arc_src.append(self.net_ids[instance.net_of(input_pin)])
                arc_dst.append(self.net_ids[instance.net_of(output_pin)])
                arc_level.append(level)
                self.arc_instance.append(instance.name)
                self.arc_related.append(input_pin)
                self.arc_out_pin.append(output_pin)
            self._arc_runs[instance.name] = (first, len(arc_src))

        self.arc_src = np.asarray(arc_src, dtype=np.int64)
        self.arc_dst = np.asarray(arc_dst, dtype=np.int64)
        self.arc_level = np.asarray(arc_level, dtype=np.int64)
        self.n_arcs = len(arc_src)

        # level schedule: (arc indices, src nets, dst nets) per level,
        # ascending; arcs of one level never feed each other
        by_level = np.argsort(self.arc_level, kind="stable")
        bounds = np.flatnonzero(np.diff(self.arc_level[by_level])) + 1
        self.level_schedule: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (arcs, self.arc_src[arcs], self.arc_dst[arcs])
            for arcs in (np.split(by_level, bounds) if self.n_arcs else [])
        ]
        self.endpoint_net_ids = np.array(
            [endpoint.net_id for endpoint in self.endpoints], dtype=np.int64
        )

        incoming: Dict[int, List[int]] = {}
        for index, dst in enumerate(arc_dst):
            incoming.setdefault(dst, []).append(index)
        self.incoming_arcs = incoming

        # sink pins in (net, pin) order: the loads' static part, and
        # which bound cell's pin capacitance each remap adds where
        config = self.config
        n_sinks: List[int] = []
        n_ports: List[int] = []
        sink_nets: List[int] = []
        #: Per sink pin: its instance and pin name.
        self._sinks: List[Tuple[Instance, str]] = []
        #: Instance name -> indices of its sink pins.
        self._owned_sinks: Dict[str, List[int]] = {}
        for net_id, name in enumerate(self.net_names):
            sinks = ports = 0
            for sink in netlist.nets[name].sinks:
                if sink.instance is None:
                    ports += 1
                    continue
                sinks += 1
                self._owned_sinks.setdefault(sink.instance, []).append(len(self._sinks))
                self._sinks.append((netlist.instances[sink.instance], sink.pin))
                sink_nets.append(net_id)
            n_sinks.append(sinks)
            n_ports.append(ports)
        self._sink_nets = np.asarray(sink_nets, dtype=np.int64)
        #: Every instance, and its cell at the last remap (none yet).
        self._instances: List[Instance] = list(netlist)
        self._bound: List[str] = []
        sink_counts = np.asarray(n_sinks, dtype=np.int64)
        port_counts = np.asarray(n_ports, dtype=np.int64)
        self._fanouts = sink_counts + port_counts
        self._static_loads = (
            config.wire_cap_per_fanout * self._fanouts
            + config.output_port_cap * port_counts
        )

    # ------------------------------------------------------------------

    def remap(self) -> None:
        """Refresh mapping-dependent state from ``instance.cell``.

        Call after changing drive strengths; topology edits (buffer
        insertion) need a full :class:`TimingGraph` rebuild instead.
        Each call diffs every instance's cell against the binding the
        previous call saw, so callers keep no dirty set: only the loads
        of nets whose sinks changed cell and only the changed owners'
        ``arc_tables`` rows are recomputed.  A changed sequential cell
        also recomputes the (few) endpoint setups and launches whole.
        """
        if not self._bound:
            self._remap_sequential()
            self._remap_loads_and_arcs()
        else:
            changed = [
                instance
                for instance, cell in zip(self._instances, self._bound)
                if instance.cell != cell
            ]
            if changed:
                self._remap_changed(changed)
            if any(instance.is_sequential for instance in changed):
                self._remap_sequential()
        self._bound = [instance.cell for instance in self._instances]

    def _remap_loads_and_arcs(self) -> None:
        """Every net's load and every arc's table ids."""
        # loads: static part plus the bound sink pins' capacitances,
        # accumulated per net in sink order
        self._caps = np.array([self._sink_cap(sink) for sink in range(len(self._sinks))])
        loads = self._static_loads.copy()
        np.add.at(loads, self._sink_nets, self._caps)
        self.loads = loads

        # per-arc (delay rise, delay fall, transition rise, transition
        # fall) table ids of the bound cells
        cell_rows: Dict[Tuple[str, str], List[int]] = {}
        rows: List[int] = []
        for instance in self._arc_owners:
            key = (instance.family, instance.cell)
            owned = cell_rows.get(key)
            if owned is None:
                owned = cell_rows[key] = self._arc_rows(instance)
            rows.extend(owned)
        self.arc_tables = self._table_ids(np.asarray(rows, dtype=np.intp))

    def _remap_changed(self, changed: List[Instance]) -> None:
        """Patch the loads and arc rows that ``changed`` cells touch.

        The changed cells' sink pins take their new capacitances, and
        each net with such a pin is re-accumulated exactly as the full
        path accumulates it — the static part, then every sink's
        capacitance in sink order — so the floats are identical.
        ``loads`` and ``arc_tables`` are replaced, never written in
        place, like the full path's.
        """
        sinks = [
            sink for instance in changed for sink in self._owned_sinks.get(instance.name, ())
        ]
        if sinks:
            self._caps[sinks] = [self._sink_cap(sink) for sink in sinks]
            dirty = np.zeros(len(self.net_names), dtype=bool)
            dirty[self._sink_nets[sinks]] = True
            loads = self.loads.copy()
            loads[dirty] = self._static_loads[dirty]
            picked = dirty[self._sink_nets]
            np.add.at(loads, self._sink_nets[picked], self._caps[picked])
            self.loads = loads

        positions: List[int] = []
        rows: List[int] = []
        for instance in changed:
            # sequential cells own no arcs (their launches are separate)
            if instance.name in self._arc_runs:
                positions.extend(range(*self._arc_runs[instance.name]))
                rows.extend(self._arc_rows(instance))
        if positions:
            arc_tables = self.arc_tables.copy()
            arc_tables[positions] = self._table_ids(np.asarray(rows, dtype=np.intp))
            self.arc_tables = arc_tables

    def _remap_sequential(self) -> None:
        """Endpoint setups and clock->Q launches of the bound sequential
        cells."""
        netlist, tables = self.netlist, self.tables
        endpoints: List[Endpoint] = []
        for endpoint in self.endpoints:
            if endpoint.kind == "ff_data":
                instance_name = endpoint.name.rsplit("/", 1)[0]
                cell = self._cell_of(netlist.instance(instance_name))
                endpoints.append(
                    Endpoint(endpoint.net_id, endpoint.kind, endpoint.name, cell.setup_time)
                )
            else:
                endpoints.append(endpoint)
        self.endpoints = endpoints
        self.endpoint_setups = np.array([endpoint.setup for endpoint in endpoints])

        # clock->Q launches, grouped by bound cell
        by_cell: Dict[str, List[Instance]] = {}
        for instance in self.launch_instances:
            by_cell.setdefault(instance.cell, []).append(instance)
        #: (instance, cell, output pin, Q net) per launch, in scan order.
        self.launches: List[Tuple[str, str, str, int]] = []
        launch_rows: List[int] = []
        for cell_name, members in by_cell.items():
            function = members[0].function
            out_pin = function.output_pins[0]
            row = tables.row(cell_name, out_pin, function.clock_pin)
            for instance in members:
                q_net = self.net_ids[instance.net_of(out_pin)]
                self.launches.append((instance.name, cell_name, out_pin, q_net))
                launch_rows.append(row)
        self.launch_q = np.array(
            [launch[3] for launch in self.launches], dtype=np.int64
        )
        self.launch_tables = self._table_ids(np.asarray(launch_rows, dtype=np.intp))

    def _sink_cap(self, sink: int) -> float:
        """Input capacitance of sink pin ``sink`` under its bound cell."""
        instance, pin = self._sinks[sink]
        return self._cell_of(instance).pins[pin].capacitance

    def _arc_rows(self, instance: Instance) -> List[int]:
        """Arc rows of ``instance``'s bound cell, in ``arcs()`` order."""
        return [
            self.tables.row(instance.cell, output_pin, input_pin)
            for input_pin, output_pin in instance.function.arcs()
        ]

    def _table_ids(self, rows: np.ndarray) -> np.ndarray:
        """(n, 4) delay + transition table-id pairs of library arc rows."""
        ids = np.concatenate(
            [self.tables.delay[rows], self.tables.transition[rows]], axis=1
        )
        if ids.size and ids.min() < 0:
            raise TimingError("timing arc lacks delay or transition tables")
        return ids

    # ------------------------------------------------------------------

    def total_area(self) -> float:
        """Total cell area of the mapped design (um^2)."""
        return sum(self._cell_of(i).area for i in self.netlist)

    def cell_usage(self) -> Dict[str, int]:
        """Bound-cell histogram (paper Fig. 9)."""
        return self.netlist.cell_histogram()

    def fanout_of(self, net_id: int) -> int:
        """Number of sink pins on a net."""
        return int(self._fanouts[net_id])
