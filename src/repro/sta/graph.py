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
synthesizer's sizing loop iterates on.
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

        levels = netlist.levelize()
        order = netlist.combinational_order()
        arc_src: List[int] = []
        arc_dst: List[int] = []
        arc_level: List[int] = []
        self.arc_instance: List[str] = []
        self.arc_related: List[str] = []
        self.arc_out_pin: List[str] = []
        #: Instances owning arcs, in arc order (each owns a contiguous run).
        self._arc_owners: List[Instance] = list(order)
        for instance in order:
            level = levels[instance.name]
            for input_pin, output_pin in instance.function.arcs():
                arc_src.append(self.net_ids[instance.net_of(input_pin)])
                arc_dst.append(self.net_ids[instance.net_of(output_pin)])
                arc_level.append(level)
                self.arc_instance.append(instance.name)
                self.arc_related.append(input_pin)
                self.arc_out_pin.append(output_pin)

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
        self._sink_nets: List[int] = []
        self._sink_owners: List[int] = []
        self._sink_pins: List[str] = []
        owners: Dict[str, int] = {}
        for net_id, name in enumerate(self.net_names):
            sinks = ports = 0
            for sink in netlist.nets[name].sinks:
                if sink.instance is None:
                    ports += 1
                    continue
                sinks += 1
                self._sink_nets.append(net_id)
                self._sink_owners.append(owners.setdefault(sink.instance, len(owners)))
                self._sink_pins.append(sink.pin)
            n_sinks.append(sinks)
            n_ports.append(ports)
        self._sink_instances = [netlist.instances[name] for name in owners]
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
        """
        netlist, tables = self.netlist, self.tables
        # endpoint setups depend on the bound sequential cells
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

        # loads: static part plus the bound sink pins' capacitances,
        # accumulated per net in sink order
        cells = [instance.cell for instance in self._sink_instances]
        pin_caps: Dict[Tuple[str, str], float] = {}
        caps: List[float] = []
        for owner, pin in zip(self._sink_owners, self._sink_pins):
            key = (cells[owner], pin)
            cap = pin_caps.get(key)
            if cap is None:
                cap = pin_caps[key] = self.library.cell(key[0]).pins[pin].capacitance
            caps.append(cap)
        loads = self._static_loads.copy()
        np.add.at(loads, np.asarray(self._sink_nets, dtype=np.int64), caps)
        self.loads = loads

        # per-arc (delay rise, delay fall, transition rise, transition
        # fall) table ids of the bound cells
        cell_rows: Dict[Tuple[str, str], List[int]] = {}
        rows: List[int] = []
        for instance in self._arc_owners:
            key = (instance.family, instance.cell)
            owned = cell_rows.get(key)
            if owned is None:
                owned = cell_rows[key] = [
                    tables.row(instance.cell, output_pin, input_pin)
                    for input_pin, output_pin in instance.function.arcs()
                ]
            rows.extend(owned)
        self.arc_tables = self._table_ids(np.asarray(rows, dtype=np.intp))

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
