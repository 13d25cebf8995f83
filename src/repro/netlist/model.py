"""Netlist data model.

Structure
---------
* **ports** — named primary inputs/outputs of the design;
* **nets** — each net has exactly one driver (an instance output pin or
  an input port) and any number of sinks (instance input pins or
  output ports);
* **instances** — gates; each references a cell family
  (:mod:`repro.cells.functions`) and, once synthesis has bound it, a
  concrete library cell name (drive strength variant).

The model enforces single-driver nets and acyclic combinational logic
(cycles through flip-flop D->Q are fine: sequential outputs are
topological sources).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.cells.functions import CellFunction, function_by_name
from repro.errors import NetlistError


class PortDirection(enum.Enum):
    """Direction of a top-level port."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class PinRef:
    """Reference to an instance pin; ``instance=None`` denotes a port."""

    instance: Optional[str]
    pin: str

    @property
    def is_port(self) -> bool:
        return self.instance is None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.pin if self.is_port else f"{self.instance}/{self.pin}"


@dataclass
class Net:
    """A wire: one driver, many sinks."""

    name: str
    driver: Optional[PinRef] = None
    sinks: List[PinRef] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        """Number of sink pins on the net."""
        return len(self.sinks)


@dataclass
class Instance:
    """A gate instance.

    ``family`` names the technology-independent cell function (e.g.
    ``ND2``); ``cell`` is the bound library variant (e.g. ``ND2_4``),
    empty until synthesis maps the design.
    """

    name: str
    family: str
    connections: Dict[str, str] = field(default_factory=dict)
    cell: str = ""

    @property
    def function(self) -> CellFunction:
        """Behaviour of the instance's family."""
        return function_by_name(self.family)

    @property
    def is_sequential(self) -> bool:
        return self.function.is_sequential

    def net_of(self, pin: str) -> str:
        """Net connected to ``pin``."""
        try:
            return self.connections[pin]
        except KeyError:
            raise NetlistError(f"instance {self.name}: pin {pin} unconnected") from None


class Netlist:
    """A gate-level design."""

    def __init__(self, name: str):
        self.name = name
        self.ports: Dict[str, PortDirection] = {}
        #: Port name -> net carrying its signal (inputs: a net named
        #: after the port; outputs: the net that drives the port).
        self.port_nets: Dict[str, str] = {}
        self.nets: Dict[str, Net] = {}
        self.instances: Dict[str, Instance] = {}
        #: Name of the clock input port ('' for pure combinational).
        self.clock: str = ""

    def copy(self) -> "Netlist":
        """An independent copy: ports, nets (with their sink lists) and
        instances (with their connections and bound cells) in the same
        order.  The frozen :class:`PinRef` values are shared."""
        twin = Netlist(self.name)
        twin.ports = dict(self.ports)
        twin.port_nets = dict(self.port_nets)
        twin.nets = {
            name: Net(name, net.driver, list(net.sinks))
            for name, net in self.nets.items()
        }
        twin.instances = {
            name: Instance(name, instance.family, dict(instance.connections), instance.cell)
            for name, instance in self.instances.items()
        }
        twin.clock = self.clock
        return twin

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input_port(self, name: str) -> str:
        """Declare a primary input; creates and returns its net."""
        if name in self.ports:
            raise NetlistError(f"duplicate port {name}")
        self.ports[name] = PortDirection.INPUT
        net = self._net(name)
        if net.driver is not None:
            raise NetlistError(f"net {name} already driven; cannot become input port")
        net.driver = PinRef(None, name)
        self.port_nets[name] = name
        return name

    def add_output_port(self, name: str, net_name: str) -> str:
        """Declare a primary output fed by the existing net ``net_name``."""
        if name in self.ports:
            raise NetlistError(f"duplicate port {name}")
        if net_name not in self.nets:
            raise NetlistError(f"output port {name}: unknown net {net_name}")
        self.ports[name] = PortDirection.OUTPUT
        self.nets[net_name].sinks.append(PinRef(None, name))
        self.port_nets[name] = net_name
        return name

    def port_net(self, name: str) -> str:
        """Net carrying the port's signal."""
        try:
            return self.port_nets[name]
        except KeyError:
            raise NetlistError(f"no port {name}") from None

    def set_clock(self, port_name: str) -> None:
        """Mark an input port as the design clock."""
        if self.ports.get(port_name) is not PortDirection.INPUT:
            raise NetlistError(f"clock {port_name} is not an input port")
        self.clock = port_name

    def _net(self, name: str) -> Net:
        net = self.nets.get(name)
        if net is None:
            net = Net(name=name)
            self.nets[name] = net
        return net

    def add_instance(
        self, name: str, family: str, connections: Dict[str, str]
    ) -> Instance:
        """Add a gate and hook up its pins to (auto-created) nets."""
        if name in self.instances:
            raise NetlistError(f"duplicate instance {name}")
        function = function_by_name(family)
        expected = set(function.input_pins) | set(function.output_pins)
        given = set(connections)
        if given != expected:
            raise NetlistError(
                f"instance {name} ({family}): pins {sorted(given)} do not match "
                f"required {sorted(expected)}"
            )
        instance = Instance(name=name, family=family, connections=dict(connections))
        self.instances[name] = instance
        for pin in function.input_pins:
            self._net(connections[pin]).sinks.append(PinRef(name, pin))
        for pin in function.output_pins:
            net = self._net(connections[pin])
            if net.driver is not None:
                raise NetlistError(
                    f"net {connections[pin]} has two drivers: {net.driver} and {name}/{pin}"
                )
            net.driver = PinRef(name, pin)
        return instance

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def net(self, name: str) -> Net:
        """Return the net called ``name``."""
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"no net {name}") from None

    def instance(self, name: str) -> Instance:
        """Return the instance called ``name``."""
        try:
            return self.instances[name]
        except KeyError:
            raise NetlistError(f"no instance {name}") from None

    def input_ports(self) -> List[str]:
        """Primary input port names, in declaration order."""
        return [p for p, d in self.ports.items() if d is PortDirection.INPUT]

    def output_ports(self) -> List[str]:
        """Primary output port names, in declaration order."""
        return [p for p, d in self.ports.items() if d is PortDirection.OUTPUT]

    def combinational_instances(self) -> List[Instance]:
        """All non-sequential instances."""
        return [i for i in self.instances.values() if not i.is_sequential]

    def sequential_instances(self) -> List[Instance]:
        """All flip-flop and latch instances."""
        return [i for i in self.instances.values() if i.is_sequential]

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances.values())

    def stats(self) -> Dict[str, int]:
        """Size summary: gates, flip-flops, nets, ports."""
        return {
            "instances": len(self.instances),
            "combinational": len(self.combinational_instances()),
            "sequential": len(self.sequential_instances()),
            "nets": len(self.nets),
            "ports": len(self.ports),
        }

    def family_histogram(self) -> Dict[str, int]:
        """Instance count per family (pre-synthesis Fig. 9 view)."""
        histogram: Dict[str, int] = {}
        for instance in self:
            histogram[instance.family] = histogram.get(instance.family, 0) + 1
        return histogram

    def cell_histogram(self) -> Dict[str, int]:
        """Instance count per bound library cell (Fig. 9 view)."""
        histogram: Dict[str, int] = {}
        for instance in self:
            if not instance.cell:
                raise NetlistError(
                    f"instance {instance.name} not bound to a cell; run synthesis first"
                )
            histogram[instance.cell] = histogram.get(instance.cell, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def combinational_order(self) -> List[Instance]:
        """Topological order of combinational instances.

        Sources are primary inputs and sequential outputs; sequential
        instances do not appear in the order (their data inputs are
        sinks, their outputs sources).  Raises on combinational cycles.
        """
        nets, instances = self.nets, self.instances
        sequential = {
            name for name, instance in instances.items() if instance.is_sequential
        }
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        for name, instance in instances.items():
            if name in sequential:
                continue
            count = 0
            for pin in instance.function.input_pins:
                net = nets.get(instance.connections.get(pin, ""))
                if net is None:
                    net = self.net(instance.net_of(pin))  # raises
                driver = net.driver
                if driver is None:
                    raise NetlistError(f"net {net.name} is undriven")
                if driver.instance is not None:
                    if driver.instance not in instances:
                        self.instance(driver.instance)  # raises
                    if driver.instance not in sequential:
                        count += 1
                        dependents.setdefault(driver.instance, []).append(name)
            indegree[name] = count

        ready = [name for name, count in indegree.items() if count == 0]
        order: List[Instance] = []
        while ready:
            name = ready.pop()
            order.append(instances[name])
            for dependent in dependents.get(name, ()):  # noqa: B007
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(indegree):
            stuck = sorted(name for name, count in indegree.items() if count > 0)
            raise NetlistError(
                f"combinational cycle involving {len(stuck)} instances, "
                f"e.g. {stuck[:5]}"
            )
        return order

    def levelize(self) -> Dict[str, int]:
        """Logic level (longest distance from a source) per instance.

        Sequential instances are level 0 (their outputs launch paths).
        """
        levels: Dict[str, int] = {
            instance.name: 0 for instance in self.sequential_instances()
        }
        for instance in self.combinational_order():
            level = 0
            for pin in instance.function.input_pins:
                driver = self.net(instance.net_of(pin)).driver
                if driver is not None and driver.instance is not None:
                    level = max(level, levels[driver.instance] + 1)
                else:
                    level = max(level, 1)
            levels[instance.name] = level
        return levels

    # ------------------------------------------------------------------
    # Validation and editing
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`NetlistError`."""
        for net in self.nets.values():
            if net.driver is None:
                raise NetlistError(f"net {net.name} is undriven")
        for instance in self:
            for pin, net_name in instance.connections.items():
                if net_name not in self.nets:
                    raise NetlistError(
                        f"instance {instance.name}: pin {pin} on unknown net {net_name}"
                    )
        self.combinational_order()  # raises on cycles

    def prune_dangling(self) -> int:
        """Remove instances none of whose outputs reach any sink.

        Generators occasionally leave unused outputs (e.g. the final
        carry of an adder); synthesis tools prune the fanin cones that
        only feed them.  Returns the number of removed instances.

        A worklist over per-net sink counts: removing an instance takes
        its input pins off their nets' counts, and a driver whose every
        output net is left without sinks is removed in turn.  Each pin
        is visited a bounded number of times, so the pass is linear in
        the design; the surviving ``instances``, ``nets`` and sink lists
        keep their order.
        """
        remaining = {name: len(net.sinks) for name, net in self.nets.items()}

        def sinks_left(net_name: str) -> int:
            try:
                return remaining[net_name]
            except KeyError:
                raise NetlistError(f"no net {net_name}") from None

        def dangling(instance: Instance) -> bool:
            return all(
                sinks_left(instance.net_of(pin)) == 0
                for pin in instance.function.output_pins
            )

        removed: Dict[str, Instance] = {
            instance.name: instance
            for instance in self.instances.values()
            if dangling(instance)
        }
        worklist = list(removed.values())
        while worklist:
            instance = worklist.pop()
            for pin in instance.function.input_pins:
                net_name = instance.net_of(pin)
                remaining[net_name] = sinks_left(net_name) - 1
                if remaining[net_name]:
                    continue
                driver = self.nets[net_name].driver
                if driver is None or driver.instance is None or driver.instance in removed:
                    continue
                driver_instance = self.instances[driver.instance]
                if dangling(driver_instance):
                    removed[driver_instance.name] = driver_instance
                    worklist.append(driver_instance)

        touched = {
            instance.net_of(pin)
            for instance in removed.values()
            for pin in instance.function.input_pins
        }
        for net_name in touched:
            net = self.nets[net_name]
            net.sinks = [sink for sink in net.sinks if sink.instance not in removed]
        for instance in removed.values():
            for pin in instance.function.output_pins:
                del self.nets[instance.net_of(pin)]
            del self.instances[instance.name]
        return len(removed)

    def unique_name(self, prefix: str) -> str:
        """Fresh instance/net name with the given prefix."""
        index = len(self.instances) + len(self.nets)
        while True:
            candidate = f"{prefix}_{index}"
            if candidate not in self.instances and candidate not in self.nets:
                return candidate
            index += 1

    def endpoint_nets(self) -> List[str]:
        """Nets that end timing paths: FF data inputs and output ports.

        Returned in a stable order; these are the "unique endpoints"
        the paper measures worst paths against.
        """
        endpoints: List[str] = []
        seen: Set[str] = set()
        for instance in self.sequential_instances():
            for pin in instance.function.data_input_pins:
                net_name = instance.net_of(pin)
                key = f"{instance.name}/{pin}"
                if key not in seen:
                    seen.add(key)
                    endpoints.append(net_name)
        for port in self.output_ports():
            endpoints.append(self.port_net(port))
        return endpoints
