"""Fanout buffering with inverter pairs, on the design's arrays.

When a net's capacitance exceeds what its driver may legally drive —
because of the cell's own ``max_capacitance`` or a tuning window's
``max_load`` — the synthesizer splits the net: one inverter re-drives
groups of sinks through a second, polarity-restoring inverter per
group::

                 +--> INVb0 --> sinks group 0
    net --> INVa-+--> INVb1 --> sinks group 1
         (kept sinks stay on the original net)

This is exactly the mechanism the paper observes under tuning
("the most likely cause for the increase of inverter use is
buffering", Sec. VII.A).

A :class:`BufferRound` makes one round's splits on a
:class:`~repro.sta.graph.DesignArrays`: it appends the inverters and
their nets, with the names :meth:`Netlist.unique_name
<repro.netlist.model.Netlist.unique_name>` gives, and keeps every
edited net's sink list in the order the netlist would hold it, so the
design it returns (:meth:`BufferRound.design`) equals the arrays of the
netlist edited the same way.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.errors import SynthesisError
from repro.sta.graph import DesignArrays, StaConfig, family_layout

#: Instance-name prefix of synthesizer-inserted buffers (Fig. 9 shows
#: these as plain inverters, which they are).
BUFFER_PREFIX = "synbuf"

#: A sink pin: (instance position, pin slot), or ``PORT``.
Sink = Tuple[int, int]
#: An output-port sink (ports never move, so a net's port sinks keep
#: the order of :attr:`DesignArrays.port_sinks`).
PORT: Sink = (-1, -1)


class BufferRound:
    """The splits of one buffer round, applied to a design's arrays.

    ``cells`` is the binding (a cell id per instance, ``pin_caps``
    indexed by it); new inverters extend it.  Only the nets a split
    touches get a live sink list; the rest are read from the arrays.
    """

    def __init__(
        self,
        design: DesignArrays,
        cells: np.ndarray,
        pin_caps: np.ndarray,
        config: StaConfig,
    ) -> None:
        self._base = design
        #: The binding, new inverters appended.
        self.cells: List[int] = cells.tolist()
        self._pin_caps = pin_caps.tolist()
        self._wire, self._port_cap = config.wire_cap_per_fanout, config.output_port_cap
        self._taken: Set[str] = set(design.names)
        self._taken.update(design.net_names)
        self._names: List[str] = []
        self._net_names: List[str] = []
        #: Per new inverter: its input net and output net.
        self._inputs: List[int] = []
        self._outputs: List[int] = []
        self._sinks: Dict[int, List[Sink]] = {}
        #: (instance, pin slot) -> the net a split moved it to.
        self._moved: Dict[Sink, int] = {}
        self._inverter_pin = family_layout("INV").slots["A"]

    # ------------------------------------------------------------------

    def sinks(self, net: int) -> List[Sink]:
        """The sink pins of ``net``, in sink order."""
        sinks = self._sinks.get(net)
        if sinks is None:
            base = self._base
            start, stop = base.sink_ptr[net], base.sink_ptr[net + 1]
            sinks = list(
                zip(base.sink_owner[start:stop].tolist(), base.sink_slot[start:stop].tolist())
            )
            for position, _port in base.port_sinks.get(net, ()):
                sinks.insert(position, PORT)
        return sinks

    def inverter_cap(self, cell: int) -> float:
        """Input-pin capacitance of inverter ``cell``."""
        return self._pin_caps[cell][self._inverter_pin]

    def load(self, net: int) -> float:
        """The capacitance on ``net``: wire per sink pin, then each
        sink's pin (or port) capacitance in sink order."""
        sinks = self.sinks(net)
        total = self._wire * len(sinks)
        for owner, slot in sinks:
            total += self._port_cap if owner < 0 else self._pin_caps[self.cells[owner]][slot]
        return total

    def movable(self, net: int) -> int:
        """Sink pins of ``net`` a split may move (every instance pin)."""
        return sum(1 for owner, _slot in self.sinks(net) if owner >= 0)

    def plan(self, net: int, n_groups: int) -> List[List[Sink]]:
        """``net``'s movable sinks in ``n_groups`` round-robin groups
        (empty groups dropped); port sinks stay on the net."""
        if n_groups < 1:
            raise SynthesisError("need at least one buffer group")
        movable = [sink for sink in self.sinks(net) if sink[0] >= 0]
        if not movable:
            raise SynthesisError("net has no movable sinks to buffer")
        groups: List[List[Sink]] = [[] for _ in range(n_groups)]
        for index, sink in enumerate(movable):
            groups[index % n_groups].append(sink)
        return [group for group in groups if group]

    def split(self, net: int, groups: List[List[Sink]], inverter_cell: int) -> List[int]:
        """Move each sink group behind an inverter pair bound to
        ``inverter_cell``; returns the new inverters' output nets (the
        first inverter's, then one per group)."""
        first_out = self._add_inverter("a", net, inverter_cell)
        moved = {sink for group in groups for sink in group}
        self._sinks[net] = [sink for sink in self.sinks(net) if sink not in moved]
        created = [first_out]
        for group in groups:
            second_out = self._add_inverter("b", first_out, inverter_cell)
            self._sinks[second_out].extend(group)
            for sink in group:
                self._move(sink, second_out)
            created.append(second_out)
        return created

    def _add_inverter(self, kind: str, net: int, cell: int) -> int:
        """Append an inverter from ``net`` to a new net; returns it."""
        base = self._base
        index = len(base) + len(self._names) + len(base.net_names) + len(self._net_names)
        prefix = f"{BUFFER_PREFIX}_{kind}"
        while f"{prefix}_{index}" in self._taken:
            index += 1
        name = f"{prefix}_{index}"
        out_name = f"{name}.Z"
        position = len(base) + len(self._names)
        out = len(base.net_names) + len(self._net_names)
        self._names.append(name)
        self._net_names.append(out_name)
        self._taken.update((name, out_name))
        self._inputs.append(net)
        self._outputs.append(out)
        self.cells.append(cell)
        self._sinks[net] = self.sinks(net) + [(position, self._inverter_pin)]
        self._sinks[out] = []
        return out

    def _move(self, sink: Sink, net: int) -> None:
        owner, slot = sink
        added = owner - len(self._base)
        if added >= 0:
            self._inputs[added] = net
        else:
            self._moved[sink] = net

    # ------------------------------------------------------------------

    def design(self) -> DesignArrays:
        """The arrays with every split of the round applied."""
        base = self._base
        families = list(base.families)
        if "INV" not in families:
            families.append("INV")
        added = len(self._names)
        in_nets, clock_net = base.in_nets.copy(), base.clock_net.copy()
        for (owner, slot), net in self._moved.items():
            layout = base.layouts[base.family_ids[owner]]
            if slot == layout.slots.get(layout.function.clock_pin):
                clock_net[owner] = net
            else:
                inputs = [input_slot for input_slot, _pin in layout.inputs]
                in_nets[base.in_ptr[owner] + inputs.index(slot)] = net

        # the sink lists: the kept entries of untouched nets, then every
        # edited net's live list, stably sorted by net
        n_nets = len(base.net_names) + added
        edited = np.zeros(n_nets, dtype=bool)
        edited[list(self._sinks)] = True
        kept = ~edited[base.sink_nets]
        nets = [base.sink_nets[kept]]
        owners, slots = [base.sink_owner[kept]], [base.sink_slot[kept]]
        port_sinks = dict(base.port_sinks)
        for net, sinks in self._sinks.items():
            pins = [sink for sink in sinks if sink[0] >= 0]
            nets.append(np.full(len(pins), net, dtype=np.intp))
            owners.append(np.asarray([owner for owner, _ in pins], dtype=np.intp))
            slots.append(np.asarray([slot for _, slot in pins], dtype=np.intp))
            positions = [position for position, sink in enumerate(sinks) if sink == PORT]
            if positions:
                names = [port for _position, port in base.port_sinks[net]]
                port_sinks[net] = tuple(zip(positions, names))
        sink_nets = np.concatenate(nets)
        order = np.argsort(sink_nets, kind="stable")
        sink_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(sink_nets, minlength=n_nets))]
        )
        return DesignArrays(
            base.names + self._names,
            base.net_names + self._net_names,
            families,
            np.concatenate([base.family_ids, np.full(added, families.index("INV"))]),
            np.concatenate([base.out_nets, np.asarray(self._outputs, dtype=np.intp)]),
            np.concatenate([in_nets, np.asarray(self._inputs, dtype=np.intp)]),
            np.concatenate([clock_net, np.full(added, -1)]),
            (sink_ptr, np.concatenate(owners)[order], np.concatenate(slots)[order]),
            np.concatenate([base.n_ports, np.zeros(added, dtype=np.intp)]),
            port_sinks,
            base.undriven,
        )
