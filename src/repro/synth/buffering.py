"""Fanout buffering with inverter pairs.

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
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import SynthesisError
from repro.netlist.model import Netlist, PinRef

#: Instance-name prefix of synthesizer-inserted buffers (Fig. 9 shows
#: these as plain inverters, which they are).
BUFFER_PREFIX = "synbuf"


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
