"""The former fixpoint :meth:`Netlist.prune_dangling`, kept as the
reference the linear worklist is held to."""

from __future__ import annotations


def prune_dangling_fixpoint(netlist) -> int:
    """Rescan every instance until no pass removes one; returns the
    number of removed instances."""
    removed_total = 0
    while True:
        removed = [
            instance
            for instance in netlist.instances.values()
            if all(
                not netlist.net(instance.net_of(pin)).sinks
                for pin in instance.function.output_pins
            )
        ]
        if not removed:
            return removed_total
        for instance in removed:
            for pin in instance.function.input_pins:
                net = netlist.net(instance.net_of(pin))
                net.sinks = [
                    sink for sink in net.sinks if sink.instance != instance.name
                ]
            for pin in instance.function.output_pins:
                del netlist.nets[instance.net_of(pin)]
            del netlist.instances[instance.name]
        removed_total += len(removed)
