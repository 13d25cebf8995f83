"""Netlist structural invariants."""

import pytest

from repro.errors import NetlistError
from repro.flow.experiment import FlowConfig
from repro.netlist.builder import NetlistBuilder
from repro.netlist.generators.microcontroller import build_microcontroller
from repro.netlist.model import Netlist
from tests.synth.reference import plan_groups, split_fanout


def tiny_netlist():
    """in -> INV -> ND2(with in2) -> out"""
    netlist = Netlist("tiny")
    a = netlist.add_input_port("a")
    b = netlist.add_input_port("b")
    netlist.add_instance("inv0", "INV", {"A": a, "Z": "n1"})
    netlist.add_instance("nd0", "ND2", {"A": "n1", "B": b, "Z": "n2"})
    netlist.add_output_port("y", "n2")
    return netlist


class TestConstruction:
    def test_ports_and_nets(self):
        netlist = tiny_netlist()
        assert set(netlist.input_ports()) == {"a", "b"}
        assert netlist.output_ports() == ["y"]
        assert netlist.port_net("y") == "n2"

    def test_duplicate_port_rejected(self):
        netlist = tiny_netlist()
        with pytest.raises(NetlistError):
            netlist.add_input_port("a")

    def test_duplicate_instance_rejected(self):
        netlist = tiny_netlist()
        with pytest.raises(NetlistError):
            netlist.add_instance("inv0", "INV", {"A": "a", "Z": "nx"})

    def test_two_drivers_rejected(self):
        netlist = tiny_netlist()
        with pytest.raises(NetlistError):
            netlist.add_instance("inv1", "INV", {"A": "a", "Z": "n1"})

    def test_wrong_pins_rejected(self):
        netlist = Netlist("bad")
        netlist.add_input_port("a")
        with pytest.raises(NetlistError):
            netlist.add_instance("g", "ND2", {"A": "a", "Z": "n"})

    def test_output_port_needs_existing_net(self):
        netlist = Netlist("bad")
        with pytest.raises(NetlistError):
            netlist.add_output_port("y", "ghost")

    def test_validate_passes_on_wellformed(self):
        tiny_netlist().validate()

    def test_clock_must_be_input(self):
        netlist = tiny_netlist()
        with pytest.raises(NetlistError):
            netlist.set_clock("y")


class TestTopology:
    def test_combinational_order_respects_deps(self):
        netlist = tiny_netlist()
        order = [i.name for i in netlist.combinational_order()]
        assert order.index("inv0") < order.index("nd0")

    def test_levelize(self):
        netlist = tiny_netlist()
        levels = netlist.levelize()
        assert levels["inv0"] == 1
        assert levels["nd0"] == 2

    def test_cycle_detected(self):
        netlist = Netlist("loop")
        netlist.add_input_port("a")
        netlist.add_instance("g1", "ND2", {"A": "a", "B": "n2", "Z": "n1"})
        netlist.add_instance("g2", "INV", {"A": "n1", "Z": "n2"})
        with pytest.raises(NetlistError):
            netlist.combinational_order()

    def test_sequential_breaks_cycles(self):
        builder = NetlistBuilder("seq")
        builder.clock()
        q = builder.fresh("q")
        inv = builder.inv(q)
        builder.dff(inv, out=q)
        builder.netlist.validate()  # q -> inv -> dff -> q is fine

    def test_endpoint_nets(self):
        builder = NetlistBuilder("ep")
        builder.clock()
        d = builder.input("d")
        q = builder.dff(d)
        builder.output("y", q)
        endpoints = builder.netlist.endpoint_nets()
        assert "d" in endpoints  # the FF data pin's net
        assert q in endpoints    # the output port's net


class TestEditing:
    def test_prune_dangling(self):
        netlist = tiny_netlist()
        netlist.add_instance("dead", "INV", {"A": "a", "Z": "unused"})
        netlist.add_instance("dead2", "INV", {"A": "unused", "Z": "unused2"})
        removed = netlist.prune_dangling()
        assert removed == 2
        assert "dead" not in netlist.instances
        assert "unused" not in netlist.nets

    def test_prune_keeps_live_logic(self):
        netlist = tiny_netlist()
        assert netlist.prune_dangling() == 0
        assert len(netlist) == 2

    def test_unique_name(self):
        netlist = tiny_netlist()
        name = netlist.unique_name("buf")
        assert name not in netlist.instances
        assert name not in netlist.nets


class TestQueries:
    def test_stats(self):
        stats = tiny_netlist().stats()
        assert stats["instances"] == 2
        assert stats["sequential"] == 0

    def test_family_histogram(self):
        histogram = tiny_netlist().family_histogram()
        assert histogram == {"INV": 1, "ND2": 1}

    def test_cell_histogram_requires_mapping(self):
        netlist = tiny_netlist()
        with pytest.raises(NetlistError):
            netlist.cell_histogram()
        for instance in netlist:
            instance.cell = f"{instance.family}_1"
        assert netlist.cell_histogram() == {"INV_1": 1, "ND2_1": 1}


def snapshot(netlist):
    """Everything a netlist holds, in its iteration orders."""
    return (
        netlist.name,
        list(netlist.ports.items()),
        list(netlist.port_nets.items()),
        netlist.clock,
        [(net.name, net.driver, list(net.sinks)) for net in netlist.nets.values()],
        [
            (i.name, i.family, list(i.connections.items()), i.cell)
            for i in netlist.instances.values()
        ],
    )


class TestCopy:
    @pytest.fixture(scope="class")
    def template(self):
        return build_microcontroller(FlowConfig.tiny().design)

    def test_copy_equals_a_fresh_build(self, template):
        fresh = build_microcontroller(FlowConfig.tiny().design)
        assert snapshot(template.copy()) == snapshot(fresh)

    def test_copy_is_independent(self, template):
        before = snapshot(template)
        twin = template.copy()
        net_name = next(
            name
            for name, net in twin.nets.items()
            if name != twin.clock and sum(not sink.is_port for sink in net.sinks) >= 2
        )
        _kept, groups = plan_groups(list(twin.net(net_name).sinks), 2)
        split_fanout(twin, net_name, groups, "INV_1")
        next(iter(twin)).cell = "INV_2"
        assert snapshot(twin) != before
        assert snapshot(template) == before

    def test_copy_shares_only_frozen_pin_refs(self):
        netlist = tiny_netlist()
        twin = netlist.copy()
        for name, net in netlist.nets.items():
            assert twin.nets[name] is not net
            assert twin.nets[name].sinks is not net.sinks
        for name, instance in netlist.instances.items():
            assert twin.instances[name] is not instance
            assert twin.instances[name].connections is not instance.connections
