"""Inverter-pair fanout splitting over netlist objects (the reference
the array path of `repro.synth.buffering` is replayed against)."""

import pytest

from repro.errors import SynthesisError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.model import PinRef
from repro.netlist.simulate import simulate
from tests.synth.reference import plan_groups, split_fanout


def fanout_netlist(n_sinks=6):
    builder = NetlistBuilder("fan")
    a = builder.input("a")
    src = builder.inv(a)
    outs = [builder.inv(src) for _ in range(n_sinks)]
    for i, net in enumerate(outs):
        builder.output(f"y[{i}]", net)
    return builder.netlist, src


class TestPlanGroups:
    def test_round_robin_balance(self):
        sinks = [PinRef(f"i{k}", "A") for k in range(7)]
        kept, groups = plan_groups(sinks, 3)
        assert not kept
        assert sorted(len(g) for g in groups) == [2, 2, 3]

    def test_ports_kept_on_original_net(self):
        sinks = [PinRef(None, "y"), PinRef("i0", "A"), PinRef("i1", "A")]
        kept, groups = plan_groups(sinks, 2)
        assert kept == [PinRef(None, "y")]
        assert sum(len(g) for g in groups) == 2

    def test_no_movable_sinks_rejected(self):
        with pytest.raises(SynthesisError):
            plan_groups([PinRef(None, "y")], 1)

    def test_invalid_group_count(self):
        with pytest.raises(SynthesisError):
            plan_groups([PinRef("i", "A")], 0)


class TestSplitFanout:
    def test_structure_and_equivalence(self):
        netlist, src = fanout_netlist(6)
        before = simulate(netlist, {"a": True})
        sinks = [s for s in netlist.net(src).sinks]
        kept, groups = plan_groups(sinks, 2)
        created = split_fanout(netlist, src, groups, inverter_cell="INV_2")
        netlist.validate()
        # 1 first-stage + 2 second-stage inverters
        assert len(created) == 3
        assert all(netlist.instance(n).family == "INV" for n in created)
        after = simulate(netlist, {"a": True})
        assert after == before  # polarity preserved
        after_false = simulate(netlist, {"a": False})
        assert all(after_false[f"y[{i}]"] != before[f"y[{i}]"] for i in range(6))

    def test_sinks_moved(self):
        netlist, src = fanout_netlist(4)
        sinks = list(netlist.net(src).sinks)
        _kept, groups = plan_groups(sinks, 2)
        split_fanout(netlist, src, groups, inverter_cell="INV_2")
        assert len(netlist.net(src).sinks) == 1  # only the new INVa

    def test_cell_bound_on_new_instances(self):
        netlist, src = fanout_netlist(4)
        sinks = list(netlist.net(src).sinks)
        _kept, groups = plan_groups(sinks, 2)
        created = split_fanout(netlist, src, groups, inverter_cell="INV_4")
        assert all(netlist.instance(n).cell == "INV_4" for n in created)

    def test_moved_sinks_rewired(self):
        netlist, src = fanout_netlist(3)
        sink = netlist.net(src).sinks[1]
        (_first, second) = split_fanout(netlist, src, [[sink]], "INV_1")
        new_net = netlist.instance(second).net_of("Z")
        assert netlist.instance(sink.instance).connections[sink.pin] == new_net
        assert netlist.net(new_net).sinks == [sink]
        assert sink not in netlist.net(src).sinks

    def test_sink_order(self):
        """Kept sinks stay in their order, ahead of the first-stage
        inverter; each group lands on its net in group order."""
        netlist, src = fanout_netlist(6)
        sinks = list(netlist.net(src).sinks)
        groups = [[sinks[4], sinks[1]], [sinks[0], sinks[5]]]
        first, *seconds = split_fanout(netlist, src, groups, "INV_1")
        assert netlist.net(src).sinks == [sinks[2], sinks[3], PinRef(first, "A")]
        for second, group in zip(seconds, groups):
            assert netlist.net(netlist.instance(second).net_of("Z")).sinks == group
        netlist.validate()

    def test_sink_in_two_groups_rejected(self):
        netlist, src = fanout_netlist(3)
        sink = netlist.net(src).sinks[0]
        with pytest.raises(SynthesisError):
            split_fanout(netlist, src, [[sink], [sink]], "INV_1")

    def test_sink_of_another_net_rejected(self):
        netlist, src = fanout_netlist(3)
        other = netlist.net(src).sinks[0]
        inner = netlist.instance(other.instance).net_of("Z")
        with pytest.raises(SynthesisError):
            split_fanout(netlist, inner, [[other]], "INV_1")

    def test_foreign_sink_rejected(self):
        netlist, src = fanout_netlist(3)
        with pytest.raises(SynthesisError):
            split_fanout(netlist, src, [[PinRef("ghost", "A")]], "INV_1")

    def test_port_sink_rejected(self):
        netlist, src = fanout_netlist(2)
        netlist.add_output_port("tap", src)
        with pytest.raises(SynthesisError):
            split_fanout(netlist, src, [[PinRef(None, "tap")]], "INV_1")

    def test_empty_groups_rejected(self):
        netlist, src = fanout_netlist(2)
        with pytest.raises(SynthesisError):
            split_fanout(netlist, src, [], "INV_1")
