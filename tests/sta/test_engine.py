"""STA forward/backward propagation."""

import numpy as np
import pytest

from repro.errors import TimingError
from repro.sta.engine import analyze
from repro.sta.graph import StaConfig, TimingGraph
from repro.sta.paths import worst_path


class TestChainTiming:
    def test_arrival_is_sum_of_stage_delays(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        result = analyze(graph, clock_period=2.0)
        path = worst_path(result)
        assert path.arrival == pytest.approx(sum(s.delay for s in path.steps))

    def test_endpoints_cover_ffs_and_ports(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        kinds = {e.kind for e in graph.endpoints}
        assert kinds == {"ff_data", "output_port"}

    def test_slack_decreases_with_tighter_clock(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        loose = analyze(graph, clock_period=5.0)
        tight = analyze(graph, clock_period=1.0)
        assert tight.wns < loose.wns
        assert loose.wns - tight.wns == pytest.approx(4.0, abs=1e-9)

    def test_guard_band_tightens_required(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        without = analyze(graph, clock_period=2.0, guard_band=0.0)
        with_gb = analyze(graph, clock_period=2.0, guard_band=0.3)
        assert with_gb.wns == pytest.approx(without.wns - 0.3)

    def test_ff_endpoint_accounts_setup(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        result = analyze(graph, clock_period=2.0)
        ff_endpoints = [e for e in graph.endpoints if e.kind == "ff_data"]
        assert all(e.setup > 0 for e in ff_endpoints)

    def test_met_flag(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        assert analyze(graph, clock_period=5.0).met
        assert not analyze(graph, clock_period=0.45).met

    def test_period_below_guard_band_rejected(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        with pytest.raises(TimingError):
            analyze(graph, clock_period=0.2, guard_band=0.3)


class TestRequiredTimes:
    def test_required_consistent_with_endpoint_slack(
        self, adder_netlist, statistical_library
    ):
        graph = TimingGraph(adder_netlist, statistical_library)
        result = analyze(graph, clock_period=3.0)
        for endpoint, slack in zip(graph.endpoints, result.endpoint_slacks):
            net_slack = result.net_slack(endpoint.net_id)
            # the net's slack can only be tighter (other fanout paths)
            assert net_slack <= slack + 1e-9

    def test_wns_equals_min_endpoint_slack(self, adder_netlist, statistical_library):
        graph = TimingGraph(adder_netlist, statistical_library)
        result = analyze(graph, clock_period=3.0)
        assert result.wns == pytest.approx(result.endpoint_slacks.min())

    def test_tns_sums_negative_only(self, adder_netlist, statistical_library):
        graph = TimingGraph(adder_netlist, statistical_library)
        result = analyze(graph, clock_period=1.2)
        negative = result.endpoint_slacks[result.endpoint_slacks < 0]
        assert result.tns == pytest.approx(negative.sum())
        assert result.tns <= result.wns


class TestLoadsAndSlews:
    def test_loads_include_pin_caps_and_wire(self, chain_netlist, statistical_library):
        config = StaConfig()
        graph = TimingGraph(chain_netlist, statistical_library, config)
        # find the INV -> INV net: load = inv input cap + wire
        inv_cells = [i for i in chain_netlist if i.family == "INV"]
        first_inv = inv_cells[0]
        net_id = graph.net_ids[first_inv.net_of("Z")]
        sink_cell = statistical_library.cell(inv_cells[1].cell)
        expected = sink_cell.pin("A").capacitance + config.wire_cap_per_fanout
        assert graph.loads[net_id] == pytest.approx(expected)

    def test_output_port_load(self, chain_netlist, statistical_library):
        config = StaConfig()
        graph = TimingGraph(chain_netlist, statistical_library, config)
        port_net = chain_netlist.port_net("y")
        net_id = graph.net_ids[port_net]
        # nand output: drives the port and a DFF D pin
        dff_cell = next(
            i for i in chain_netlist.sequential_instances()
            if i.net_of("D") == port_net
        )
        d_cap = statistical_library.cell(dff_cell.cell).pin("D").capacitance
        expected = config.output_port_cap + d_cap + 2 * config.wire_cap_per_fanout
        assert graph.loads[net_id] == pytest.approx(expected)

    def test_slews_propagate_from_transitions(self, adder_netlist, statistical_library):
        graph = TimingGraph(adder_netlist, statistical_library)
        result = analyze(graph, clock_period=3.0)
        driven = graph.arc_dst
        assert np.all(result.slew[driven] > 0)

    def test_remap_tracks_cell_change(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        before = analyze(graph, clock_period=2.0)

        def inv_stage_delay(result):
            path = worst_path(result)
            return sum(
                s.delay
                for s in path.steps
                if chain_netlist.instance(s.instance).family == "INV"
            )

        before_delay = inv_stage_delay(before)
        for instance in chain_netlist:
            if instance.family == "INV":
                instance.cell = "INV_8"
        graph.remap(graph.read_cells())
        after = analyze(graph, clock_period=2.0)
        # the inverter stages themselves must get faster; the launcher
        # pays a bit more (bigger load), so wns only changes slightly
        assert inv_stage_delay(after) < before_delay
        assert after.wns != before.wns


class TestSequentialLaunch:
    def test_launch_delay_recorded(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        result = analyze(graph, clock_period=2.0)
        assert len(result.launches) == len(chain_netlist.sequential_instances())
        for launch in result.launches.values():
            assert launch.delay > 0

    def test_q_arrival_is_clk_to_q(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        result = analyze(graph, clock_period=2.0)
        for q_net, launch in result.launches.items():
            assert result.arrival[q_net] == pytest.approx(launch.delay)

    def test_unbound_instance_rejected(self, chain_netlist, statistical_library):
        chain_netlist.instances[next(iter(chain_netlist.instances))].cell = ""
        with pytest.raises(TimingError):
            TimingGraph(chain_netlist, statistical_library)
