"""TimingGraph query helpers."""

import numpy as np
import pytest

from repro.sta.graph import TimingGraph


class TestQueries:
    def test_total_area_sums_bound_cells(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        expected = sum(
            statistical_library.cell(i.cell).area for i in chain_netlist
        )
        assert graph.total_area() == pytest.approx(expected)

    def test_cell_usage_matches_netlist(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        usage = graph.cell_usage()
        assert sum(usage.values()) == len(chain_netlist)

    def test_fanout_counts_sinks(self, chain_netlist, statistical_library):
        graph = TimingGraph(chain_netlist, statistical_library)
        # the ND2 output drives the capture FF and the output port
        nd2 = next(i for i in chain_netlist if i.family == "ND2")
        net_id = graph.net_ids[nd2.net_of("Z")]
        assert graph.fanout_of(net_id) == 2

    def test_endpoint_setup_refreshed_on_remap(
        self, chain_netlist, statistical_library
    ):
        graph = TimingGraph(chain_netlist, statistical_library)
        before = [e.setup for e in graph.endpoints if e.kind == "ff_data"]
        assert all(s > 0 for s in before)
        graph.remap()
        after = [e.setup for e in graph.endpoints if e.kind == "ff_data"]
        assert before == after

    def test_level_schedule_sorted_by_level(self, adder_netlist, statistical_library):
        """One entry per level, ascending, covering every arc once with
        its own source and sink nets."""
        graph = TimingGraph(adder_netlist, statistical_library)
        levels = []
        for arcs, src, dst in graph.level_schedule:
            assert len(set(graph.arc_level[arcs].tolist())) == 1
            levels.append(int(graph.arc_level[arcs[0]]))
            assert np.array_equal(src, graph.arc_src[arcs])
            assert np.array_equal(dst, graph.arc_dst[arcs])
        assert levels == sorted(set(levels))
        covered = np.concatenate([arcs for arcs, _s, _d in graph.level_schedule])
        assert np.array_equal(np.sort(covered), np.arange(graph.n_arcs))

    def test_arc_counts_match_function_topology(
        self, adder_netlist, statistical_library
    ):
        graph = TimingGraph(adder_netlist, statistical_library)
        expected = sum(
            len(i.function.arcs())
            for i in adder_netlist.combinational_instances()
        )
        assert graph.n_arcs == expected
