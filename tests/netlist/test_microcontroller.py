"""The evaluation design: size, structure, behaviour."""

import pytest

from repro.netlist.generators.microcontroller import (
    MicrocontrollerParams,
    build_microcontroller,
)
from repro.netlist.model import Netlist
from repro.netlist.simulate import simulate_sequence


@pytest.fixture(scope="module")
def mcu():
    return build_microcontroller()


@pytest.fixture(scope="module")
def small_mcu():
    return build_microcontroller(
        MicrocontrollerParams(
            width=16, regfile_bits=3, mult_width=8, n_timers=2, timer_width=8,
            control_gates=600, status_width=24, n_uarts=1, gpio_width=8,
        ),
        name="small_mcu",
    )


class TestScale:
    def test_paper_scale_gate_count(self, mcu):
        """The paper's design is ~20k gates; ours must be in that class."""
        count = len(mcu)
        assert 15_000 <= count <= 25_000

    def test_path_depth_population(self, mcu):
        """Depths must span short..~60 like the paper's Fig. 12/14."""
        levels = mcu.levelize()
        deepest = max(levels.values())
        assert 50 <= deepest <= 75
        assert min(v for v in levels.values() if v > 0) <= 3

    def test_paper_scale_prunes_its_dead_cones(self, monkeypatch):
        """The generator's dangling outputs cost exactly this many gates."""
        counts = []
        prune = Netlist.prune_dangling

        def counting(netlist):
            counts.append(prune(netlist))
            return counts[-1]

        monkeypatch.setattr(Netlist, "prune_dangling", counting)
        build_microcontroller()
        assert counts == [7296]

    def test_structure_valid(self, mcu):
        mcu.validate()

    def test_deterministic(self):
        a = build_microcontroller()
        b = build_microcontroller()
        assert a.stats() == b.stats()
        assert a.family_histogram() == b.family_histogram()

    def test_seed_changes_control_logic(self):
        a = build_microcontroller(MicrocontrollerParams(seed=1), name="a")
        b = build_microcontroller(MicrocontrollerParams(seed=2), name="b")
        assert a.family_histogram() != b.family_histogram()

    def test_simple_cells_dominate(self, mcu):
        """Paper Fig. 9: NAND/NOR/INV/FF are the most used families."""
        histogram = mcu.family_histogram()
        top6 = {k for k, _ in sorted(histogram.items(), key=lambda kv: -kv[1])[:6]}
        assert {"ND2", "INV"} <= top6
        assert any(k.startswith("DFF") for k in top6)

    def test_has_sequential_endpoints(self, mcu):
        assert len(mcu.sequential_instances()) > 1000
        assert len(mcu.endpoint_nets()) > 1000


class TestBehaviour:
    def test_pc_increments_after_reset(self, small_mcu):
        inputs = {port: False for port in small_mcu.input_ports()}
        inputs["rst_n"] = True
        if "tie1" in inputs:
            inputs["tie1"] = True
        observed = simulate_sequence(small_mcu, [dict(inputs)] * 5)
        width = 16
        pcs = [
            sum(1 << i for i in range(width) if o[f"mem_addr[{i}]"])
            for o in observed
        ]
        assert pcs == [0, 1, 2, 3, 4]

    def test_reset_clears_pc(self, small_mcu):
        inputs = {port: False for port in small_mcu.input_ports()}
        if "tie1" in inputs:
            inputs["tie1"] = True
        run = dict(inputs, rst_n=True)
        halt = dict(inputs, rst_n=False)
        observed = simulate_sequence(small_mcu, [run, run, halt, run])
        width = 16
        pcs = [
            sum(1 << i for i in range(width) if o[f"mem_addr[{i}]"])
            for o in observed
        ]
        assert pcs[1] == 1
        assert pcs[3] == 0  # the reset cycle cleared the PC


class TestParams:
    def test_invalid_width_rejected(self):
        from repro.errors import NetlistError

        with pytest.raises(NetlistError):
            MicrocontrollerParams(width=4)

    def test_mult_wider_than_datapath_rejected(self):
        from repro.errors import NetlistError

        with pytest.raises(NetlistError):
            MicrocontrollerParams(width=16, mult_width=24)
