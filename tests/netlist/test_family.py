"""The design family: presets, clamps, and the identity anchor."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, NetlistError
from repro.netlist.generators import (
    DESIGN_PRESETS,
    DesignSpec,
    MicrocontrollerParams,
    build_microcontroller,
    design_family,
    design_spec,
)
from repro.netlist.simulate import simulate_sequence


class TestRegistry:
    def test_family_names(self):
        assert design_family() == ("microcontroller", "dsp", "iohub", "sensor")
        assert set(DESIGN_PRESETS) == set(design_family())

    def test_lookup_by_name(self):
        assert design_spec("dsp").name == "dsp"

    def test_unknown_name_fails_loudly(self):
        with pytest.raises(ConfigError, match="unknown design"):
            design_spec("mcu")

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="pipeline_depth"):
            DesignSpec(name="bad", pipeline_depth=0)
        with pytest.raises(ConfigError, match="width_scale"):
            DesignSpec(name="bad", width_scale=0.0)
        with pytest.raises(ConfigError, match="needs a name"):
            DesignSpec(name="")


class TestParams:
    def test_identity_preset_is_exact(self):
        """The paper's design is the family's anchor — the identity
        spec returns the base parameters unchanged, at every scale."""
        for base in (
            MicrocontrollerParams(),
            MicrocontrollerParams(
                width=12, regfile_bits=2, mult_width=8, n_timers=1,
                timer_width=8, control_gates=400, status_width=16,
                n_uarts=1, gpio_width=4,
            ),
        ):
            assert design_spec("microcontroller").params(base) == base

    def test_clamps_keep_generator_invariants(self):
        """Extreme scales still yield constructible parameters."""
        base = MicrocontrollerParams()
        shrunk = DesignSpec(
            name="extreme", width_scale=0.1, peripheral_scale=0.05,
            fanout_profile=0.01,
        ).params(base)
        assert shrunk.width >= 8
        assert shrunk.mult_width <= shrunk.width
        assert 3 + 3 * shrunk.regfile_bits <= shrunk.width
        assert shrunk.timer_width <= shrunk.width
        assert shrunk.gpio_width <= shrunk.width
        assert shrunk.n_timers >= 1 and shrunk.n_uarts >= 1

    def test_every_preset_builds_a_valid_netlist(self):
        base = MicrocontrollerParams(
            width=12, regfile_bits=2, mult_width=8, n_timers=1,
            timer_width=8, control_gates=400, status_width=16,
            n_uarts=1, gpio_width=4,
        )
        sizes = {}
        for name in design_family():
            netlist = build_microcontroller(design_spec(name).params(base))
            netlist.validate()
            sizes[name] = len(netlist)
        assert len(set(sizes.values())) == len(sizes), sizes

    def test_pipeline_depth_adds_registers(self):
        base = MicrocontrollerParams(
            width=12, regfile_bits=2, mult_width=8, n_timers=1,
            timer_width=8, control_gates=400, status_width=16,
            n_uarts=1, gpio_width=4,
        )
        shallow = build_microcontroller(base)
        from dataclasses import replace

        deep = build_microcontroller(replace(base, pipeline_depth=3))
        assert len(deep) > len(shallow)

    def test_pipeline_depth_validated(self):
        with pytest.raises(NetlistError, match="pipeline_depth"):
            MicrocontrollerParams(pipeline_depth=0)

    def test_deep_pipeline_simulates(self):
        """The extra bus-return stages must not break the design's
        cycle-accurate simulation (registers only delay, never loop)."""
        params = design_spec("dsp").params(
            MicrocontrollerParams(
                width=12, regfile_bits=2, mult_width=8, n_timers=1,
                timer_width=8, control_gates=400, status_width=16,
                n_uarts=1, gpio_width=4,
            )
        )
        netlist = build_microcontroller(params)
        inputs = {port: False for port in netlist.input_ports()}
        inputs["rst_n"] = True
        simulate_sequence(netlist, [dict(inputs)] * 4)


def _design_key(params) -> str:
    """The ``design`` stage key of generator parameters."""
    from dataclasses import asdict

    from repro.parallel.artifacts import stage_fingerprint

    return stage_fingerprint("design", params=asdict(params))


class TestFingerprinting:
    def test_members_content_address_independently(self):
        base = MicrocontrollerParams()
        keys = [
            _design_key(design_spec(name).params(base))
            for name in design_family()
        ]
        assert len(set(keys)) == len(keys)

    def test_pipeline_depth_enters_fingerprint(self):
        from dataclasses import replace

        base = MicrocontrollerParams()
        assert _design_key(base) != _design_key(replace(base, pipeline_depth=2))
