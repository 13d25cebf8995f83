"""The design family: named variants of the evaluation design.

The paper evaluates its tuning methods on one design — the ~20k-gate
microcontroller of Sec. VII.  The sweep harness (:mod:`repro.sweep`)
asks the obvious follow-up question — *do the method rankings hold
across designs?* — which needs a family of related-but-distinct
designs to sweep over.

A :class:`DesignSpec` describes one family member **relative to a base**
:class:`~repro.netlist.generators.microcontroller.MicrocontrollerParams`:
a datapath-width scale, an absolute pipeline depth, a fanout profile
(the density of the random control fabric and its observability taps)
and a peripheral mix.  Working relative to the base means the same
family tracks every :class:`~repro.flow.experiment.FlowConfig` scale —
``tiny()``'s ``dsp`` variant is a few hundred gates, ``paper()``'s is
~30k — and the ``microcontroller`` preset is the exact identity, so
the paper's design is the family's anchor point, byte-for-byte.

Every knob a spec touches lands in ``MicrocontrollerParams``, which
the flow fingerprints whole (the ``design`` stage key hashes
``dataclasses.asdict``) — so each family
member content-addresses its synthesis artifacts independently, with
no family-specific fingerprint plumbing anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.netlist.generators.microcontroller import MicrocontrollerParams

__all__ = [
    "DESIGN_PRESETS",
    "DesignSpec",
    "design_family",
    "design_spec",
]


@dataclass(frozen=True)
class DesignSpec:
    """One family member, described relative to a base design.

    The scales are multiplicative on the base parameters;
    ``pipeline_depth`` is absolute (a depth, not a ratio).  Derived
    parameters are clamped to keep every ``MicrocontrollerParams``
    invariant satisfied at any base scale (see :meth:`params`).
    """

    #: Stable family-member name (grid axis value, report row).
    name: str
    #: One-line description for listings and reports.
    description: str = ""
    #: Datapath-width multiplier (operands, bus, PC).
    width_scale: float = 1.0
    #: Bus-return register stages before writeback (1 = the paper's
    #: organization).
    pipeline_depth: int = 1
    #: Multiplier on the random control fabric and its observability
    #: taps — the design's fanout/congestion profile.
    fanout_profile: float = 1.0
    #: Multiplier on the peripheral mix (timers, UARTs, GPIO).
    peripheral_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("design spec needs a name")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")
        for knob in ("width_scale", "fanout_profile", "peripheral_scale"):
            if getattr(self, knob) <= 0:
                raise ConfigError(f"{knob} must be > 0")

    def params(self, base: MicrocontrollerParams) -> MicrocontrollerParams:
        """The member's generator parameters at a given base scale.

        Clamps keep the generator invariants intact for any base:
        the datapath floor is 8 bits, the multiplier and timers never
        exceed the datapath, and the register-file address fields must
        fit the instruction word.  The all-ones spec returns ``base``
        unchanged (the identity is exact, not just approximate).
        """
        width = max(8, round(base.width * self.width_scale))
        return replace(
            base,
            width=width,
            regfile_bits=min(base.regfile_bits, (width - 3) // 3),
            mult_width=min(
                width, max(2, round(base.mult_width * self.width_scale))
            ),
            n_timers=max(1, round(base.n_timers * self.peripheral_scale)),
            timer_width=min(base.timer_width, width),
            control_gates=max(
                50, round(base.control_gates * self.fanout_profile)
            ),
            status_width=max(
                8, round(base.status_width * self.fanout_profile)
            ),
            n_uarts=max(1, round(base.n_uarts * self.peripheral_scale)),
            gpio_width=max(
                4, min(width, round(base.gpio_width * self.peripheral_scale))
            ),
            pipeline_depth=self.pipeline_depth,
        )


#: The named family members, in documentation order.  The
#: ``microcontroller`` preset is the identity — the paper's design.
DESIGN_PRESETS: Dict[str, DesignSpec] = {
    spec.name: spec
    for spec in (
        DesignSpec(
            name="microcontroller",
            description="the paper's Sec. VII evaluation design (identity)",
        ),
        DesignSpec(
            name="dsp",
            description="wide datapath, deep multiplier, extra bus stage, "
            "few peripherals",
            width_scale=1.5,
            pipeline_depth=2,
            fanout_profile=0.8,
            peripheral_scale=0.5,
        ),
        DesignSpec(
            name="iohub",
            description="peripheral-heavy bridge: narrow datapath, doubled "
            "timer/UART/GPIO mix",
            width_scale=0.75,
            peripheral_scale=2.0,
        ),
        DesignSpec(
            name="sensor",
            description="minimal controller: half-width datapath, sparse "
            "control fabric, single peripherals",
            width_scale=0.5,
            fanout_profile=0.5,
            peripheral_scale=0.5,
        ),
    )
}


def design_family() -> Tuple[str, ...]:
    """The recognized family-member names, in documentation order."""
    return tuple(DESIGN_PRESETS)


def design_spec(name: str) -> DesignSpec:
    """Look a family member up by name, failing loudly on a typo."""
    try:
        return DESIGN_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown design {name!r} "
            f"(use one of {', '.join(DESIGN_PRESETS)})"
        ) from None
