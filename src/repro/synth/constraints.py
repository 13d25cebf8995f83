"""Synthesis constraints: clock, guard band, tuning windows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.restriction import SlewLoadWindow
from repro.errors import SynthesisError
from repro.units import GUARD_BAND_NS

#: (cell name, output pin) -> window (None = pin unusable).
WindowMap = Dict[Tuple[str, str], Optional[SlewLoadWindow]]


@dataclass
class SynthesisConstraints:
    """Everything the synthesizer must honor."""

    #: Target clock period (ns); the guard band is subtracted before
    #: timing is checked (paper Sec. VII: 300 ps).
    clock_period: float
    guard_band: float = GUARD_BAND_NS
    #: Tuning windows; ``None`` = untuned baseline synthesis.
    windows: Optional[WindowMap] = None
    #: Buffering (topology) rounds; the loop exits early once a round
    #: creates nothing, so this is a cap, not a cost.
    max_buffer_rounds: int = 6
    #: Area-recovery passes after timing is met.
    area_recovery_passes: int = 3
    #: Slack an instance must keep after a downsizing move (ns).
    downsize_margin: float = 0.05
    #: Global maximum net transition (ns), the standard design-rule
    #: constraint every flow carries; keeps relaxed designs from
    #: converging onto arbitrarily sloppy (and high-sigma) slews.
    max_transition: float = 0.55

    def __post_init__(self) -> None:
        if self.clock_period <= self.guard_band:
            raise SynthesisError(
                f"clock period {self.clock_period} ns must exceed the "
                f"guard band {self.guard_band} ns"
            )

    @property
    def effective_period(self) -> float:
        """Timing budget the paths are checked against."""
        return self.clock_period - self.guard_band

    def fingerprint_payload(self) -> Dict[str, float]:
        """Every scalar knob that can change a synthesis outcome.

        The tuning *windows* are deliberately excluded: the artifact
        pipeline fingerprints them through the tuning stage's own
        content hash (windows are a pure function of library + method +
        parameter), which keeps this payload small and canonical.
        """
        return {
            "clock_period": self.clock_period,
            "guard_band": self.guard_band,
            # a removed knob's old default, kept so stored synth keys hold
            "max_sizing_iterations": 40,
            "max_buffer_rounds": self.max_buffer_rounds,
            "area_recovery_passes": self.area_recovery_passes,
            "downsize_margin": self.downsize_margin,
            "max_transition": self.max_transition,
        }

    def window_for(self, cell_name: str, pin: str) -> Optional[SlewLoadWindow]:
        """Tuning window of a cell output pin.

        Returns ``None`` when no tuning is active (everything legal);
        raises when tuning is active and the pin was excluded — callers
        check usability via :meth:`is_cell_usable` first.
        """
        if self.windows is None:
            return None
        try:
            return self.windows[(cell_name, pin)]
        except KeyError:
            raise SynthesisError(
                f"tuning windows miss cell pin {cell_name}.{pin}"
            ) from None

    def is_cell_usable(self, cell_name: str, output_pins: Tuple[str, ...]) -> bool:
        """True when every output pin of the cell kept a window."""
        if self.windows is None:
            return True
        return all(self.windows.get((cell_name, pin)) is not None for pin in output_pins)
