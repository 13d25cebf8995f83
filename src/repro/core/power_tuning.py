"""Power-targeted library tuning (the paper's Sec. III extension).

"The methods which will be described can also be adjusted to measure
the influence of local variation on other properties, such as
transition power."  This module performs that adjustment: the same
two-stage tuning — threshold, binary LUT, largest rectangle, per-pin
window — driven by the *switching-energy sigma* tables a power-enabled
characterization produces (``Characterizer(include_power=True)``):
the delay tuning's :class:`~repro.core.restriction.PinSigma` and its
batched restriction, built from the energy-sigma tables.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.restriction import PinSigma, SlewLoadWindow
from repro.core.tuner import WindowMap
from repro.errors import TuningError
from repro.liberty.model import Library, Lut, Pin


def pin_equivalent_power_sigma(pin: Pin) -> Lut:
    """Worst-case energy-sigma LUT of an output pin (max over arcs)."""
    return PinSigma([pin], "power").lut(0)


def power_sigma_windows(library: Library, ceiling: float) -> WindowMap:
    """Tune the whole library against an energy-sigma ceiling (pJ)."""
    if ceiling <= 0:
        raise TuningError("power-sigma ceiling must be positive")
    outputs = [(cell.name, pin) for cell in library for pin in cell.output_pins()]
    if not outputs:
        raise TuningError(f"library {library.name} has no output pins to tune")
    sigma = PinSigma([pin for _cell, pin in outputs], "power")
    windows = sigma.windows(np.full(len(outputs), float(ceiling)))
    return {(cell, pin.name): window for (cell, pin), window in zip(outputs, windows)}


def window_overlap(
    a: Optional[SlewLoadWindow], b: Optional[SlewLoadWindow]
) -> float:
    """Jaccard overlap of two windows in (slew x load) area.

    1.0 = identical, 0.0 = disjoint (or one side excluded).
    """
    if a is None or b is None:
        return 1.0 if a is b else 0.0
    slew_lo = max(a.min_slew, b.min_slew)
    slew_hi = min(a.max_slew, b.max_slew)
    load_lo = max(a.min_load, b.min_load)
    load_hi = min(a.max_load, b.max_load)
    inter = max(0.0, slew_hi - slew_lo) * max(0.0, load_hi - load_lo)
    area_a = (a.max_slew - a.min_slew) * (a.max_load - a.min_load)
    area_b = (b.max_slew - b.min_slew) * (b.max_load - b.min_load)
    union = area_a + area_b - inter
    if union <= 0:
        return 1.0  # both degenerate
    return inter / union


def compare_window_maps(
    delay_windows: WindowMap, power_windows: WindowMap
) -> Dict[Tuple[str, str], float]:
    """Per-pin overlap between delay-driven and power-driven tuning.

    Both metrics cut the high-slew/high-load corner, but not
    identically: delay sigma is dominated by the R*C sensitivity,
    energy sigma by the short-circuit (slew) term — so the windows
    correlate without coinciding.
    """
    if set(delay_windows) != set(power_windows):
        raise TuningError("window maps cover different pins")
    return {
        key: window_overlap(delay_windows[key], power_windows[key])
        for key in delay_windows
    }
