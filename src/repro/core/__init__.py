"""Library tuning — the paper's contribution (Sec. VI).

Two-stage process:

1. **threshold extraction** — per cell cluster, build the maximum
   equivalent sigma LUT, derive slew/load slope tables (eqs. 12-13),
   binarize against slope bounds, AND them, run the largest-rectangle
   algorithm (Algorithm 1) and read the sigma at the rectangle corner
   furthest from the origin; the sigma-ceiling method uses its bound as
   the threshold directly;
2. **LUT restriction** — per output pin, binarize the pin's worst-case
   sigma LUT against the threshold, find the largest acceptable
   rectangle and convert its coordinates into min/max slew and load
   bounds (:class:`~repro.core.restriction.SlewLoadWindow`) that the
   synthesis tool must honor.

Both stages end in one batched Algorithm 1
(:func:`~repro.core.rectangle.largest_rectangles`) over the pin sigma
stacks :class:`~repro.core.restriction.PinSigma` builds once per library.
"""

from repro.core.slope import slew_slope_table, load_slope_table
from repro.core.binary_lut import (
    binarize_below,
    combine_and,
)
from repro.core.rectangle import (
    Rectangle,
    largest_rectangle,
    largest_rectangle_paper,
    largest_rectangles,
)
from repro.core.clusters import cluster_by_strength, cluster_individually
from repro.core.threshold import extract_slope_threshold, equivalent_sigma_lut
from repro.core.methods import (
    TuningMethod,
    TUNING_METHODS,
    DEFAULT_BOUNDS,
    method_by_name,
)
from repro.core.restriction import PinSigma, SlewLoadWindow, pin_equivalent_sigma
from repro.core.tuner import LibraryTuner, TuningResult
from repro.core.sdc import parse_sdc, write_sdc, write_sdc_file
from repro.core.power_tuning import (
    pin_equivalent_power_sigma,
    power_sigma_windows,
)

__all__ = [
    "slew_slope_table",
    "load_slope_table",
    "binarize_below",
    "combine_and",
    "Rectangle",
    "largest_rectangle",
    "largest_rectangle_paper",
    "largest_rectangles",
    "cluster_by_strength",
    "cluster_individually",
    "extract_slope_threshold",
    "equivalent_sigma_lut",
    "TuningMethod",
    "TUNING_METHODS",
    "DEFAULT_BOUNDS",
    "method_by_name",
    "SlewLoadWindow",
    "PinSigma",
    "pin_equivalent_sigma",
    "LibraryTuner",
    "TuningResult",
    "parse_sdc",
    "write_sdc",
    "write_sdc_file",
    "pin_equivalent_power_sigma",
    "power_sigma_windows",
]
