"""Threshold extraction (paper Sec. VI.B).

For the slope-bound methods, a sigma threshold is extracted per cell
cluster:

1. build the *maximum equivalent LUT* — per-entry maximum over every
   sigma table of every cell in the cluster;
2. convert it to slew and load slope tables (eqs. 12-13);
3. binarize each against its slope bound (entries *smaller* than the
   bound become logic one) and AND the two binary tables;
4. find the largest all-ones rectangle (Algorithm 1) and read the
   sigma at the rectangle coordinate furthest from the origin.

The sigma-ceiling method skips all of this: its bound *is* the
threshold ("the sigma ceiling is used as threshold on its own").

:func:`cluster_thresholds` runs steps 1-4 for every cluster of a
tuning at once: step 1 is a max over the rows of the library's
:class:`~repro.core.restriction.PinSigma`, and step 4 one
:func:`~repro.core.rectangle.largest_rectangles` call per grid shape.

LUTs are combined **by index position**, as the paper's equations
operate on table indices; all catalog LUTs share one grid shape, and
cells of equal drive strength share physical axes as well.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core.binary_lut import binarize_below, combine_and
from repro.core.rectangle import Rectangle, largest_rectangles
from repro.core.restriction import PinSigma
from repro.core.slope import load_slope_table, slew_slope_table
from repro.errors import TuningError
from repro.liberty.model import Cell, Lut


def equivalent_sigma_lut(cells: Iterable[Cell]) -> Lut:
    """Maximum equivalent sigma LUT of a cluster, combined by entry.

    The returned LUT reuses the first table's axes; only the index
    structure is meaningful for mixed-strength clusters.
    """
    pins = [pin for cell in cells for pin in cell.output_pins()]
    (stack,) = PinSigma(pins).cluster_max([np.arange(len(pins))])
    return stack.lut(0)


def slope_binary_lut(
    equivalent: np.ndarray, load_bound: float, slew_bound: float
) -> np.ndarray:
    """Binary LUT (or stack) of acceptably flat entries (steps 2-3)."""
    if load_bound <= 0 or slew_bound <= 0:
        raise TuningError("slope bounds must be positive")
    return combine_and(
        binarize_below(slew_slope_table(equivalent), slew_bound),
        binarize_below(load_slope_table(equivalent), load_bound),
    )


def slope_thresholds(
    equivalent: np.ndarray, load_bound: float, slew_bound: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Steps 2-4 on a ``(n, S, L)`` stack of cluster equivalents.

    Returns each cluster's threshold and the ``(n, 4)`` flat-region
    rectangles they were read from.  The origin entry of both slope
    tables is zero by construction, so a rectangle always exists.
    """
    rectangles = largest_rectangles(slope_binary_lut(equivalent, load_bound, slew_bound))
    if (rectangles[:, 0] < 0).any():  # pragma: no cover - origin is always flat
        raise TuningError("slope binary LUT has no flat region")
    far = equivalent[np.arange(len(equivalent)), rectangles[:, 2], rectangles[:, 3]]
    return far, rectangles


def extract_slope_threshold(
    cells: Iterable[Cell], load_bound: float, slew_bound: float
) -> Tuple[float, Rectangle]:
    """One cluster's sigma threshold and the flat-region rectangle it
    came from (steps 1-4 above)."""
    equivalent = equivalent_sigma_lut(cells)
    thresholds, rectangles = slope_thresholds(
        equivalent.values[None], load_bound, slew_bound
    )
    return float(thresholds[0]), Rectangle(*(int(v) for v in rectangles[0]))


def cluster_thresholds(
    sigma: PinSigma,
    members: Sequence[np.ndarray],
    kind: str,
    load_bound: float,
    slew_bound: float,
    sigma_ceiling: float,
) -> np.ndarray:
    """One threshold per cluster, a cluster given as its rows of
    ``sigma``.

    ``kind`` is one of ``load_slope``/``slew_slope``/``sigma_ceiling``;
    the two bounds not being swept stay at their Table 2 defaults.
    """
    if kind == "sigma_ceiling":
        return np.full(len(members), float(sigma_ceiling))
    if kind not in ("load_slope", "slew_slope"):
        raise TuningError(f"unknown threshold kind {kind!r}")
    thresholds = np.empty(len(members))
    for stack in sigma.cluster_max(members):
        thresholds[stack.rows], _ = slope_thresholds(stack.values, load_bound, slew_bound)
    # The ceiling default (100 ns) never binds, but honor it anyway
    # so custom combined sweeps behave sensibly.
    return np.minimum(thresholds, sigma_ceiling)
