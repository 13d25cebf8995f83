"""Look-up-table restriction (paper Sec. VI.C).

"The synthesis tool only allows the confinement of a look-up table
based on output pins.  Thus, the worst case situation has to be taken
into account."  Per output pin:

1. build the maximum equivalent LUT over every sigma table of the
   pin's timing arcs;
2. binarize against the extracted threshold (smaller = logic one);
3. run the largest-rectangle algorithm;
4. map the rectangle coordinates onto the physical axes: the minimum
   and maximum slew/load values the synthesis tool may use the pin at.

Step 1 depends on neither the method nor the parameter, so
:class:`PinSigma` builds it once per library, as one stack of pin LUTs
per grid shape; steps 2-4 then run for every pin at once, with one
:func:`~repro.core.rectangle.largest_rectangles` call per grid shape.

A pin whose binary LUT has no ones at all (its sigma exceeds the
threshold everywhere) gets ``None`` — the cell is effectively removed
from the library, the coarse behaviour classic library tuning would
have produced for every restricted cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.binary_lut import binarize_at_most
from repro.core.rectangle import largest_rectangles
from repro.errors import LutError, TuningError
from repro.liberty.model import Lut, Pin, TimingArc


@dataclass(frozen=True)
class SlewLoadWindow:
    """Allowed operating window of an output pin (inclusive, ns / pF)."""

    min_slew: float
    max_slew: float
    min_load: float
    max_load: float

    def __post_init__(self) -> None:
        if not (0 <= self.min_slew <= self.max_slew):
            raise TuningError(f"invalid slew window [{self.min_slew}, {self.max_slew}]")
        if not (0 <= self.min_load <= self.max_load):
            raise TuningError(f"invalid load window [{self.min_load}, {self.max_load}]")

    def allows(self, slew: float, load: float, tolerance: float = 1e-9) -> bool:
        """True when an instance at (input slew, output load) is legal."""
        return (
            self.min_slew - tolerance <= slew <= self.max_slew + tolerance
            and self.min_load - tolerance <= load <= self.max_load + tolerance
        )


#: Per metric: the arc's sigma tables, and what a pin without any lacks.
SIGMA_KINDS: Dict[str, Tuple[Callable[[TimingArc], List[Lut]], str]] = {
    "delay": (TimingArc.sigma_tables, "sigma tables — restriction needs a statistical library"),
    "power": (
        TimingArc.power_sigma_tables,
        "energy-sigma tables — characterize with Characterizer(include_power=True)",
    ),
}


@dataclass(frozen=True)
class SigmaStack:
    """Maximum-equivalent sigma LUTs sharing one grid shape: LUT ``k``
    is ``values[k]`` on the axes ``slews[k]``/``loads[k]`` and belongs
    to item ``rows[k]`` (a pin, or a cluster of pins) of its source."""

    rows: np.ndarray
    values: np.ndarray
    slews: np.ndarray
    loads: np.ndarray

    def lut(self, k: int) -> Lut:
        """LUT ``k`` as a :class:`~repro.liberty.model.Lut`."""
        return Lut(self.slews[k], self.loads[k], self.values[k])


def _starts(groups: Sequence[Sequence]) -> np.ndarray:
    """Offset of each group in their concatenation."""
    return np.cumsum([0] + [len(group) for group in groups[:-1]])


class PinSigma:
    """Worst-case sigma LUT of each output pin (step 1), stacked per
    grid shape.

    Pin ``k``'s LUT is the per-entry maximum over every ``kind`` sigma
    table (``delay`` or ``power``) of its timing arcs, on the axes of
    the first one.  A pin without such tables raises
    :class:`~repro.errors.TuningError`; tables of one pin on different
    axes raise :class:`~repro.errors.LutError`.
    """

    def __init__(self, pins: Sequence[Pin], kind: str = "delay"):
        tables_of, missing = SIGMA_KINDS[kind]
        groups: Dict[Tuple[int, int], Tuple[List[int], List[List[Lut]]]] = {}
        for row, pin in enumerate(pins):
            tables = [table for arc in pin.timing for table in tables_of(arc)]
            if not tables:
                raise TuningError(f"pin {pin.name} has no {missing}")
            rows, pin_tables = groups.setdefault(tables[0].shape, ([], []))
            rows.append(row)
            pin_tables.append(tables)
        self.stacks = [self._stack(*group) for group in groups.values()]
        #: Each pin's stack, and its position in that stack.
        self._stack_of = np.empty(len(pins), dtype=np.intp)
        self._position = np.empty(len(pins), dtype=np.intp)
        for index, stack in enumerate(self.stacks):
            self._stack_of[stack.rows] = index
            self._position[stack.rows] = np.arange(stack.rows.size)

    @staticmethod
    def _stack(rows: List[int], pin_tables: List[List[Lut]]) -> SigmaStack:
        tables = [table for group in pin_tables for table in group]
        starts = _starts(pin_tables)
        firsts = np.repeat(starts, [len(group) for group in pin_tables])
        if any(table.shape != tables[0].shape for table in tables):
            raise LutError("a pin's sigma tables require identical LUT axes")
        slews = np.stack([table.index_1 for table in tables])
        loads = np.stack([table.index_2 for table in tables])
        if not (np.isclose(slews[firsts], slews).all() and np.isclose(loads[firsts], loads).all()):
            raise LutError("a pin's sigma tables require identical LUT axes")
        values = np.stack([table.values for table in tables])
        return SigmaStack(
            np.asarray(rows, dtype=np.intp),
            np.maximum.reduceat(values, starts, axis=0),
            slews[starts],
            loads[starts],
        )

    def lut(self, row: int) -> Lut:
        """Pin ``row``'s equivalent LUT."""
        return self.stacks[self._stack_of[row]].lut(self._position[row])

    def grid(self, row: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Pin ``row``'s slew axis, load axis and entry count."""
        stack, k = self.stacks[self._stack_of[row]], self._position[row]
        return stack.slews[k], stack.loads[k], stack.values[k].size

    def cluster_max(self, members: Sequence[np.ndarray]) -> List[SigmaStack]:
        """Maximum-equivalent LUT of each cluster of pin rows (paper
        Sec. VI.B step 1), one stack per grid shape; a stack's ``rows``
        index ``members``, and each cluster keeps its first pin's axes.
        An empty cluster, or one mixing grid shapes, raises."""
        if any(len(rows) == 0 for rows in members):
            raise TuningError(
                "cluster has no sigma tables — threshold extraction needs a "
                "statistical library (see repro.statlib)"
            )
        stack_of = self._stack_of[np.concatenate(members)]
        shape = np.minimum.reduceat(stack_of, _starts(members))
        if (np.maximum.reduceat(stack_of, _starts(members)) != shape).any():
            raise TuningError("cluster mixes LUT shapes")
        result = []
        for index, stack in enumerate(self.stacks):
            clusters = np.flatnonzero(shape == index)
            if clusters.size:
                pins = [members[cluster] for cluster in clusters]
                positions = self._position[np.concatenate(pins)]
                firsts = positions[_starts(pins)]
                result.append(SigmaStack(
                    clusters,
                    np.maximum.reduceat(stack.values[positions], _starts(pins), axis=0),
                    stack.slews[firsts],
                    stack.loads[firsts],
                ))
        return result

    def windows(self, thresholds: np.ndarray) -> List[Optional[SlewLoadWindow]]:
        """Steps 2-4 for every pin at once: pin ``k``'s window at
        ``thresholds[k]`` (``None`` when no entry is acceptable)."""
        thresholds = np.asarray(thresholds, dtype=float)
        if (thresholds <= 0).any():
            raise TuningError("sigma threshold must be positive")
        windows: List[Optional[SlewLoadWindow]] = [None] * len(thresholds)
        for stack in self.stacks:
            binary = binarize_at_most(stack.values, thresholds[stack.rows, None, None])
            rectangles = largest_rectangles(binary).tolist()
            for row, slew, load, (row_lo, col_lo, row_hi, col_hi) in zip(
                stack.rows, stack.slews, stack.loads, rectangles
            ):
                if row_lo >= 0:  # step 4: index coordinates -> physical axes
                    windows[row] = SlewLoadWindow(
                        float(slew[row_lo]), float(slew[row_hi]),
                        float(load[col_lo]), float(load[col_hi]),
                    )
        return windows


def pin_equivalent_sigma(pin: Pin) -> Lut:
    """Maximum equivalent sigma LUT of an output pin (worst arc/table)."""
    return PinSigma([pin]).lut(0)
