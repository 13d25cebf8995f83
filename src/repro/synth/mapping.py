"""Usable cell variants and initial technology mapping.

The netlist generators emit *family* instances; mapping binds each to a
concrete drive-strength variant present in the library.  Under library
tuning, variants whose output-pin windows were emptied are unusable —
the fine-grained analog of removing cells from the library.
:class:`VariantTables` holds that rule once, as arrays over the
library's cell ids, for the mapping and every sizing pass.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SynthesisError
from repro.sta.graph import CellTables, DesignArrays
from repro.synth.constraints import SynthesisConstraints


class VariantTables:
    """The usable drive-strength variants of every family, by cell id.

    Built from a library's :class:`~repro.sta.graph.CellTables` and the
    constraints' windows.  A cell is usable when every output pin kept
    a window (every cell of a known family, untuned).  Per cell id: the
    ``strength``, ``max_load`` (the smallest of its output pins'
    ``max_capacitance`` and window max_load) and ``max_slew`` (the
    smallest window max_slew; ``inf`` untuned) of its variant, ``nan``
    when the cell is unusable; ``up`` / ``down`` the ids of the next
    stronger / weaker usable variant of its family (``-1`` at either
    end).  A family's variants are ordered by strength, ties in library
    order.
    """

    def __init__(self, cells: CellTables, constraints: SynthesisConstraints) -> None:
        count = len(cells.names)
        #: Cell id -> name (``CellTables.names``).
        self.names = cells.names
        self.strength = np.full(count, np.nan)
        self.max_load = np.full(count, np.nan)
        self.max_slew = np.full(count, np.nan)
        self.up = np.full(count, -1, dtype=np.intp)
        self.down = np.full(count, -1, dtype=np.intp)
        members: Dict[str, List[int]] = {}
        for cell_id, (name, family) in enumerate(zip(cells.names, cells.families)):
            pins = cells.output_pins[cell_id]
            if not family or not constraints.is_cell_usable(name, pins):
                continue
            max_load, max_slew = cells.max_capacitance[cell_id], math.inf
            for pin in pins:
                window = constraints.window_for(name, pin)
                if window is not None:
                    max_load = min(max_load, window.max_load)
                    max_slew = min(max_slew, window.max_slew)
            self.strength[cell_id] = cells.strength[cell_id]
            self.max_load[cell_id], self.max_slew[cell_id] = max_load, max_slew
            members.setdefault(family, []).append(cell_id)
        #: Family -> (variant ids by ascending strength, running maximum
        #: of their max_load).
        self._orders: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for family, ids in members.items():
            order = np.asarray(sorted(ids, key=cells.strength.__getitem__), dtype=np.intp)
            self.up[order[:-1]] = order[1:]
            self.down[order[1:]] = order[:-1]
            self._orders[family] = (order, np.maximum.accumulate(self.max_load[order]))

    def _family(self, family: str) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return self._orders[family]
        except KeyError:
            raise SynthesisError(
                f"tuning left no usable variant of family {family!r}; "
                "the restriction is too tight to synthesize this design"
            ) from None

    def variants(self, family: str) -> np.ndarray:
        """Ids of a family's usable variants, by ascending strength."""
        return self._family(family)[0]

    def weakest(self, family: str) -> int:
        """Id of the weakest usable variant of a family."""
        return int(self.variants(family)[0])

    def strongest(self, family: str) -> int:
        """Id of the strongest usable variant of a family."""
        return int(self.variants(family)[-1])

    def smallest_for_load(
        self,
        families: Sequence[str],
        family_ids: np.ndarray,
        loads: np.ndarray,
        actual_loads: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per query ``q``, for family ``families[family_ids[q]]``: the id
        of the weakest variant whose max_load covers ``loads[q]``, else
        of the weakest covering ``actual_loads[q]`` when that is
        smaller, else of the strongest.

        ``loads`` may include utilization headroom; the retry at the
        *actual* load (legal but with no headroom) keeps a headroom
        request from cascading the whole fanin cone to maximum strength,
        and the strongest variant is left to buffering.  The first
        variant with ``max_load >= load`` in strength order is the first
        whose running maximum reaches ``load``, which a binary search
        over the (non-decreasing) running maximum finds.
        """
        out = np.empty(len(loads), dtype=np.intp)
        for family in np.unique(family_ids).tolist():
            picked = family_ids == family
            order, reach = self._family(families[family])
            wanted = loads[picked]
            found = np.searchsorted(reach, wanted, side="left")
            if actual_loads is not None:
                actual = actual_loads[picked]
                retry = (found == order.size) & (actual < wanted)
                found[retry] = np.searchsorted(reach, actual[retry], side="left")
            out[picked] = order[np.minimum(found, order.size - 1)]
        return out


def initial_mapping(design: DesignArrays, variants: VariantTables) -> np.ndarray:
    """Every instance's family's weakest usable variant, as cell ids.

    The sizing loop only ever upsizes from here, mirroring the
    area-first starting point of a synthesis tool.
    """
    weakest = np.asarray(
        [variants.weakest(family) for family in design.families], dtype=np.intp
    )
    return weakest[design.family_ids]
