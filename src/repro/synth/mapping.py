"""Cell-variant choices and initial technology mapping.

The netlist generators emit *family* instances; mapping binds each to a
concrete drive-strength variant present in the library.  Under library
tuning, variants whose output-pin windows were emptied are unusable —
the fine-grained analog of removing cells from the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.naming import parse_cell_name
from repro.errors import SynthesisError
from repro.liberty.model import Library
from repro.netlist.model import Netlist
from repro.synth.constraints import SynthesisConstraints


@dataclass(frozen=True)
class Variant:
    """One usable drive-strength variant of a family."""

    cell_name: str
    strength: float
    #: Effective maximum load: min over output pins of window max_load
    #: (when tuned) and the cell's own max_capacitance.
    max_load: float
    #: Effective maximum input slew (min over windows; inf untuned).
    max_slew: float
    area: float


class CellChoices:
    """Usable variants per family, sorted by drive strength."""

    def __init__(self, library: Library, constraints: SynthesisConstraints):
        self.library = library
        self.constraints = constraints
        self._variants: Dict[str, List[Variant]] = {}
        for cell in library:
            name = parse_cell_name(cell.name)
            family = name.family
            outputs = cell.output_pins()
            output_pins = tuple(p.name for p in outputs)
            if not constraints.is_cell_usable(cell.name, output_pins):
                continue
            max_load = min(p.max_capacitance for p in outputs)
            max_slew = float("inf")
            for pin in outputs:
                window = constraints.window_for(cell.name, pin.name)
                if window is not None:
                    max_load = min(max_load, window.max_load)
                    max_slew = min(max_slew, window.max_slew)
            self._variants.setdefault(family, []).append(
                Variant(
                    cell_name=cell.name,
                    strength=name.strength,
                    max_load=max_load,
                    max_slew=max_slew,
                    area=cell.area,
                )
            )
        for variants in self._variants.values():
            variants.sort(key=lambda v: v.strength)
        self._by_name: Dict[str, Tuple[str, int, Variant]] = {}
        for family, variants in self._variants.items():
            for position, variant in enumerate(variants):
                self._by_name[variant.cell_name] = (family, position, variant)

    def variants(self, family: str) -> List[Variant]:
        """Usable variants of a family (ascending strength)."""
        try:
            variants = self._variants[family]
        except KeyError:
            raise SynthesisError(
                f"tuning left no usable variant of family {family!r}; "
                "the restriction is too tight to synthesize this design"
            ) from None
        return variants

    def families(self) -> List[str]:
        """Families with at least one usable variant."""
        return sorted(self._variants)

    def variant_of(self, cell_name: str) -> Variant:
        """The variant record of a bound cell name."""
        try:
            return self._by_name[cell_name][2]
        except KeyError:
            raise SynthesisError(
                f"cell {cell_name} is not usable under the constraints"
            ) from None

    def next_up(self, cell_name: str) -> Optional[Variant]:
        """The next stronger usable variant, or None at the top."""
        family, position, _variant = self._lookup(cell_name)
        variants = self._variants[family]
        return variants[position + 1] if position + 1 < len(variants) else None

    def next_down(self, cell_name: str) -> Optional[Variant]:
        """The next weaker usable variant, or None at the bottom."""
        family, position, _variant = self._lookup(cell_name)
        return self._variants[family][position - 1] if position > 0 else None

    def _lookup(self, cell_name: str) -> Tuple[str, int, Variant]:
        try:
            return self._by_name[cell_name]
        except KeyError:
            raise SynthesisError(
                f"cell {cell_name} is not usable under the constraints"
            ) from None

    def smallest(self, family: str) -> Variant:
        """Weakest usable variant of a family."""
        return self.variants(family)[0]

    def largest(self, family: str) -> Variant:
        """Strongest usable variant of a family."""
        return self.variants(family)[-1]

    def smallest_for_load(
        self, family: str, load: float, actual_load: Optional[float] = None
    ) -> Variant:
        """Weakest variant legally driving ``load``.

        ``load`` may include utilization headroom; when nothing covers
        it, the fallback first tries the *actual* load (legal but with
        no headroom) and only then the strongest variant (buffering
        will follow) — keeping a headroom request from cascading the
        whole fanin cone to maximum strength.
        """
        for variant in self.variants(family):
            if variant.max_load >= load:
                return variant
        if actual_load is not None and actual_load < load:
            for variant in self.variants(family):
                if variant.max_load >= actual_load:
                    return variant
        return self.largest(family)


class VariantTables:
    """:class:`CellChoices` as arrays indexed by cell id.

    ``names`` maps cell ids to cell names (``CellTables.names``).  Per
    cell id: the ``strength``, ``max_load`` and ``max_slew`` of its
    variant (``nan`` when the cell is unusable), with ``up`` / ``down``
    the ids of the next stronger / weaker usable variant of its family
    (``-1`` at either end).
    """

    def __init__(self, choices: CellChoices, names: Sequence[str]) -> None:
        index = {name: cell_id for cell_id, name in enumerate(names)}
        self.strength = np.full(len(names), np.nan)
        self.max_load = np.full(len(names), np.nan)
        self.max_slew = np.full(len(names), np.nan)
        self.up = np.full(len(names), -1, dtype=np.intp)
        self.down = np.full(len(names), -1, dtype=np.intp)
        #: Family -> (variant ids by ascending strength, running maximum
        #: of their max_load).
        self._orders: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for family in choices.families():
            variants = choices.variants(family)
            order = np.asarray([index[v.cell_name] for v in variants], dtype=np.intp)
            self.strength[order] = [v.strength for v in variants]
            self.max_load[order] = [v.max_load for v in variants]
            self.max_slew[order] = [v.max_slew for v in variants]
            self.up[order[:-1]] = order[1:]
            self.down[order[1:]] = order[:-1]
            self._orders[family] = (order, np.maximum.accumulate(self.max_load[order]))

    def smallest_for_load(
        self,
        families: Sequence[str],
        family_ids: np.ndarray,
        loads: np.ndarray,
        actual_loads: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`CellChoices.smallest_for_load` per query ``q``, for
        family ``families[family_ids[q]]``: the id of the weakest variant
        whose max_load covers ``loads[q]``, else of the weakest covering
        ``actual_loads[q]`` when that is smaller, else of the strongest.

        The first variant with ``max_load >= load`` in strength order is
        the first whose running maximum reaches ``load``, which a binary
        search over the (non-decreasing) running maximum finds.
        """
        out = np.empty(len(loads), dtype=np.intp)
        for family in np.unique(family_ids).tolist():
            picked = family_ids == family
            order, reach = self._orders[families[family]]
            wanted = loads[picked]
            found = np.searchsorted(reach, wanted, side="left")
            if actual_loads is not None:
                actual = actual_loads[picked]
                retry = (found == order.size) & (actual < wanted)
                found[retry] = np.searchsorted(reach, actual[retry], side="left")
            out[picked] = order[np.minimum(found, order.size - 1)]
        return out


def initial_mapping(netlist: Netlist, choices: CellChoices) -> None:
    """Bind every instance to its family's weakest usable variant.

    The sizing loop only ever upsizes from here, mirroring the
    area-first starting point of a synthesis tool.
    """
    for instance in netlist:
        instance.cell = choices.smallest(instance.family).cell_name
