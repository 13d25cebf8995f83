"""Cell clustering for threshold extraction (paper Sec. VI.A).

"One part denotes if the population of cells is considered on an
individual basis or rather grouped per drive strength."  The paper
motivates the drive-strength grouping from Fig. 4 (higher strength =
larger devices = lower, flatter sigma) and contrasts it with treating
every cell on its own.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cells.naming import parse_cell_name
from repro.errors import TuningError
from repro.liberty.model import Cell, Library


def strength_key(strength: float) -> str:
    """Stable cluster key for a drive strength (e.g. ``strength_6``)."""
    return f"strength_{strength:g}"


def cell_strength(cell: Cell) -> float:
    """Drive strength encoded in the cell's name (Appendix A naming)."""
    return parse_cell_name(cell.name).strength


def cluster_by_strength(library: Library) -> Dict[str, List[Cell]]:
    """Group the library's cells by drive strength.

    Returns a mapping from :func:`strength_key` to the cells sharing
    that strength, e.g. the drive-strength-6 cluster of paper Fig. 5.
    """
    clusters: Dict[str, List[Cell]] = {}
    for cell in library:
        clusters.setdefault(strength_key(cell_strength(cell)), []).append(cell)
    if not clusters:
        raise TuningError(f"library {library.name} has no cells to cluster")
    return clusters


def cluster_individually(library: Library) -> Dict[str, List[Cell]]:
    """Each cell forms its own cluster (the paper's per-cell methods)."""
    clusters = {cell.name: [cell] for cell in library}
    if not clusters:
        raise TuningError(f"library {library.name} has no cells to cluster")
    return clusters
