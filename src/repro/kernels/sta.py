"""Compiled library tables: every timing LUT of a library, one gather.

STA, the sizer and the statistics stage all ask one question many
times over: the worst (max of rise/fall) value of an arc's delay,
transition or sigma tables at a (slew, load) point.
:class:`LibraryTables` compiles a :class:`~repro.liberty.model.Library`
once — :func:`library_tables` caches it per library object:

* every timing LUT of every arc is stacked into a
  :class:`~repro.kernels.lut.LutBatch` (one per table shape; one
  characterizer grid yields exactly one), addressed by a table id;
* every arc gets a row, and per kind (``delay``, ``transition``,
  ``sigma``) a pair of table ids — rise then fall.  An arc with a
  single table of a kind repeats its id (``max(x, x) == x``), an arc
  without any stores ``-1``.

:func:`worst_values` then resolves any number of (table pair, slew,
load) queries:

* ``"vectorized"`` — both tables of every query in one gather
  interpolation, then ``np.maximum(first, second)``;
* ``"scalar"`` — the reference: one scalar bilinear lookup per table
  per query, max-merged the same way.

Max-merging is exact and both kernels use identical interpolation
arithmetic, so results are bit-identical — ``tests/kernels`` holds the
gather to the scalar lookup.  A library is treated as immutable once
compiled: every producer finishes building it before it is timed.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import LibertyError
from repro.kernels.dispatch import resolve_kernel
from repro.kernels.lut import LutBatch, batch_interpolate
from repro.liberty.lut import bilinear_interpolate
from repro.liberty.model import Library, Lut

#: Table kinds with a per-arc id pair, in :class:`LibraryTables` order.
KINDS = ("delay", "transition", "sigma")

#: Queries per gather.  The kernel keeps ~20 temporaries of this length
#: alive, so the bound caps its peak memory; no STA level of the
#: benchmark's tiny design comes near it, so each level stays one call.
_CHUNK = 4096


class LibraryTables:
    """Every timing LUT of one library, stacked and addressed per arc."""

    __slots__ = ("luts", "rows", "delay", "transition", "sigma",
                 "_batches", "_batch_of", "_local")

    def __init__(self, library: Library) -> None:
        #: Table id -> LUT.
        self.luts: List[Lut] = []
        #: (cell, output pin, related pin) -> arc row.
        self.rows: Dict[Tuple[str, str, str], int] = {}
        pairs: Dict[str, List[Tuple[int, int]]] = {kind: [] for kind in KINDS}
        for cell in library:
            for pin, arc in cell.arcs():
                self.rows[(cell.name, pin.name, arc.related_pin)] = len(self.rows)
                for kind, tables in zip(
                    KINDS,
                    (arc.delay_tables(), arc.transition_tables(), arc.sigma_tables()),
                ):
                    ids = list(range(len(self.luts), len(self.luts) + len(tables)))
                    self.luts.extend(tables)
                    pairs[kind].append((ids[0], ids[-1]) if ids else (-1, -1))
        #: (arcs, 2) rise/fall table ids per kind; ``-1`` when absent.
        self.delay = np.asarray(pairs["delay"], dtype=np.intp).reshape(-1, 2)
        self.transition = np.asarray(pairs["transition"], dtype=np.intp).reshape(-1, 2)
        self.sigma = np.asarray(pairs["sigma"], dtype=np.intp).reshape(-1, 2)

        by_shape: Dict[Tuple[int, int], List[int]] = {}
        for tid, lut in enumerate(self.luts):
            by_shape.setdefault(lut.values.shape, []).append(tid)
        self._batches = [
            LutBatch([self.luts[tid] for tid in tids]) for tids in by_shape.values()
        ]
        self._batch_of = np.empty(len(self.luts), dtype=np.intp)
        self._local = np.empty(len(self.luts), dtype=np.intp)
        for index, tids in enumerate(by_shape.values()):
            self._batch_of[tids] = index
            self._local[tids] = np.arange(len(tids))

    def row(self, cell_name: str, output_pin: str, related_pin: str) -> int:
        """Arc row of ``cell_name``'s ``related_pin -> output_pin`` arc."""
        try:
            return self.rows[(cell_name, output_pin, related_pin)]
        except KeyError:
            raise LibertyError(
                f"cell {cell_name}: no arc {related_pin} -> {output_pin}"
            ) from None

    def interpolate(
        self, table_ids: np.ndarray, slews: np.ndarray, loads: np.ndarray
    ) -> np.ndarray:
        """Gather-interpolate table ``table_ids[q]`` at each query ``q``."""
        if len(self._batches) == 1:
            return batch_interpolate(self._batches[0], table_ids, slews, loads)
        out = np.empty(table_ids.size)
        which = self._batch_of[table_ids]
        for index, batch in enumerate(self._batches):
            mask = which == index
            if mask.any():
                out[mask] = batch_interpolate(
                    batch, self._local[table_ids[mask]], slews[mask], loads[mask]
                )
        return out


_COMPILED: "weakref.WeakKeyDictionary[Library, LibraryTables]" = (
    weakref.WeakKeyDictionary()
)


def library_tables(library: Library) -> LibraryTables:
    """The compiled tables of ``library``, built on first use."""
    tables = _COMPILED.get(library)
    if tables is None:
        tables = _COMPILED[library] = LibraryTables(library)
    return tables


def worst_values(
    tables: LibraryTables,
    pairs: np.ndarray,
    slews: np.ndarray,
    loads: np.ndarray,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Per query ``q``: max of tables ``pairs[q]`` at ``(slews[q], loads[q])``.

    ``pairs`` is a ``(Q, 2)`` array of table ids (rows of
    :attr:`LibraryTables.delay` and friends); the result is bit-identical
    across kernels.
    """
    ids = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    q_slew = np.asarray(slews, dtype=float).ravel()
    q_load = np.asarray(loads, dtype=float).ravel()
    if ids.shape[0] != q_slew.size or q_slew.size != q_load.size:
        raise LibertyError("table pairs and query points must align")
    if ids.size and ids.min() < 0:
        raise LibertyError("cannot interpolate an arc without tables")
    if resolve_kernel(kernel) == "scalar":
        luts = tables.luts
        out = np.empty(q_slew.size)
        for query, (first, second) in enumerate(ids.tolist()):
            slew, load = float(q_slew[query]), float(q_load[query])
            out[query] = np.maximum(
                bilinear_interpolate(luts[first], slew, load),
                bilinear_interpolate(luts[second], slew, load),
            )
        return out
    out = np.empty(q_slew.size)
    for start in range(0, q_slew.size, _CHUNK):
        stop = min(start + _CHUNK, q_slew.size)
        size = stop - start
        chunk_slew, chunk_load = q_slew[start:stop], q_load[start:stop]
        values = tables.interpolate(
            ids[start:stop].T.ravel(),
            np.concatenate([chunk_slew, chunk_slew]),
            np.concatenate([chunk_load, chunk_load]),
        )
        out[start:stop] = np.maximum(values[:size], values[size:])
    return out
