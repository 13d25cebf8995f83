"""Compiled library tables: every timing LUT of a library, one gather.

STA, the sizer and the statistics stage all ask one question many
times over: the worst (max of rise/fall) value of an arc's delay,
transition or sigma tables at a (slew, load) point.
:class:`LibraryTables` compiles a :class:`~repro.liberty.model.Library`
once — :func:`library_tables` caches it per library object:

* every timing LUT of every arc is stacked into a
  :class:`~repro.kernels.lut.LutBatch` (one per table shape; one
  characterizer grid yields exactly one), addressed by a table id,
  and every table's slew axis is padded to the widest shape
  (:attr:`LibraryTables.slew_axes`) so tables of any shape share one
  slew half;
* every arc gets a row, and per kind (``delay``, ``transition``,
  ``sigma``) a pair of table ids — rise then fall.  An arc with a
  single table of a kind repeats its id (``max(x, x) == x``), an arc
  without any stores ``-1``.

:func:`worst_values` then resolves any number of (table pair, slew,
load) queries: both tables of every query in one gather interpolation,
then ``np.maximum(first, second)``.  :func:`worst_values_scalar` is its
reference — one scalar bilinear lookup per table per query, max-merged
the same way.

The STA engine asks the same (arc, load) questions pass after pass at
new slews.  A :class:`LoadSide` holds the load half of such a fixed
list of arcs — per arc, its four delay/transition tables interpolated
along their load axes, and their slew axes — and
:func:`worst_arc_values` runs the slew half on a slice of it,
max-merged in pairs;
:func:`worst_arc_values_scalar` is its reference.  Max-merging is
exact and every path uses identical interpolation arithmetic, so
results are bit-identical — ``tests/kernels`` substitutes the
references at every call site and holds the gathers to them.  A
library is treated as immutable once compiled: every producer
finishes building it before it is timed.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import LibertyError
from repro.kernels.lut import LutBatch, load_columns, slew_blend
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
                 "slew_axes", "_batches", "_batch_of", "_local")

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
        width = max((shape[0] for shape in by_shape), default=2)
        #: (T, width) slew axis per table id, padded at its end by
        #: repeating its last point (see :func:`~repro.kernels.lut.slew_blend`).
        self.slew_axes = np.empty((len(self.luts), width))
        for batch, tids in zip(self._batches, by_shape.values()):
            n_slew = batch.slew_axes.shape[1]
            self.slew_axes[tids, :n_slew] = batch.slew_axes
            self.slew_axes[tids, n_slew:] = batch.slew_axes[:, -1:]

    def row(self, cell_name: str, output_pin: str, related_pin: str) -> int:
        """Arc row of ``cell_name``'s ``related_pin -> output_pin`` arc."""
        try:
            return self.rows[(cell_name, output_pin, related_pin)]
        except KeyError:
            raise LibertyError(
                f"cell {cell_name}: no arc {related_pin} -> {output_pin}"
            ) from None

    def load_columns(self, table_ids: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """``(Q, width)`` load half of table ``table_ids[q]`` at
        ``loads[q]``, padded like :attr:`slew_axes`."""
        if len(self._batches) == 1:
            return load_columns(self._batches[0], table_ids, loads)
        width = self.slew_axes.shape[1]
        out = np.empty((table_ids.size, width))
        which = self._batch_of[table_ids]
        for index, batch in enumerate(self._batches):
            mask = which == index
            if mask.any():
                columns = load_columns(batch, self._local[table_ids[mask]], loads[mask])
                out[mask] = np.pad(
                    columns, ((0, 0), (0, width - columns.shape[1])), mode="edge"
                )
        return out

    def interpolate(
        self, table_ids: np.ndarray, slews: np.ndarray, loads: np.ndarray
    ) -> np.ndarray:
        """Gather-interpolate table ``table_ids[q]`` at each query ``q``."""
        return slew_blend(
            self.slew_axes[table_ids], self.load_columns(table_ids, loads), slews
        )


_COMPILED: "weakref.WeakKeyDictionary[Library, LibraryTables]" = (
    weakref.WeakKeyDictionary()
)


def library_tables(library: Library) -> LibraryTables:
    """The compiled tables of ``library``, built on first use."""
    tables = _COMPILED.get(library)
    if tables is None:
        tables = _COMPILED[library] = LibraryTables(library)
    return tables


def _queries(
    pairs: np.ndarray, slews: np.ndarray, loads: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (ids, slews, loads) query arrays, validated for alignment."""
    ids = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    q_slew = np.asarray(slews, dtype=float).ravel()
    q_load = np.asarray(loads, dtype=float).ravel()
    if ids.shape[0] != q_slew.size or q_slew.size != q_load.size:
        raise LibertyError("table pairs and query points must align")
    if ids.size and ids.min() < 0:
        raise LibertyError("cannot interpolate an arc without tables")
    return ids, q_slew, q_load


def worst_values(
    tables: LibraryTables,
    pairs: np.ndarray,
    slews: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """Per query ``q``: max of tables ``pairs[q]`` at ``(slews[q], loads[q])``.

    ``pairs`` is a ``(Q, 2)`` array of table ids (rows of
    :attr:`LibraryTables.delay` and friends); the result is bit-identical
    to :func:`worst_values_scalar`.
    """
    ids, q_slew, q_load = _queries(pairs, slews, loads)
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


class LoadSide:
    """The load half of a fixed list of arc lookups, kept between passes.

    Row ``r`` is one arc at one load: its four table ids (delay rise
    and fall, transition rise and fall, as
    :attr:`~repro.sta.graph.TimingGraph.arc_tables` holds them), its
    load, per table the column :meth:`LibraryTables.load_columns`
    interpolates at that load and the table's (padded) slew axis —
    ``columns`` and ``slew_axes`` are ``(rows, 4, width)``.  The slew
    half (:func:`worst_arc_values`) then needs only the arcs' input
    slews.
    """

    __slots__ = ("table_ids", "loads", "columns", "slew_axes")

    def __init__(self, tables: LibraryTables, table_ids: np.ndarray, loads: np.ndarray) -> None:
        self.table_ids = table_ids
        self.loads = loads
        self.columns = tables.load_columns(
            table_ids.ravel(), np.repeat(loads, 4)
        ).reshape(loads.size, 4, tables.slew_axes.shape[1])
        self.slew_axes = tables.slew_axes[table_ids]

    def write(self, rows: np.ndarray, fresh: "LoadSide") -> None:
        """Overwrite ``rows`` with ``fresh``'s rows, in order, in place."""
        for name in LoadSide.__slots__:
            getattr(self, name)[rows] = getattr(fresh, name)


def worst_arc_values(
    tables: LibraryTables, side: LoadSide, rows: slice, slews: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Worst delay and transition of ``side``'s ``rows`` at input slews
    ``slews``: the slew half of each table, then the rise/fall max.

    Bit-identical to :func:`worst_arc_values_scalar`.
    """
    values = slew_blend(side.slew_axes[rows], side.columns[rows], slews[:, None])
    return (
        np.maximum(values[:, 0], values[:, 1]),
        np.maximum(values[:, 2], values[:, 3]),
    )


def worst_arc_values_scalar(
    tables: LibraryTables, side: LoadSide, rows: slice, slews: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference for :func:`worst_arc_values`: one scalar lookup per
    table at the row's load, max-merged."""
    table_ids, loads = side.table_ids[rows], side.loads[rows]
    return (
        worst_values_scalar(tables, table_ids[:, :2], slews, loads),
        worst_values_scalar(tables, table_ids[:, 2:], slews, loads),
    )


def worst_values_scalar(
    tables: LibraryTables,
    pairs: np.ndarray,
    slews: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """Reference for :func:`worst_values`: one scalar lookup per table."""
    ids, q_slew, q_load = _queries(pairs, slews, loads)
    luts = tables.luts
    out = np.empty(q_slew.size)
    for query, (first, second) in enumerate(ids.tolist()):
        slew, load = float(q_slew[query]), float(q_load[query])
        out[query] = np.maximum(
            bilinear_interpolate(luts[first], slew, load),
            bilinear_interpolate(luts[second], slew, load),
        )
    return out
