"""Batched bilinear LUT interpolation (the STA hot path, vectorized).

:func:`~repro.liberty.lut.bilinear_interpolate_many` evaluates *one*
table at many query points.  The STA engine, however, needs *many
tables* at many points — every arc of a topological level carries its
own delay/transition LUTs over its own (per-cell) load axis.
:class:`LutBatch` stacks same-shape tables into gatherable arrays
(:class:`~repro.kernels.sta.LibraryTables` builds one per table shape
of a library) so many lookups resolve in one gather-based
interpolation.

The lookup is split in two halves.  :func:`load_columns` — the load
half — clamps, brackets and blends each table along its load axis:
one value per slew point, the table's column at that load.
:func:`slew_blend` — the slew half — clamps, brackets and blends such
a column along its slew axis.  :func:`batch_interpolate` is the one
applied to the other.  The load half depends only on the load, so a
caller that evaluates the same (table, load) at changing slews — the
STA engine, pass after pass — keeps the columns and runs only the
slew half.

Bit-identity with the scalar reference is by construction:

* ``searchsorted(axis, v, side="left")`` equals the count of axis
  entries strictly below ``v``; clipped to ``[1, n - 1]`` that is one
  plus the count of interior entries below ``v``, which is what the
  batched bracket sums column by column;
* clamping, the interpolation fractions and the blend are written as
  the *same* elementwise expressions as the scalar path — a column
  entry is the scalar path's ``top`` or ``bot``, and the slew half
  blends two of them as it blends ``top`` and ``bot`` — and IEEE-754
  elementwise arithmetic does not depend on array shape.

:func:`interpolate_many_scalar` is the honest reference the property
tests pin both implementations to: one
:func:`~repro.liberty.lut.bilinear_interpolate` call per element.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import LibertyError
from repro.liberty.lut import bilinear_interpolate
from repro.liberty.model import Lut


class LutBatch:
    """A stack of same-shape LUTs addressable by table id.

    Axes may differ between tables (the load grid is per-cell); only
    the *shape* must agree so the stacked arrays are rectangular.
    """

    __slots__ = ("slew_axes", "load_points", "columns")

    def __init__(self, tables: Sequence[Lut]) -> None:
        if not tables:
            raise LibertyError("LutBatch needs at least one table")
        shape = tables[0].values.shape
        for table in tables[1:]:
            if table.values.shape != shape:
                raise LibertyError(
                    f"LutBatch tables must share one grid shape; got "
                    f"{table.values.shape} vs {shape}"
                )
        #: (T, n_slew) input-slew axes, one row per table.
        self.slew_axes = np.stack([table.index_1 for table in tables])
        #: (n_load, T) output-load axes, one column per table: row ``j``
        #: holds every table's ``j``-th load point.
        self.load_points = np.stack([table.index_2 for table in tables], axis=1)
        #: (n_load * T, n_slew) table values: row ``j * T + t`` is table
        #: ``t``'s values at its ``j``-th load point, along the slew axis.
        self.columns = (
            np.array([table.values.T for table in tables])
            .transpose(1, 0, 2)
            .reshape(-1, shape[0])
        )

    def __len__(self) -> int:
        return int(self.slew_axes.shape[0])


def batch_interpolate(
    batch: LutBatch,
    table_ids: np.ndarray,
    slews: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """Interpolate ``batch.values[table_ids[q]]`` at each query ``q``.

    ``table_ids``, ``slews`` and ``loads`` are flat, equally long query
    arrays; the result is the per-query interpolated value, bit-identical
    to calling :func:`~repro.liberty.lut.bilinear_interpolate_many` (or
    the scalar lookup) table by table.  It is the slew half
    (:func:`slew_blend`) of the load half (:func:`load_columns`).
    """
    tid = np.asarray(table_ids, dtype=np.intp)
    return slew_blend(
        batch.slew_axes[tid],
        load_columns(batch, tid, loads),
        np.asarray(slews, dtype=float),
    )


def load_columns(
    batch: LutBatch, table_ids: np.ndarray, loads: np.ndarray
) -> np.ndarray:
    """The load half: table ``table_ids[q]`` interpolated along its load
    axis at ``loads[q]``, one value per slew-axis point — ``(Q, n_slew)``.

    Row ``i`` of a query's column is ``top``/``bot`` of the bilinear
    lookup at slew bracket ``i``: the same clamp, bracket, fraction and
    expression as the scalar path.
    """
    tid = np.asarray(table_ids, dtype=np.intp)
    points = batch.load_points
    load = np.clip(
        np.asarray(loads, dtype=float),
        np.take(points[0], tid),
        np.take(points[-1], tid),
    )
    # the bracket as in _upper_index, one load point at a time; then
    # ``j * T + t``, a flat index of ``points`` and a row of ``columns``
    upper = np.ones(tid.size, dtype=np.intp)
    for point in points[1:-1]:
        upper += np.take(point, tid) < load
    upper *= len(batch)
    upper += tid
    lower = upper - len(batch)
    l0, l1 = np.take(points, lower), np.take(points, upper)
    tl = ((load - l0) / (l1 - l0))[:, None]
    low = np.take(batch.columns, lower, axis=0)
    high = np.take(batch.columns, upper, axis=0)
    low *= 1.0 - tl
    high *= tl
    low += high
    return low


def slew_blend(
    slew_axes: np.ndarray, columns: np.ndarray, slews: np.ndarray
) -> np.ndarray:
    """The slew half: interpolate each load-interpolated column along
    its slew axis.

    ``slew_axes`` and ``columns`` are ``(..., n_slew)``; ``slews``
    broadcasts against their leading shape, which is the result's.
    Clamp, bracket, fraction and blend are the scalar path's
    expressions.  An axis padded at its end by repeating its last
    point (and its column likewise) interpolates as the unpadded one:
    a clamped slew never lies above the last point, so the bracket
    never reaches the padding.
    """
    n = slew_axes.shape[-1]
    s = np.clip(slews, slew_axes[..., 0], slew_axes[..., -1])
    upper = _upper_index(slew_axes, s).ravel()
    upper += np.arange(0, upper.size * n, n)
    lower = upper - 1
    axes, values = slew_axes.reshape(-1), columns.reshape(-1)
    s0 = axes[lower]
    ts = (s.ravel() - s0) / (axes[upper] - s0)
    top = values[lower]
    top *= 1.0 - ts
    bot = values[upper]
    bot *= ts
    top += bot
    return top.reshape(s.shape)


def _upper_index(axes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise ``clip(searchsorted(axis, v, side="left"), 1, n - 1)``.

    ``axes`` is ``(..., n)``, ``values`` its leading shape.  That is one
    plus the count of *interior* axis points strictly below ``v``;
    summed one axis column at a time, so the temporaries stay one
    query long instead of ``(Q, n)``.
    """
    upper = np.empty(values.shape, dtype=np.intp)
    upper.fill(1)
    for column in range(1, axes.shape[-1] - 1):
        upper += axes[..., column] < values
    return upper


def interpolate_many_scalar(
    lut: Lut, slews: np.ndarray, loads: np.ndarray
) -> np.ndarray:
    """Reference: one scalar ``bilinear_interpolate`` call per element.

    Broadcasts ``slews`` against ``loads`` exactly like the vectorized
    :func:`~repro.liberty.lut.bilinear_interpolate_many`, then walks
    the broadcast elementwise.
    """
    s, load = np.broadcast_arrays(
        np.asarray(slews, dtype=float), np.asarray(loads, dtype=float)
    )
    out = np.empty(s.shape)
    flat = out.ravel()
    flat_s = s.ravel()
    flat_l = load.ravel()
    for index in range(flat_s.size):
        flat[index] = bilinear_interpolate(
            lut, float(flat_s[index]), float(flat_l[index])
        )
    return out
