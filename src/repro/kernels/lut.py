"""Batched bilinear LUT interpolation (the STA hot path, vectorized).

:func:`~repro.liberty.lut.bilinear_interpolate_many` evaluates *one*
table at many query points.  The STA engine, however, needs *many
tables* at many points — every arc of a topological level carries its
own delay/transition LUTs over its own (per-cell) load axis.
:class:`LutBatch` stacks same-shape tables into one (T, n_slew, n_load)
array (:class:`~repro.kernels.sta.LibraryTables` builds one per library)
so a whole level resolves in a single gather-based interpolation.

Bit-identity with the scalar reference is by construction:

* ``searchsorted(axis, v, side="left")`` equals the count of axis
  entries strictly below ``v``; clipped to ``[1, n - 1]`` that is one
  plus the count of interior entries below ``v``, which is what the
  batched bracket sums column by column;
* clamping, the interpolation fractions and the blend are written as
  the *same* elementwise expressions as the scalar path, and IEEE-754
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

    __slots__ = ("slew_axes", "load_axes", "values")

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
        #: (T, n_load) output-load axes, one row per table.
        self.load_axes = np.stack([table.index_2 for table in tables])
        #: (T, n_slew, n_load) table values.
        self.values = np.stack([table.values for table in tables])

    def __len__(self) -> int:
        return int(self.values.shape[0])


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
    the scalar lookup) table by table.
    """
    tid = np.asarray(table_ids, dtype=np.intp)
    slews = np.asarray(slews, dtype=float)
    loads = np.asarray(loads, dtype=float)
    s_axes, l_axes = batch.slew_axes, batch.load_axes
    s = np.clip(slews, s_axes[tid, 0], s_axes[tid, -1])
    load = np.clip(loads, l_axes[tid, 0], l_axes[tid, -1])

    si = _upper_index(s_axes, tid, s)
    li = _upper_index(l_axes, tid, load)
    s0, s1 = s_axes[tid, si - 1], s_axes[tid, si]
    l0, l1 = l_axes[tid, li - 1], l_axes[tid, li]
    ts = (s - s0) / (s1 - s0)
    tl = (load - l0) / (l1 - l0)

    v = batch.values
    q00 = v[tid, si - 1, li - 1]
    q01 = v[tid, si - 1, li]
    q10 = v[tid, si, li - 1]
    q11 = v[tid, si, li]
    top = q00 * (1.0 - tl) + q01 * tl
    bot = q10 * (1.0 - tl) + q11 * tl
    return top * (1.0 - ts) + bot * ts


def _upper_index(axes: np.ndarray, tid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise ``clip(searchsorted(axis, v, side="left"), 1, n - 1)``.

    That is one plus the count of *interior* axis points strictly below
    ``v``; summed one axis column at a time, so the temporaries stay one
    query long instead of ``(Q, n)``.
    """
    upper = np.ones(tid.shape, dtype=np.intp)
    for column in range(1, axes.shape[1] - 1):
        upper += axes[tid, column] < values
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
