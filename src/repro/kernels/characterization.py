"""Scalar-reference characterization kernels.

The characterizer evaluates one broadcast expression per arc — a
(samples x slew x load) tensor in a single
:func:`~repro.characterization.characterize.batched_arc_tables` /
:func:`~repro.characterization.characterize.batched_arc_energy` call.
The functions here are the honest scalar counterpart, with the same
signatures: the *same* surrogate model invoked once per (sample, grid
point) with 0-d inputs.  Production never calls them; tests substitute
them for the batched functions (``tests/kernels/reference.py``).

Because NumPy elementwise arithmetic is performed per element with the
same IEEE-754 operations regardless of array shape, the scalar loops
fill a C-contiguous (N, n_slew, n_load) tensor whose every entry — and
therefore every downstream ``mean(axis=0)`` / ``std(axis=0)``
reduction — is bit-identical to the broadcast tensor.  ``tests/kernels``
enforces exactly that.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cells.catalog import CellSpec
from repro.characterization.characterize import ArrayLike
from repro.characterization.delaymodel import ArcTables, GateDelayModel
from repro.characterization.power import PowerModel


def _as_sample_vectors(
    *variations: ArrayLike,
) -> Tuple[Tuple[np.ndarray, ...], bool]:
    """Broadcast variation inputs to a common (N,) sample axis.

    Returns the vectors and whether any input actually carried a sample
    axis (scalar-only inputs collapse to N=1 and an unbatched result).
    """
    batched = any(np.ndim(value) > 0 for value in variations)
    vectors = np.broadcast_arrays(
        *[np.atleast_1d(np.asarray(value, dtype=float)) for value in variations]
    )
    return tuple(vectors), batched


def scalar_arc_tables(
    model: GateDelayModel,
    spec: CellSpec,
    output_pin: str,
    rise: bool,
    slew_axis: np.ndarray,
    load_axis: np.ndarray,
    dvth: ArrayLike = 0.0,
    dbeta: ArrayLike = 0.0,
    dlength_rel: ArrayLike = 0.0,
) -> ArcTables:
    """Reference arc tensors: one surrogate call per (sample, point).

    Shapes mirror the broadcast path: (n_slew, n_load) with scalar
    variation, (N, n_slew, n_load) with an (N,)-shaped variation axis.
    """
    (dvth_v, dbeta_v, dlen_v), batched = _as_sample_vectors(
        dvth, dbeta, dlength_rel
    )
    n_samples = dvth_v.shape[0]
    shape = (n_samples, slew_axis.size, load_axis.size)
    delay = np.empty(shape)
    transition = np.empty(shape)
    for k in range(n_samples):
        for i in range(slew_axis.size):
            for j in range(load_axis.size):
                tables = model.arc_tables(
                    spec,
                    output_pin,
                    rise,
                    slews=np.asarray(slew_axis[i]),
                    loads=np.asarray(load_axis[j]),
                    dvth=float(dvth_v[k]),
                    dbeta=float(dbeta_v[k]),
                    dlength_rel=float(dlen_v[k]),
                )
                delay[k, i, j] = tables.delay
                transition[k, i, j] = tables.transition
    if not batched:
        return ArcTables(delay=delay[0], transition=transition[0])
    return ArcTables(delay=delay, transition=transition)


def scalar_arc_energy(
    model: PowerModel,
    spec: CellSpec,
    output_pin: str,
    rise: bool,
    slew_axis: np.ndarray,
    load_axis: np.ndarray,
    dvth: ArrayLike = 0.0,
    dbeta: ArrayLike = 0.0,
) -> np.ndarray:
    """Reference switching-energy tensor, one model call per point."""
    (dvth_v, dbeta_v), batched = _as_sample_vectors(dvth, dbeta)
    n_samples = dvth_v.shape[0]
    energy = np.empty((n_samples, slew_axis.size, load_axis.size))
    for k in range(n_samples):
        for i in range(slew_axis.size):
            for j in range(load_axis.size):
                energy[k, i, j] = model.arc_energy(
                    spec,
                    output_pin,
                    rise,
                    slews=np.asarray(slew_axis[i]),
                    loads=np.asarray(load_axis[j]),
                    dvth=float(dvth_v[k]),
                    dbeta=float(dbeta_v[k]),
                )
    if not batched:
        return np.asarray(energy[0])
    return energy
