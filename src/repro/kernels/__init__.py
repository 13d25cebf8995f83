"""Batched numerical kernels, each with a bit-identical scalar reference.

The repo's two hot loops — Monte-Carlo characterization and statistical
STA — run as batched kernels: whole (samples x slew x load) tensors per
arc, whole-level gather interpolation over compiled library tables.
Each keeps its scalar counterpart as a plain function (one surrogate
call or one bilinear lookup per element): :func:`scalar_arc_tables`,
:func:`scalar_arc_energy`, :func:`interpolate_many_scalar`,
:func:`worst_values_scalar` and :func:`worst_arc_values_scalar`.
Production never calls them; the test suite substitutes them at the
batched call sites and holds every library, STA array and statistic
bit-identical (DESIGN.md §14, ``tests/kernels``).
"""

from repro.kernels.lut import LutBatch, batch_interpolate, interpolate_many_scalar
from repro.kernels.characterization import scalar_arc_energy, scalar_arc_tables
from repro.kernels.sta import (
    LibraryTables,
    LoadSide,
    library_tables,
    worst_arc_values,
    worst_arc_values_scalar,
    worst_values,
    worst_values_scalar,
)

__all__ = [
    "LibraryTables",
    "LoadSide",
    "LutBatch",
    "batch_interpolate",
    "interpolate_many_scalar",
    "library_tables",
    "scalar_arc_energy",
    "scalar_arc_tables",
    "worst_arc_values",
    "worst_arc_values_scalar",
    "worst_values",
    "worst_values_scalar",
]
