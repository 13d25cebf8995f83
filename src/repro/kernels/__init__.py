"""Batched numerical kernels with a bit-identical scalar reference.

The repo's two hot loops — Monte-Carlo characterization and statistical
STA — each exist as a ``"vectorized"`` production kernel (whole-tensor
characterization, whole-level gather interpolation) and a ``"scalar"``
reference kernel (one surrogate/lookup call per element).  The active
kernel is selected via :func:`set_kernel` / :func:`use_kernel` (or
``FlowConfig(kernel=...)`` / ``REPRO_KERNEL`` / ``--kernel``); results
are bit-identical either way, so the choice never enters a fingerprint
or cache key.  See DESIGN.md §14 and ``tests/kernels``.
"""

from repro.kernels.dispatch import (
    DEFAULT_KERNEL,
    KERNEL_NAMES,
    get_kernel,
    resolve_kernel,
    set_kernel,
    use_kernel,
    validate_kernel,
)
from repro.kernels.lut import LutBatch, batch_interpolate, interpolate_many_scalar
from repro.kernels.characterization import scalar_arc_energy, scalar_arc_tables
from repro.kernels.sta import LibraryTables, library_tables, worst_values

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_NAMES",
    "LibraryTables",
    "LutBatch",
    "batch_interpolate",
    "get_kernel",
    "interpolate_many_scalar",
    "library_tables",
    "resolve_kernel",
    "scalar_arc_energy",
    "scalar_arc_tables",
    "set_kernel",
    "use_kernel",
    "validate_kernel",
    "worst_values",
]
