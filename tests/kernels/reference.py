"""The scalar reference, substituted at the batched call sites.

Production always runs the batched kernels; the scalar references in
:mod:`repro.kernels` are plain functions nothing in ``src/repro`` can
switch to.  Tests reach them by substitution: :func:`reference_kernels`
rebinds each call site below to its reference for the duration of a
``with`` block, so the reference run shares everything around the
seam — draw composition, library assembly, level scheduling, path
roll-ups — with production, and only the evaluation differs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.kernels.characterization import scalar_arc_energy, scalar_arc_tables
from repro.kernels.sta import worst_arc_values_scalar, worst_values_scalar

#: (module, name bound there, reference) per batched call site.
REFERENCE_SITES = (
    ("repro.characterization.characterize", "batched_arc_tables", scalar_arc_tables),
    ("repro.characterization.characterize", "batched_arc_energy", scalar_arc_energy),
    ("repro.sta.engine", "worst_arc_values", worst_arc_values_scalar),
    ("repro.sta.engine", "worst_values", worst_values_scalar),
    ("repro.sta.statistics", "worst_values", worst_values_scalar),
    ("repro.synth.synthesizer", "worst_values", worst_values_scalar),
)


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the block on the scalar references; restored on exit.

    Process-backend workers fork from the patched parent, so fan-out
    inside the block runs the references too.
    """
    with pytest.MonkeyPatch.context() as patch:
        for module, name, reference in REFERENCE_SITES:
            patch.setattr(f"{module}.{name}", reference)
        yield
