"""Fig. 2 — statistical-library construction (paper Sec. IV).

Runs the literal process: N Monte-Carlo libraries, per-entry collection
into a temporary table, mean/sigma extraction — and verifies it against
the vectorized path on a sample of cells/entries.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentContext, ExperimentResult
from repro.statlib.builder import build_statistical_library


def run(
    context: ExperimentContext, n_samples: int = 20, n_cells: int = 4, seed: int = 2
) -> ExperimentResult:
    """Combine N sample libraries for a handful of cells and report the
    marked-entry walk of Fig. 2."""
    flow = context.flow
    specs = [
        s for s in flow.specs
        if s.name in ("INV_1", "INV_8", "ND2_2", "NR2_2", "ADDF_4")
    ][:n_cells]
    libraries = flow.sample_libraries(specs, n_samples, seed)
    statistical = build_statistical_library(libraries)
    direct = flow.library_stage("stat", specs, n_samples, seed)

    rows = []
    max_error = 0.0
    for spec in specs:
        arc = statistical.cell(spec.name).output_pins()[0].timing[0]
        entries = np.array([
            lib.cell(spec.name).output_pins()[0].timing[0].cell_fall.values[0, 0]
            for lib in libraries
        ])
        direct_arc = direct.cell(spec.name).output_pins()[0].timing[0]
        max_error = max(
            max_error,
            float(np.abs(direct_arc.sigma_fall.values - arc.sigma_fall.values).max()),
        )
        rows.append({
            "cell": spec.name,
            "entry_mean": float(entries.mean()),
            "entry_sigma": float(entries.std(ddof=1)),
            "lib_mean[0,0]": float(arc.cell_fall.values[0, 0]),
            "lib_sigma[0,0]": float(arc.sigma_fall.values[0, 0]),
            "n_libs": n_samples,
        })
    return ExperimentResult(
        experiment_id="fig02",
        title="Statistical library: per-entry mean/sigma over N MC libraries",
        rows=rows,
        notes=f"combine-vs-direct max |dsigma| = {max_error:.2e} (must be ~0)",
    )
