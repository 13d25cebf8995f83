"""Table 2 — constraint parameters used during threshold extraction.

Static by design: the values are the paper's, and the experiment
verifies their intended qualitative behaviour — the default leaves the
LUTs uncut, tighter values cut progressively more.
"""

from __future__ import annotations

from repro.core.methods import DEFAULT_BOUNDS, SWEEP_VALUES
from repro.core.tuner import LibraryTuner
from repro.experiments.base import ExperimentContext, ExperimentResult


def _mean_window_fraction(result, tuner: LibraryTuner) -> float:
    """Average usable LUT-area fraction across pins (1.0 = untouched),
    on each pin's equivalent sigma LUT (the tuner's :class:`PinSigma`
    row)."""
    rows = {key: row for row, key in enumerate(tuner.pin_keys)}
    total, count = 0.0, 0
    for key, window in result.windows.items():
        slews, loads, size = tuner.sigma.grid(rows[key])
        count += 1
        if window is None:
            continue
        kept_slews = ((slews >= window.min_slew) & (slews <= window.max_slew)).sum()
        kept_loads = ((loads >= window.min_load) & (loads <= window.max_load)).sum()
        total += kept_slews * kept_loads / size
    return total / count


def run(context: ExperimentContext) -> ExperimentResult:
    """Build this experiment's rows (see the module docstring)."""
    library = context.flow.statistical_library
    tuner = LibraryTuner(library)
    rows = []
    for kind, method in (
        ("load_slope", "cell_load_slope"),
        ("slew_slope", "cell_slew_slope"),
        ("sigma_ceiling", "sigma_ceiling"),
    ):
        for value in SWEEP_VALUES[kind]:
            result = tuner.tune(method, value)
            rows.append({
                "bound": kind,
                "value": value,
                "default": DEFAULT_BOUNDS[kind],
                "usable_lut_fraction": round(
                    _mean_window_fraction(result, tuner), 3
                ),
                "cells_excluded": len(result.excluded_cells),
            })
    return ExperimentResult(
        experiment_id="table2",
        title="Constraint parameters (paper Table 2) and their bite",
        rows=rows,
        notes=(
            "defaults (load 1 / slew 0.06 / ceiling 100) leave LUTs "
            "essentially uncut; tighter values remove progressively more"
        ),
    )
