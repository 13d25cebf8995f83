"""Statistical path/design analysis (paper Sec. V).

Each path step's delay distribution is read from the statistical
library: mean from the (mean) delay tables the STA already used, sigma
from the ``sigma_rise``/``sigma_fall`` tables, both bilinearly
interpolated at the step's (input slew, output load) — eqs. (2)-(4).

Convolution along a path (Sec. V.B):

* mean: ``mu_path = sum(mu_cell)``                      (eq. 5)
* general variance with equal pairwise correlation rho  (eq. 9)::

      sigma_path^2 = sum_i sigma_i^2 + rho * sum_{i != j} sigma_i sigma_j

* the paper argues local variations are uncorrelated (rho = 0),
  reducing to ``sigma_path = sqrt(sum sigma_i^2)``      (eq. 10)

Design roll-up over the worst paths per unique endpoint (eq. 11)::

      mu_design = sum(mu_path),  sigma_design = sqrt(sum sigma_path^2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import TimingError
from repro.kernels.sta import library_tables, worst_values
from repro.liberty.model import Library
from repro.sta.paths import STEP_NAMES, PathStep, TimingPath, WorstPaths


def _step_sigmas(library: Library, steps: Sequence[PathStep]) -> Tuple[float, ...]:
    """Sigmas (worst of rise/fall tables) of steps, in one kernel call."""
    if not steps:
        return ()
    tables = library_tables(library)
    rows = [
        tables.row(step.cell_name, step.out_pin, step.related_pin) for step in steps
    ]
    pairs = tables.sigma[np.asarray(rows, dtype=np.intp)]
    if pairs.size and pairs.min() < 0:
        missing = steps[int(np.flatnonzero(pairs.min(axis=1) < 0)[0])]
        raise TimingError(
            f"cell {missing.cell_name} has no sigma tables; statistical "
            "analysis needs the statistical library"
        )
    values = worst_values(
        tables,
        pairs,
        np.array([step.slew for step in steps], dtype=float),
        np.array([step.load for step in steps], dtype=float),
    )
    return tuple(values.tolist())


def step_sigma(library: Library, step: PathStep) -> float:
    """Delay sigma of one path step (worst of rise/fall tables)."""
    return _step_sigmas(library, [step])[0]


@dataclass(frozen=True)
class PathStatistics:
    """Mean/sigma of one path's delay distribution."""

    mean: float
    sigma: float
    depth: int
    #: Per-step sigmas (for Fig. 14-style mean + 3 sigma plots).
    step_sigmas: tuple

    @property
    def three_sigma(self) -> float:
        """mu + 3 sigma — the paper's robustness view of a path."""
        return self.mean + 3.0 * self.sigma


def path_sigma_correlated(step_sigmas: Sequence[float], rho: float) -> float:
    """Eq. (9): path sigma under equal pairwise correlation ``rho``."""
    if not -1.0 <= rho <= 1.0:
        raise TimingError(f"correlation must be in [-1, 1], got {rho}")
    sigmas = np.asarray(step_sigmas, dtype=float)
    variance = float((sigmas**2).sum())
    if rho != 0.0:
        cross = float(sigmas.sum()) ** 2 - float((sigmas**2).sum())
        variance += rho * cross
    if variance < 0:
        raise TimingError("negative path variance (rho too negative)")
    return float(np.sqrt(variance))


def path_statistics(
    path: TimingPath,
    library: Library,
    rho: float = 0.0,
) -> PathStatistics:
    """Mean and sigma of a path (eqs. 5, 9/10)."""
    sigmas = _step_sigmas(library, path.steps)
    mean = float(sum(step.delay for step in path.steps))
    return PathStatistics(
        mean=mean,
        sigma=path_sigma_correlated(sigmas, rho),
        depth=path.depth,
        step_sigmas=sigmas,
    )


@dataclass(frozen=True)
class DesignStatistics:
    """Design-level roll-up over worst paths per endpoint (eq. 11)."""

    mean: float
    sigma: float
    n_paths: int
    path_stats: tuple

    @property
    def step_sigma(self) -> np.ndarray:
        """Every path step's sigma, in path order: what
        :func:`fold_statistics` folds back into these statistics."""
        return np.array(
            [sigma for path in self.path_stats for sigma in path.step_sigmas],
            dtype=float,
        )


def _sigma_pairs(library: Library, paths: WorstPaths) -> np.ndarray:
    """Per step of ``paths``: its arc's rise/fall sigma table ids.

    Each distinct (cell, output pin, related pin) resolves once; a
    missing arc or sigma table raises for the first step (in path
    order) that lacks it, as :func:`_step_sigmas` does."""
    tables = library_tables(library)
    columns = [STEP_NAMES.index(name) for name in ("cell_name", "out_pin", "related_pin")]
    cell, out, related = paths.names[:, columns].T
    size = paths.strings.size
    _, first, inverse = np.unique(
        (cell * size + out) * size + related, return_index=True, return_inverse=True
    )
    keys = paths.strings[paths.names[first][:, columns]].tolist()
    rows = np.array([tables.rows.get(tuple(key), -1) for key in keys], dtype=np.intp)[inverse]
    if rows.size and rows.min() < 0:
        tables.row(*keys[inverse[np.flatnonzero(rows < 0)[0]]])
    pairs = tables.sigma[rows]
    if pairs.size and pairs.min() < 0:
        missing = paths.names[np.flatnonzero(pairs.min(axis=1) < 0)[0], columns[0]]
        raise TimingError(
            f"cell {paths.strings[missing]} has no sigma tables; statistical "
            "analysis needs the statistical library"
        )
    return pairs


def path_step_sigmas(paths: WorstPaths, library: Library) -> np.ndarray:
    """Every step's sigma (worst of its rise/fall tables at the step's
    slew and load), in path order, from one kernel call."""
    if not paths.delay.size:
        return np.zeros(0)
    return worst_values(
        library_tables(library), _sigma_pairs(library, paths), paths.slew, paths.load
    )


def fold_statistics(
    paths: WorstPaths, step_sigma: np.ndarray, rho: float = 0.0
) -> DesignStatistics:
    """Eq. (11) over the given worst paths, from their step sigmas.

    Each path folds its steps as :func:`path_statistics` does (a
    left-to-right sum of the delays, :func:`path_sigma_correlated` of
    the sigmas), and the design sums the path means and ``sigma**2``
    left to right.  A stored run rebuilds its statistics here, from
    the step sigmas it holds.
    """
    if not len(paths):
        raise TimingError("design statistics need at least one path")
    sigmas, delays = step_sigma.tolist(), paths.delay.tolist()
    bounds = paths.offsets.tolist()
    stats: List[PathStatistics] = []
    for start, end in zip(bounds, bounds[1:]):
        stats.append(
            PathStatistics(
                mean=float(sum(delays[start:end])),
                sigma=path_sigma_correlated(step_sigma[start:end], rho),
                depth=end - start,
                step_sigmas=tuple(sigmas[start:end]),
            )
        )
    mean = float(sum(p.mean for p in stats))
    sigma = float(np.sqrt(sum(p.sigma**2 for p in stats)))
    return DesignStatistics(
        mean=mean, sigma=sigma, n_paths=len(stats), path_stats=tuple(stats)
    )


def design_statistics(
    paths: WorstPaths,
    library: Library,
    rho: float = 0.0,
) -> DesignStatistics:
    """Eq. (11) over the given worst paths: the library lookup of
    every step's sigma (:func:`path_step_sigmas`), then
    :func:`fold_statistics`."""
    if not len(paths):
        raise TimingError("design statistics need at least one path")
    return fold_statistics(paths, path_step_sigmas(paths, library), rho)
