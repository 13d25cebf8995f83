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
from repro.sta.paths import PathStep, TimingPath


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

    def to_payload(self) -> dict:
        """JSON-serializable rendering (artifact pipeline)."""
        return {
            "mean": self.mean,
            "sigma": self.sigma,
            "depth": self.depth,
            "step_sigmas": list(self.step_sigmas),
        }

    @staticmethod
    def from_payload(payload: dict) -> "PathStatistics":
        """Rebuild statistics stored with :meth:`to_payload`."""
        return PathStatistics(
            mean=float(payload["mean"]),
            sigma=float(payload["sigma"]),
            depth=int(payload["depth"]),
            step_sigmas=tuple(float(s) for s in payload["step_sigmas"]),
        )


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
    return _path_statistics(path, _step_sigmas(library, path.steps), rho)


def _path_statistics(
    path: TimingPath, sigmas: Tuple[float, ...], rho: float
) -> PathStatistics:
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
    def worst_three_sigma(self) -> float:
        """Worst per-path mu + 3 sigma across the design (Fig. 14)."""
        return max(p.three_sigma for p in self.path_stats)

    def to_payload(self) -> dict:
        """JSON-serializable rendering (artifact pipeline)."""
        return {
            "mean": self.mean,
            "sigma": self.sigma,
            "n_paths": self.n_paths,
            "path_stats": [p.to_payload() for p in self.path_stats],
        }

    @staticmethod
    def from_payload(payload: dict) -> "DesignStatistics":
        """Rebuild statistics stored with :meth:`to_payload`."""
        return DesignStatistics(
            mean=float(payload["mean"]),
            sigma=float(payload["sigma"]),
            n_paths=int(payload["n_paths"]),
            path_stats=tuple(
                PathStatistics.from_payload(p) for p in payload["path_stats"]
            ),
        )


def design_statistics(
    paths: Sequence[TimingPath],
    library: Library,
    rho: float = 0.0,
) -> DesignStatistics:
    """Eq. (11) over the given worst paths."""
    if not paths:
        raise TimingError("design statistics need at least one path")
    # every step of every path resolves in one kernel call
    sigmas = _step_sigmas(library, [step for path in paths for step in path.steps])
    stats: List[PathStatistics] = []
    start = 0
    for path in paths:
        end = start + len(path.steps)
        stats.append(_path_statistics(path, sigmas[start:end], rho))
        start = end
    mean = float(sum(p.mean for p in stats))
    sigma = float(np.sqrt(sum(p.sigma**2 for p in stats)))
    return DesignStatistics(
        mean=mean, sigma=sigma, n_paths=len(stats), path_stats=tuple(stats)
    )
