"""Monte-Carlo replay of extracted timing paths (paper Sec. VII.C).

The paper extracts a short, a medium and a long path from the baseline
design and re-simulates them in SPICE with process variation, across
corners and with/without global variation (Figs. 15-16).  Here the
"SPICE rerun" is a replay through the analytical delay model: each
path step keeps the slew/load the STA timed it at, and per-sample
perturbations (local per-arc mismatch, optional shared global shift)
move its delay.

The replay is vectorized across samples, so 200-sample Monte Carlo of
a 60-cell path costs a few milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cells.catalog import CellSpec
from repro.characterization.delaymodel import GateDelayModel
from repro.characterization.devices import network_geometry
from repro.errors import ReproError
from repro.sta.paths import TimingPath, WorstPaths
from repro.variation.montecarlo import GlobalSigmas
from repro.variation.pelgrom import PelgromModel
from repro.variation.process import Corner, TechnologyParams, typical_corner


@dataclass(frozen=True)
class PathMcResult:
    """Samples and summary statistics of one path replay."""

    corner: str
    delays: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.delays.mean())

    @property
    def sigma(self) -> float:
        return float(self.delays.std(ddof=1))


class PathMonteCarlo:
    """Replays extracted paths under sampled process variation."""

    def __init__(
        self,
        specs: Sequence[CellSpec],
        tech: Optional[TechnologyParams] = None,
        pelgrom: Optional[PelgromModel] = None,
        global_sigmas: Optional[GlobalSigmas] = None,
    ):
        self._specs: Dict[str, CellSpec] = {spec.name: spec for spec in specs}
        self.base_tech = tech or TechnologyParams()
        self.pelgrom = pelgrom or PelgromModel()
        self.global_sigmas = global_sigmas or GlobalSigmas()

    def _spec(self, cell_name: str) -> CellSpec:
        try:
            return self._specs[cell_name]
        except KeyError:
            raise ReproError(f"no catalog spec for cell {cell_name}") from None

    def sample_path(
        self,
        path: TimingPath,
        n_samples: int = 200,
        seed: int = 0,
        corner: Optional[Corner] = None,
        include_local: bool = True,
        include_global: bool = False,
    ) -> PathMcResult:
        """Monte-Carlo the path's total delay.

        Local mismatch draws are independent per step and per network;
        global variation is one shared (dvth, dbeta, dlength) triple
        per sample, applied to every step.
        """
        corner = corner or typical_corner()
        tech = corner.apply(self.base_tech)
        model = GateDelayModel(tech)
        rng = np.random.default_rng(seed)

        if include_global:
            g_vth = rng.normal(0.0, self.global_sigmas.vth, n_samples)
            g_beta = rng.normal(0.0, self.global_sigmas.beta_rel, n_samples)
            g_len = rng.normal(0.0, self.global_sigmas.length_rel, n_samples)
        else:
            g_vth = g_beta = g_len = np.zeros(n_samples)

        total = np.zeros(n_samples)
        for step in path.steps:
            spec = self._spec(step.cell_name)
            drive = spec.drive(step.out_pin)
            sample_delay = None
            for rise in (True, False):
                geometry = network_geometry(tech, spec, drive, rise=rise)
                if include_local:
                    sigma_vth = self.pelgrom.sigma_vth_stack(
                        geometry.width, geometry.length, geometry.stack
                    )
                    sigma_beta = self.pelgrom.sigma_beta_rel_stack(
                        geometry.width, geometry.length, geometry.stack
                    )
                    dvth = rng.normal(0.0, sigma_vth, n_samples)
                    dbeta = rng.normal(0.0, sigma_beta, n_samples)
                else:
                    dvth = np.zeros(n_samples)
                    dbeta = np.zeros(n_samples)
                tables = model.arc_tables(
                    spec,
                    step.out_pin,
                    rise=rise,
                    slews=np.asarray(step.slew),
                    loads=np.asarray(step.load),
                    dvth=dvth + g_vth,
                    dbeta=dbeta + g_beta,
                    dlength_rel=g_len,
                )
                delay = np.asarray(tables.delay)
                sample_delay = (
                    delay if sample_delay is None else np.maximum(sample_delay, delay)
                )
            total = total + sample_delay
        return PathMcResult(corner=corner.name, delays=total)


def pick_paths_by_depth(
    paths: WorstPaths, targets: Sequence[int] = (3, 18, 57)
) -> List[TimingPath]:
    """The paper's short/medium/long selection: paths whose depths are
    closest to the requested targets, preferring distinct paths (the
    first in endpoint order on ties).  Only the chosen paths are built."""
    if not len(paths):
        raise ReproError("no paths to choose from")
    depths = paths.depths.tolist()
    remaining = list(range(len(depths)))
    chosen: List[int] = []
    for target in targets:
        best = min(remaining, key=lambda index: abs(depths[index] - target))
        chosen.append(best)
        if len(remaining) > 1:
            remaining.remove(best)
    return [paths[index] for index in chosen]
