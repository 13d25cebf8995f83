"""Inputs of Monte-Carlo sampling of process variation (paper Sec. III/IV).

The paper creates N distinct libraries "from a Monte Carlo sampling
that includes the effect of local variations" and combines them into a
statistical library.  The draws themselves come from one place,
:meth:`~repro.characterization.characterize.Characterizer.sample_arc_draws`
(local mismatch: per cell arc, a threshold-voltage and a relative-beta
perturbation of the pull-up and the pull-down network, with Pelgrom
sigmas for each network's :class:`NetworkGeometry`) and
:meth:`~repro.characterization.characterize.Characterizer.sample_global_draws`
(die-level shifts with the :class:`GlobalSigmas` budget).  Both are
driven by ``numpy`` generators seeded from one integer, so every
experiment is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkGeometry:
    """Geometry of one switching network (pull-up or pull-down).

    ``width`` is the per-device gate width (um), ``length`` the channel
    length (um) and ``stack`` the number of series devices on the worst
    switching path.
    """

    width: float
    length: float
    stack: int = 1


@dataclass(frozen=True)
class GlobalSigmas:
    """Inter-die sigma budget (used by Fig. 15/16 experiments).

    Calibrated so the local-variation share of a short path's total
    sigma lands near the paper's ~65% (Fig. 16a); corner-to-corner
    shifts are modelled separately by :class:`~repro.variation.process.
    Corner`, so these sigmas cover only the within-corner die-to-die
    spread.
    """

    vth: float = 0.006
    beta_rel: float = 0.009
    length_rel: float = 0.007
