"""Process-variation substrate.

Models the two variation classes the paper separates (Sec. I):

* **global (inter-die)** variation — shared by every cell on a die;
  :class:`~repro.variation.process.Corner` shifts plus die-level draws
  with the :class:`~repro.variation.montecarlo.GlobalSigmas` budget;
* **local (intra-die / mismatch)** variation — independent per device,
  following the Pelgrom law (:mod:`repro.variation.pelgrom`).

``Characterizer.sample_arc_draws``/``sample_global_draws`` make the draws.
"""

from repro.variation.process import (
    Corner,
    TechnologyParams,
    CORNERS,
    typical_corner,
    fast_corner,
    slow_corner,
)
from repro.variation.pelgrom import PelgromModel
from repro.variation.montecarlo import GlobalSigmas, NetworkGeometry

__all__ = [
    "Corner",
    "TechnologyParams",
    "CORNERS",
    "typical_corner",
    "fast_corner",
    "slow_corner",
    "PelgromModel",
    "GlobalSigmas",
    "NetworkGeometry",
]
