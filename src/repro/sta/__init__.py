"""Static timing analysis substrate.

Worst-case (single-value) NLDM STA over a mapped netlist:

* :mod:`repro.sta.graph` compiles a design once into a shared,
  read-only topology (:class:`CompiledDesign`: arc arrays, the level
  schedule, endpoints) and binds library cells on it into a vectorized
  timing graph (per-net loads, per-arc table ids);
* :mod:`repro.sta.engine` propagates arrivals/slews forward and
  required times backward, yielding per-endpoint slacks;
* :mod:`repro.sta.paths` extracts the worst path per unique endpoint
  (the population the paper's design metric is built on);
* :mod:`repro.sta.statistics` implements the paper's statistical path
  analysis: bilinear sigma lookups, convolution with correlation
  (eqs. 5-11).
"""

from repro.sta.graph import CompiledDesign, StaConfig, TimingGraph
from repro.sta.engine import TimingResult, analyze
from repro.sta.paths import PathStep, TimingPath, WorstPaths, extract_worst_paths
from repro.sta.statistics import (
    DesignStatistics,
    PathStatistics,
    design_statistics,
    path_statistics,
    path_sigma_correlated,
)

__all__ = [
    "CompiledDesign",
    "StaConfig",
    "TimingGraph",
    "TimingResult",
    "analyze",
    "PathStep",
    "TimingPath",
    "WorstPaths",
    "extract_worst_paths",
    "DesignStatistics",
    "PathStatistics",
    "design_statistics",
    "path_statistics",
    "path_sigma_correlated",
]
