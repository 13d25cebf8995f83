"""Library-tuning orchestration: method + parameter -> per-pin windows.

Combines the stages of paper Sec. VI: cluster the statistical library,
extract a sigma threshold per cluster, and restrict every cell's
output-pin LUTs against its cluster's threshold.  The resulting
:class:`TuningResult` is what the synthesizer consumes.

A tuning is one batched threshold extraction and one batched
restriction over the pin sigma stacks :class:`LibraryTuner` builds once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.clusters import cluster_by_strength, cluster_individually
from repro.core.methods import TuningMethod, method_by_name
from repro.core.restriction import PinSigma, SlewLoadWindow
from repro.core.threshold import cluster_thresholds
from repro.errors import TuningError
from repro.liberty.model import Cell, Library

#: (cell name, output pin name) -> allowed window (None = pin unusable).
WindowMap = Dict[Tuple[str, str], Optional[SlewLoadWindow]]


@dataclass
class TuningResult:
    """Outcome of tuning a statistical library with one method/parameter."""

    method: TuningMethod
    parameter: float
    #: Extracted sigma threshold per cluster key.
    thresholds: Dict[str, float]
    #: Per-(cell, pin) slew/load windows.
    windows: WindowMap
    #: Cells whose every output pin became unusable.
    excluded_cells: List[str] = field(default_factory=list)

    def window(self, cell_name: str, pin_name: str) -> Optional[SlewLoadWindow]:
        """Window of a cell pin; raises for unknown pins."""
        try:
            return self.windows[(cell_name, pin_name)]
        except KeyError:
            raise TuningError(f"no tuning window for {cell_name}.{pin_name}") from None

    def is_cell_usable(self, cell_name: str) -> bool:
        """False when tuning removed every output pin of the cell."""
        return cell_name not in set(self.excluded_cells)

    def usable_fraction(self) -> float:
        """Fraction of output pins that kept a non-empty window."""
        if not self.windows:
            raise TuningError("tuning produced no windows")
        usable = sum(1 for window in self.windows.values() if window is not None)
        return usable / len(self.windows)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.method.name}(param={self.parameter:g}): "
            f"{len(self.thresholds)} thresholds, "
            f"{self.usable_fraction():.1%} pins usable, "
            f"{len(self.excluded_cells)} cells excluded"
        )

    def to_payload(self) -> dict:
        """JSON-serializable rendering (artifact pipeline).

        Windows are flattened to ``[cell, pin, bounds-or-null]`` rows;
        the method is stored by name and resolved from the registry on
        load, so the payload stays pure data.
        """
        return {
            "method": self.method.name,
            "parameter": self.parameter,
            "thresholds": dict(sorted(self.thresholds.items())),
            "windows": [
                [
                    cell,
                    pin,
                    None
                    if window is None
                    else [
                        window.min_slew,
                        window.max_slew,
                        window.min_load,
                        window.max_load,
                    ],
                ]
                for (cell, pin), window in sorted(self.windows.items())
            ],
            "excluded_cells": list(self.excluded_cells),
        }

    @staticmethod
    def from_payload(payload: dict) -> "TuningResult":
        """Rebuild a result stored with :meth:`to_payload`."""
        windows: WindowMap = {}
        for cell, pin, bounds in payload["windows"]:
            if bounds is None:
                windows[(cell, pin)] = None
            else:
                min_slew, max_slew, min_load, max_load = bounds
                windows[(cell, pin)] = SlewLoadWindow(
                    min_slew=float(min_slew),
                    max_slew=float(max_slew),
                    min_load=float(min_load),
                    max_load=float(max_load),
                )
        return TuningResult(
            method=method_by_name(payload["method"]),
            parameter=float(payload["parameter"]),
            thresholds={k: float(v) for k, v in payload["thresholds"].items()},
            windows=windows,
            excluded_cells=list(payload["excluded_cells"]),
        )


class LibraryTuner:
    """Tunes a statistical library (paper Sec. VI end-to-end)."""

    def __init__(self, library: Library):
        if not library.is_statistical:
            raise TuningError(
                f"library {library.name} is not statistical; build one with "
                "repro.statlib or Characterizer.statistical_library"
            )
        self.library = library
        #: (cell, pin) of every output pin, in library order.
        self.pin_keys: List[Tuple[str, str]] = []
        #: Each cell's rows of :attr:`pin_keys`.
        self._cell_rows: Dict[str, range] = {}
        outputs = []
        for cell in library:
            cell_outputs = cell.output_pins()
            self._cell_rows[cell.name] = range(len(outputs), len(outputs) + len(cell_outputs))
            outputs.extend(cell_outputs)
            self.pin_keys.extend((cell.name, pin.name) for pin in cell_outputs)
        #: Worst-case sigma LUT of every output pin.
        self.sigma = PinSigma(outputs)

    def _clusters(self, method: TuningMethod) -> Dict[str, List[Cell]]:
        if method.clustering == "strength":
            return cluster_by_strength(self.library)
        if method.clustering == "cell":
            return cluster_individually(self.library)
        if method.clustering == "global":
            return {"global": list(self.library)}
        raise TuningError(f"unknown clustering {method.clustering!r}")

    def tune(
        self, method: Union[TuningMethod, str], parameter: float
    ) -> TuningResult:
        """Run the two-stage tuning and return the window map."""
        if isinstance(method, str):
            method = method_by_name(method)
        bounds = method.bounds(parameter)
        clusters = self._clusters(method)
        members = [
            np.array([row for cell in cells for row in self._cell_rows[cell.name]], dtype=int)
            for cells in clusters.values()
        ]
        thresholds = cluster_thresholds(
            self.sigma,
            members,
            kind=method.kind,
            load_bound=bounds["load_slope"],
            slew_bound=bounds["slew_slope"],
            sigma_ceiling=bounds["sigma_ceiling"],
        )
        pin_thresholds = np.empty(len(self.pin_keys))
        for rows, threshold in zip(members, thresholds):
            pin_thresholds[rows] = threshold
        pin_windows = self.sigma.windows(pin_thresholds)

        windows: WindowMap = {}
        excluded: List[str] = []
        for cells in clusters.values():
            for cell in cells:
                rows = self._cell_rows[cell.name]
                windows.update((self.pin_keys[row], pin_windows[row]) for row in rows)
                if all(pin_windows[row] is None for row in rows):
                    excluded.append(cell.name)
        return TuningResult(
            method=method,
            parameter=parameter,
            thresholds={key: float(t) for key, t in zip(clusters, thresholds)},
            windows=windows,
            excluded_cells=sorted(excluded),
        )

    def sweep(self, method: Union[TuningMethod, str]) -> Dict[float, TuningResult]:
        """Tune with every Table 2 sweep value of the method's bound."""
        if isinstance(method, str):
            method = method_by_name(method)
        return {value: self.tune(method, value) for value in method.sweep_values()}
