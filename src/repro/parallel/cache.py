"""The library codec of the artifact store.

A statistical (or per-sample) library is a pure function of a small
configuration: the catalog specs, the characterization grid, the
technology/corner/mismatch parameters, the power switch, the seed and
the sample count.  :func:`characterization_key` fingerprints exactly
that configuration — the inputs the ``stat`` and ``samples`` rows of
:data:`~repro.parallel.artifacts.STAGES` declare — and
:class:`LibraryCache` packs the library's LUT value arrays into named
arrays stored in the :class:`~repro.parallel.artifacts.ArtifactStore`
under that stage (its ``.npz`` codec); everything else — cell shells,
pin capacitances, axes, templates — is rebuilt from the specs on load,
which keeps files small and immune to model-object drift.  Atomic
writes, self-healing, the store counters and the version folded into
every key (:data:`~repro.parallel.artifacts.ARTIFACT_VERSION`) are the
store's.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.catalog import CellSpec
from repro.liberty.model import Library
from repro.parallel.artifacts import ArtifactStore, stage_fingerprint

#: LUT slots a statistical-library entry may store, core slots first.
STATISTICAL_SLOTS = (
    "cell_rise",
    "cell_fall",
    "rise_transition",
    "fall_transition",
    "sigma_rise",
    "sigma_fall",
    "power_rise",
    "power_fall",
    "sigma_power_rise",
    "sigma_power_fall",
)
#: Slots required for a statistical entry to be considered intact.
_STATISTICAL_REQUIRED = STATISTICAL_SLOTS[:6]

#: LUT slots a per-sample entry may store (stacked along axis 0).
SAMPLE_SLOTS = (
    "cell_rise",
    "cell_fall",
    "rise_transition",
    "fall_transition",
    "power_rise",
    "power_fall",
)
_SAMPLE_REQUIRED = SAMPLE_SLOTS[:4]


def spec_fingerprint(spec: CellSpec) -> dict:
    """Everything about a spec that characterization results depend on.

    Shared by :func:`characterization_key` and the ``catalog`` stage
    key (:attr:`repro.flow.experiment.TuningFlow.specs`).
    """
    function = spec.function
    return {
        "name": spec.name,
        "family": spec.family,
        "strength": spec.strength,
        "area": spec.area,
        "max_load": spec.max_load,
        "input_cap_factor": dict(sorted(spec.input_cap_factor.items())),
        "drives": {
            pin: dataclasses.asdict(drive)
            for pin, drive in sorted(spec.drives.items())
        },
        "function": function.name,
        "arcs": function.arcs(),
        "senses": [
            [inp, out, getattr(function.sense(inp, out), "value", str(function.sense(inp, out)))]
            for inp, out in function.arcs()
        ],
    }


def characterization_key(
    characterizer,
    specs: Sequence[CellSpec],
    n_samples: int,
    seed: int,
    include_global: bool,
    kind: str,
) -> str:
    """Content hash identifying one characterization run (``kind`` is
    the stage: ``stat`` or ``samples``).

    Everything that can change a single LUT entry is in the hash; the
    library *name* is deliberately excluded (it is presentation, not
    content) and re-applied when a cached library is rebuilt.
    """
    return stage_fingerprint(
        kind,
        n_samples=n_samples,
        seed=seed,
        include_global=include_global,
        include_power=characterizer.include_power,
        tech=dataclasses.asdict(characterizer.base_tech),
        corner=dataclasses.asdict(characterizer.corner),
        pelgrom=dataclasses.asdict(characterizer.pelgrom),
        grid=dataclasses.asdict(characterizer.grid),
        global_sigmas=dataclasses.asdict(characterizer.global_sigmas),
        specs=[spec_fingerprint(spec) for spec in specs],
    )


def _arc_key(cell: str, output_pin: str, related_pin: str, slot: str) -> str:
    return "\t".join((cell, output_pin, related_pin, slot))


class LibraryCache:
    """Characterized libraries in an :class:`ArtifactStore`: packs LUTs
    into named arrays and back."""

    def __init__(self, store: Optional[ArtifactStore] = None):
        self.store = store if store is not None else ArtifactStore()

    @property
    def directory(self) -> Path:
        """The directory of the underlying store."""
        return self.store.directory

    # ------------------------------------------------------------------
    # Statistical libraries
    # ------------------------------------------------------------------

    def load_statistical(
        self,
        characterizer,
        specs: Sequence[CellSpec],
        n_samples: int,
        seed: int,
        include_global: bool,
        name: Optional[str] = None,
    ) -> Optional[Library]:
        """Rebuild a cached statistical library, or ``None`` on miss.

        An entry missing any required array counts as a miss and
        heals like any other unreadable store entry.
        """

        def decode(arrays: Dict[str, np.ndarray]) -> Library:
            library = characterizer.library_shell(
                name or f"{characterizer.corner.name}_stat"
            )
            library.is_statistical = True
            for spec in specs:
                tables = _cell_tables(
                    arrays, spec, STATISTICAL_SLOTS, _STATISTICAL_REQUIRED
                )
                library.add_cell(characterizer.cell_from_tables(spec, tables))
            return library

        key = characterization_key(
            characterizer, specs, n_samples, seed, include_global, "stat"
        )
        return self.store.load("stat", key, decode)

    def store_statistical(
        self,
        characterizer,
        specs: Sequence[CellSpec],
        n_samples: int,
        seed: int,
        include_global: bool,
        library: Library,
    ) -> Path:
        """Persist a statistical library's LUT arrays."""
        arrays: Dict[str, np.ndarray] = {}
        for cell in library:
            for pin in cell.output_pins():
                for arc in pin.timing:
                    for slot in STATISTICAL_SLOTS:
                        table = getattr(arc, slot)
                        if table is not None:
                            arrays[_arc_key(cell.name, pin.name, arc.related_pin, slot)] = (
                                table.values
                            )
        key = characterization_key(
            characterizer, specs, n_samples, seed, include_global, "stat"
        )
        return self.store.store("stat", key, arrays)

    # ------------------------------------------------------------------
    # Per-sample libraries
    # ------------------------------------------------------------------

    def load_samples(
        self,
        characterizer,
        specs: Sequence[CellSpec],
        n_samples: int,
        seed: int,
        include_global: bool,
    ) -> Optional[List[Library]]:
        """Rebuild the N cached Monte-Carlo sample libraries, or ``None``."""

        def decode(arrays: Dict[str, np.ndarray]) -> List[Library]:
            libraries: List[Library] = []
            for k in range(n_samples):
                library = characterizer.library_shell(
                    f"{characterizer.corner.name}_mc{k:03d}"
                )
                for spec in specs:
                    stacked = _cell_tables(arrays, spec, SAMPLE_SLOTS, _SAMPLE_REQUIRED)
                    tables = {
                        arc: {slot: values[k] for slot, values in slots.items()}
                        for arc, slots in stacked.items()
                    }
                    library.add_cell(characterizer.cell_from_tables(spec, tables))
                libraries.append(library)
            return libraries

        key = characterization_key(
            characterizer, specs, n_samples, seed, include_global, "samples"
        )
        return self.store.load("samples", key, decode)

    def store_samples(
        self,
        characterizer,
        specs: Sequence[CellSpec],
        n_samples: int,
        seed: int,
        include_global: bool,
        libraries: Sequence[Library],
    ) -> Path:
        """Persist N sample libraries as per-arc (N, slews, loads) stacks."""
        arrays: Dict[str, np.ndarray] = {}
        reference = libraries[0]
        for cell in reference:
            for pin in cell.output_pins():
                for arc_index, arc in enumerate(pin.timing):
                    for slot in SAMPLE_SLOTS:
                        if getattr(arc, slot) is None:
                            continue
                        stack = np.stack([
                            getattr(
                                library.cell(cell.name).pin(pin.name).timing[arc_index],
                                slot,
                            ).values
                            for library in libraries
                        ])
                        arrays[_arc_key(cell.name, pin.name, arc.related_pin, slot)] = stack
        key = characterization_key(
            characterizer, specs, n_samples, seed, include_global, "samples"
        )
        return self.store.store("samples", key, arrays)


def _cell_tables(
    arrays: Dict[str, np.ndarray],
    spec: CellSpec,
    slots: Tuple[str, ...],
    required: Tuple[str, ...],
) -> Dict[Tuple[str, str], Dict[str, np.ndarray]]:
    """Group one cell's stored arrays by arc, checking completeness."""
    tables: Dict[Tuple[str, str], Dict[str, np.ndarray]] = {}
    for input_pin, output_pin in spec.function.arcs():
        arc_tables: Dict[str, np.ndarray] = {}
        for slot in slots:
            key = _arc_key(spec.name, output_pin, input_pin, slot)
            if key in arrays:
                arc_tables[slot] = arrays[key]
        missing = [slot for slot in required if slot not in arc_tables]
        if missing:
            raise KeyError(
                f"{spec.name} {input_pin}->{output_pin}: missing {missing}"
            )
        tables[(input_pin, output_pin)] = arc_tables
    return tables
