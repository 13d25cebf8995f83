"""The library codec of the artifact store.

A statistical (or per-sample) library is a pure function of a small
configuration: the catalog specs, the characterization grid, the
technology/corner/mismatch parameters, the power switch, the seed and
the sample count.  :func:`characterization_key` fingerprints exactly
that configuration — the inputs the ``stat`` and ``samples`` rows of
:data:`~repro.parallel.artifacts.STAGES` declare — and
:class:`LibraryCache` stores the stage as one ``tables`` array in the
:class:`~repro.parallel.artifacts.ArtifactStore` (its ``.npz`` codec),
shaped ``(libraries, rows, n_slew, n_load)``: one library for ``stat``,
N for ``samples``.  Rows follow a canonical order — for each spec, for
each ``(input, output)`` of ``spec.function.arcs()``, for each slot of
:meth:`~repro.characterization.characterize.Characterizer.table_slots`
— and everything that order depends on is already a key input, so no
index is stored.  Everything else — cell shells, pin capacitances,
axes, templates — is rebuilt from the specs on load, through
:meth:`~repro.characterization.characterize.Characterizer.
cell_from_tables`, which keeps files small and immune to model-object
drift.  An entry that is not exactly that one array of that shape (a
store written in an older layout, say) heals into a miss.  Atomic
writes, self-healing, the store counters and the version folded into
every key (:data:`~repro.parallel.artifacts.ARTIFACT_VERSION`) are the
store's.

The codec neither derives keys nor decides when to characterize: the
flow derives each key once and hands :meth:`LibraryCache.codec` to
:class:`~repro.flow.pipeline.ArtifactPipeline`, which resolves the
library stages like every other stage.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cells.catalog import CellSpec
from repro.liberty.model import Library
from repro.parallel.artifacts import ArtifactStore, stage_fingerprint

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


class LibraryCache:
    """The library codec: stores the ``stat`` (one library) or
    ``samples`` (N libraries) stage as one ``tables`` array and
    rebuilds the libraries from it.  Every method takes the stage key
    the caller already derived (:func:`characterization_key`)."""

    def __init__(self, store: Optional[ArtifactStore] = None):
        self.store = store if store is not None else ArtifactStore()

    def codec(
        self, kind: str, characterizer, specs: Sequence[CellSpec], n_samples: int
    ):
        """The ``(load, save)`` pair the artifact pipeline resolves the
        ``kind`` stage (``stat`` or ``samples``) through."""
        if kind == "stat":
            return (
                lambda key: self.load_statistical(key, characterizer, specs),
                lambda key, library: self.save(
                    kind, key, [library], characterizer, specs
                ),
            )
        return (
            lambda key: self.load(kind, key, characterizer, specs, n_samples),
            lambda key, libraries: self.save(kind, key, libraries, characterizer, specs),
        )

    def load_statistical(
        self, key: str, characterizer, specs: Sequence[CellSpec]
    ) -> Optional[Library]:
        """Rebuild a stored statistical library, or ``None`` on miss."""
        libraries = self.load("stat", key, characterizer, specs, 1)
        return None if libraries is None else libraries[0]

    def load(
        self,
        kind: str,
        key: str,
        characterizer,
        specs: Sequence[CellSpec],
        n_libraries: int,
    ) -> Optional[List[Library]]:
        """Rebuild the ``n_libraries`` libraries of a stored ``kind``
        entry, or ``None`` on a miss.  An entry whose arrays are not
        exactly one ``tables`` array of the expected shape heals into
        a miss like any other unreadable store entry."""
        slots = characterizer.table_slots(statistical=kind == "stat")
        n_rows = len(slots) * sum(len(spec.function.arcs()) for spec in specs)
        grid = characterizer.grid
        shape = (n_libraries, n_rows, grid.n_slew, grid.n_load)
        name = characterizer.corner.name

        def decode(arrays: Dict[str, np.ndarray]) -> List[Library]:
            tables = arrays.get("tables", np.empty(0))
            if (
                arrays.keys() != {"tables"}
                or tables.shape != shape
                or tables.dtype != np.float64
            ):
                raise ValueError(f"{kind} arrays are not one {shape} tables array")
            libraries = []
            for k, stack in enumerate(tables):
                library = characterizer.library_shell(
                    f"{name}_stat" if kind == "stat" else f"{name}_mc{k:03d}"
                )
                library.is_statistical = kind == "stat"
                rows = iter(stack)
                for spec in specs:
                    library.add_cell(characterizer.cell_from_tables(spec, {
                        arc: {slot: next(rows) for slot in slots}
                        for arc in spec.function.arcs()
                    }))
                libraries.append(library)
            return libraries

        return self.store.load(kind, key, decode)

    def save(
        self,
        kind: str,
        key: str,
        libraries: Sequence[Library],
        characterizer,
        specs: Sequence[CellSpec],
    ) -> Path:
        """Persist ``libraries`` as one ``(libraries, rows, n_slew,
        n_load)`` ``tables`` array, rows in canonical order: for each
        spec, each arc of ``spec.function.arcs()``, each slot of
        :meth:`~repro.characterization.characterize.Characterizer.
        table_slots`."""
        slots = characterizer.table_slots(statistical=kind == "stat")
        rows = [
            (spec.name, output_pin, input_pin, slot)
            for spec in specs
            for input_pin, output_pin in spec.function.arcs()
            for slot in slots
        ]
        grid = characterizer.grid
        # filled in place: stacking a list of the tables would hold the
        # whole array twice while it is built
        tables = np.empty((len(libraries), len(rows), grid.n_slew, grid.n_load))
        for k, library in enumerate(libraries):
            for row, (cell, pin, related, slot) in enumerate(rows):
                arc = library.cell(cell).pin(pin).arc_from(related)
                tables[k, row] = getattr(arc, slot).values
        return self.store.store(kind, key, {"tables": tables})
