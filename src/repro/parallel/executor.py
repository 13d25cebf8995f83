"""Backend fan-out for Monte-Carlo characterization.

Sharding strategy: cells are split into contiguous chunks (a few per
worker for load balance — drive strengths, and with them LUT sizes and
arc counts, vary across the catalog), and for per-sample libraries the
sample axis is additionally split into blocks, so one task is a
(cell chunk, sample block) tile.  The tiles are dispatched through a
pluggable :class:`~repro.parallel.backends.ExecutorBackend` — the
in-process serial backend or a local process pool — selected via
``FlowConfig(backend=...)`` / ``REPRO_BACKEND`` / ``--backend``.

Determinism: a worker receives only (characterizer, spec chunk,
n_samples, seed) and regenerates its cells' draws locally via
:meth:`~repro.characterization.characterize.Characterizer.
sample_arc_draws`.  Because draws are keyed per cell by
``(seed, sha256(cell name))``, the regenerated arrays are bit-identical
to the ones the serial loop draws, so the resulting LUTs are
bit-identical too (same IEEE-754 operations on the same inputs) — on
every backend, for any worker count and any chunking.  The die-level
global draws are a single tiny stream; they are drawn once in the
parent and shipped to every worker.

The hot payload crossing the dispatch boundary is therefore small
going in (specs and configuration) and exactly the characterized cells
coming back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.characterization.characterize import Characterizer, GlobalDraws
from repro.cells.catalog import CellSpec
from repro.liberty.model import Cell
from repro.observe import TraceHandle, install_worker_tracer
from repro.parallel.backends import (
    ExecutorBackend,
    chunk_indices,
    resolve_backend,
)

__all__ = [
    "characterize_sample_cells",
    "characterize_statistical_cells",
    "chunk_indices",
]


def _statistical_chunk(
    characterizer: Characterizer,
    specs: Sequence[CellSpec],
    n_samples: int,
    seed: int,
    global_draws: Optional[GlobalDraws],
    trace: Optional[TraceHandle] = None,
) -> List[Cell]:
    """Worker: characterize one chunk of cells in statistical mode."""
    tracer = install_worker_tracer(trace)
    with tracer.span("characterize.chunk", n_cells=len(specs)):
        draws = characterizer.sample_arc_draws(specs, n_samples, seed)
        cells = [
            characterizer.characterize_cell(
                spec,
                draws=draws[spec.name],
                global_draws=global_draws,
                statistical=True,
            )
            for spec in specs
        ]
    return cells


def _sample_chunk(
    characterizer: Characterizer,
    specs: Sequence[CellSpec],
    n_samples: int,
    seed: int,
    global_draws: Optional[GlobalDraws],
    sample_indices: Sequence[int],
    trace: Optional[TraceHandle] = None,
) -> List[List[Cell]]:
    """Worker: characterize a (cell chunk, sample block) tile.

    Returns one list of cells per sample index, in block order.
    """
    tracer = install_worker_tracer(trace)
    with tracer.span(
        "characterize.chunk", n_cells=len(specs), n_samples=len(sample_indices)
    ):
        draws = characterizer.sample_arc_draws(specs, n_samples, seed)
        columns = [
            characterizer.characterize_cell_samples(
                spec, draws[spec.name], list(sample_indices), global_draws
            )
            for spec in specs
        ]
        tile: List[List[Cell]] = [
            [column[row] for column in columns]
            for row in range(len(sample_indices))
        ]
    return tile


def characterize_statistical_cells(
    characterizer: Characterizer,
    specs: Sequence[CellSpec],
    n_samples: int,
    seed: int,
    global_draws: Optional[GlobalDraws],
    n_workers: int = 1,
    backend: Union[str, ExecutorBackend, None] = None,
) -> List[Cell]:
    """Fan the statistical characterization of ``specs`` out over the
    selected backend; returns cells in catalog order."""
    specs = list(specs)
    resolved = resolve_backend(backend, n_workers)
    chunks = chunk_indices(len(specs), 4 * resolved.n_workers)
    tasks = [
        (characterizer, [specs[i] for i in chunk], n_samples, seed, global_draws)
        for chunk in chunks
    ]
    cells: List[Cell] = []
    for tile in resolved.map_tasks(_statistical_chunk, tasks):
        cells.extend(tile)
    return cells


def characterize_sample_cells(
    characterizer: Characterizer,
    specs: Sequence[CellSpec],
    n_samples: int,
    seed: int,
    global_draws: Optional[GlobalDraws],
    n_workers: int = 1,
    backend: Union[str, ExecutorBackend, None] = None,
) -> List[List[Cell]]:
    """Fan per-sample characterization out over (cell, sample) tiles.

    Returns ``cells[k][i]``: the cell of ``specs[i]`` under Monte-Carlo
    sample ``k``, bit-identical to the serial double loop.

    The vectorized kernel evaluates each cell's full sample tensor in
    one shot, so splitting the sample axis would only repeat that work
    per block — it shards over cells alone.  The scalar kernel keeps
    the (cell chunk, sample block) tiling for load balance.
    """
    specs = list(specs)
    resolved = resolve_backend(backend, n_workers)
    if characterizer.kernel == "vectorized":
        cell_chunks = chunk_indices(len(specs), 4 * resolved.n_workers)
        sample_blocks = [range(n_samples)]
    else:
        cell_chunks = chunk_indices(len(specs), 2 * resolved.n_workers)
        sample_blocks = chunk_indices(n_samples, resolved.n_workers)
    tiles = [
        (block, chunk)
        for block in sample_blocks
        for chunk in cell_chunks
    ]
    tasks = [
        (
            characterizer,
            [specs[i] for i in chunk],
            n_samples,
            seed,
            global_draws,
            list(block),
        )
        for block, chunk in tiles
    ]
    results = resolved.map_tasks(_sample_chunk, tasks)
    cells: List[List[Optional[Cell]]] = [
        [None] * len(specs) for _ in range(n_samples)
    ]
    for (block, chunk), tile in zip(tiles, results):
        for row, k in enumerate(block):
            for column, i in enumerate(chunk):
                cells[k][i] = tile[row][column]
    return cells
