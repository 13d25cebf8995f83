"""Backend fan-out for Monte-Carlo characterization.

Sharding strategy: cells are split into contiguous chunks (a few per
worker for load balance — drive strengths, and with them LUT sizes and
arc counts, vary across the catalog); the sample axis is never split,
because each cell's full (samples x slew x load) tensor is one batched
evaluation and splitting it would only repeat that work per block.
The chunks are dispatched through a pluggable
:class:`~repro.parallel.backends.ExecutorBackend` — the in-process
serial backend or a local process pool — selected via
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

from typing import Callable, List, Optional, Sequence, TypeVar, Union

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

T = TypeVar("T")


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
    trace: Optional[TraceHandle] = None,
) -> List[List[Cell]]:
    """Worker: characterize one chunk of cells for every sample.

    Returns one column of cells per spec, in sample order.
    """
    tracer = install_worker_tracer(trace)
    with tracer.span("characterize.chunk", n_cells=len(specs), n_samples=n_samples):
        draws = characterizer.sample_arc_draws(specs, n_samples, seed)
        return [
            characterizer.characterize_cell_samples(
                spec, draws[spec.name], range(n_samples), global_draws
            )
            for spec in specs
        ]


def _map_chunks(
    worker: Callable[..., List[T]],
    characterizer: Characterizer,
    specs: Sequence[CellSpec],
    n_samples: int,
    seed: int,
    global_draws: Optional[GlobalDraws],
    n_workers: int,
    backend: Union[str, ExecutorBackend, None],
) -> List[T]:
    """Run ``worker`` over contiguous cell chunks on the selected
    backend; its per-spec results, flattened in catalog order."""
    specs = list(specs)
    resolved = resolve_backend(backend, n_workers)
    chunks = chunk_indices(len(specs), 4 * resolved.n_workers)
    tasks = [
        (characterizer, [specs[i] for i in chunk], n_samples, seed, global_draws)
        for chunk in chunks
    ]
    results: List[T] = []
    for tile in resolved.map_tasks(worker, tasks):
        results.extend(tile)
    return results


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
    return _map_chunks(
        _statistical_chunk, characterizer, specs, n_samples, seed,
        global_draws, n_workers, backend,
    )


def characterize_sample_cells(
    characterizer: Characterizer,
    specs: Sequence[CellSpec],
    n_samples: int,
    seed: int,
    global_draws: Optional[GlobalDraws],
    n_workers: int = 1,
    backend: Union[str, ExecutorBackend, None] = None,
) -> List[List[Cell]]:
    """Fan per-sample characterization out over cell chunks.

    Returns ``columns[i][k]``: the cell of ``specs[i]`` under
    Monte-Carlo sample ``k``, bit-identical to the serial loop.
    """
    return _map_chunks(
        _sample_chunk, characterizer, specs, n_samples, seed,
        global_draws, n_workers, backend,
    )
