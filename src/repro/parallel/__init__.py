"""Parallel execution and on-disk memoization of characterization.

The Monte-Carlo characterization of the 304-cell catalog is
embarrassingly parallel across (cell, sample) pairs, and its inputs are
fully determined by a small, hashable configuration — which makes it
both a perfect fan-out target and a perfect cache key.  This package
provides both, plus the store every other stage persists through:

* :mod:`repro.parallel.executor` — a :class:`concurrent.futures.
  ProcessPoolExecutor` fan-out that shards cells (and, for per-sample
  libraries, sample blocks) across worker processes.  Because every
  cell draws from its own seeded RNG stream (see
  :func:`repro.characterization.characterize.cell_rng`), workers
  regenerate exactly the draws the serial loop would have used and the
  results are bit-identical to serial execution, for any worker count
  and any chunking.
* :mod:`repro.parallel.artifacts` — the one on-disk store
  (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) of every stage's
  artifact, content-addressed by ``(stage, fingerprint)``: libraries as
  ``.npz`` arrays, everything else as gzip JSON.  Writes are atomic
  (temp file + ``os.replace``) so a killed run can never poison later
  runs, and unreadable entries heal into misses.
* :mod:`repro.parallel.cache` — the library codec on top of it: keyed
  by a content hash of (catalog spec, grid, technology/corner/mismatch
  parameters, seed, sample count), it stores the mean/sigma LUT arrays
  and rebuilds full Liberty libraries from them without re-running the
  delay model.

* :mod:`repro.parallel.backends` — the pluggable execution layer every
  fan-out site dispatches through: an :class:`~repro.parallel.
  backends.ExecutorBackend` interface with ``serial`` (in-process,
  zero-copy — also the automatic single-worker fallback) and
  ``process`` (local :class:`~concurrent.futures.ProcessPoolExecutor`)
  implementations, selected via ``FlowConfig(backend=...)`` /
  ``REPRO_BACKEND`` / ``--backend``.

All layers thread through :class:`~repro.characterization.
characterize.Characterizer` (``n_workers=...``, ``cache=...``,
``backend=...``), :class:`~repro.flow.experiment.FlowConfig` and the
``python -m repro`` CLI (``--jobs``, ``--backend``, ``--no-cache``,
``store stats|clear``).
"""

from __future__ import annotations

import os

from repro.errors import ReproError
from repro.parallel.artifacts import ArtifactStats, ArtifactStore
from repro.parallel.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    chunk_indices,
    resolve_backend,
    validate_backend,
)
from repro.parallel.cache import LibraryCache

__all__ = [
    "ArtifactStats",
    "ArtifactStore",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ExecutorBackend",
    "LibraryCache",
    "ProcessBackend",
    "SerialBackend",
    "chunk_indices",
    "resolve_backend",
    "resolve_jobs",
    "validate_backend",
]


def resolve_jobs(n_workers: int) -> int:
    """Normalize a worker-count knob to a concrete process count.

    ``1`` (the default) means serial execution in the calling process,
    ``0`` means one worker per available CPU, and any other positive
    value is taken literally.  Negative counts are rejected.
    """
    if n_workers < 0:
        raise ReproError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers == 0:
        return os.cpu_count() or 1
    return n_workers
