"""Pluggable execution backends behind every fan-out site.

One abstraction — :class:`ExecutorBackend` — carries all the process
topology the repo needs: characterization chunks
(:mod:`repro.parallel.executor`) and evaluation sweep points
(:func:`repro.flow.pipeline.sweep_stale`, behind both fig10 and
:mod:`repro.sweep`) dispatch through :meth:`ExecutorBackend.
map_tasks` instead of constructing pools themselves (the PROC003 lint
rule keeps it that way).

Two implementations ship:

* ``serial`` — runs every task in the calling process, in task order,
  with zero copies.  This is also the automatic fallback whenever the
  resolved worker count is 1, so a single-worker run never pays a
  process spawn.
* ``process`` — :class:`concurrent.futures.ProcessPoolExecutor`
  semantics: tasks are pickled to worker processes and results
  collected in submission order, bit-identical to serial execution
  for every workload in this repo (each task is a pure function of
  its arguments).

The contract every backend honors:

* **Task order** — ``map_tasks(fn, tasks)`` returns one result per
  task, in ``tasks`` order, whatever the execution interleaving.
* **Module-level callables** — ``fn`` must be picklable by qualified
  name (PROC002); each task is a tuple of positional arguments.
* **Worker tracing** — out-of-process backends capture the active
  tracer's :class:`~repro.observe.TraceHandle` in the *submitting*
  thread and append it as ``fn``'s final argument, so worker spans
  merge into the parent's trace; the serial backend leaves the
  caller's tracer active and lets ``fn``'s default ``trace=None``
  plumbing find it.
* **Worker counts** — an out-of-process task hands its metrics-registry
  growth back with its result (or on its exception), and the parent
  folds it into its own registry, so counters stay exact across
  processes.  A worker that dies outright loses its growth.
* **Determinism** — a backend never changes results, so the choice
  (like the kernel choice, see :mod:`repro.kernels`) must never enter
  stage fingerprints or cache keys.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, ServerBusyError
from repro.observe import TraceHandle, get_tracer
from repro.observe.catalog import (
    BACKEND_TASK_SECONDS,
    BACKEND_TASKS,
    DISPATCH_CAPACITY,
    DISPATCH_PENDING,
)
from repro.observe.metrics import (
    MetricsSnapshot,
    get_metrics,
    install_worker_metrics,
)

#: The recognized backend names, in documentation order.
BACKEND_NAMES: Tuple[str, ...] = ("serial", "process")

#: The backend used when nothing selects one (``FlowConfig`` default).
DEFAULT_BACKEND = "process"

#: One unit of work: the positional arguments of the task callable.
Task = Tuple[Any, ...]


def validate_backend(name: str) -> str:
    """Validate a backend name, raising :class:`~repro.errors.
    ConfigError` on anything unrecognized (a typo'd ``--backend`` or
    ``REPRO_BACKEND`` must fail loudly, not fall back silently)."""
    if name not in BACKEND_NAMES:
        raise ConfigError(
            f"unknown backend {name!r} (use one of {', '.join(BACKEND_NAMES)})"
        )
    return name


def chunk_indices(n_items: int, n_chunks: int) -> List[range]:
    """Split ``range(n_items)`` into at most ``n_chunks`` balanced,
    contiguous ranges (earlier chunks at most one element larger).

    The one chunking helper the characterization fan-out shares for
    cell chunks and sample blocks (:mod:`repro.parallel.executor`).
    """
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    ranges: List[range] = []
    start = 0
    for chunk in range(n_chunks):
        size = base + (1 if chunk < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


class ExecutorBackend:
    """The dispatch surface every fan-out site goes through.

    Subclasses set the capability flags and implement
    :meth:`map_tasks`; callers may use the flags to pick a schedule
    (e.g. skip pre-serialization work when ``in_process``) but must
    produce bit-identical results on every backend.
    """

    #: Stable identifier (``serial`` / ``process``).
    name: str = "abstract"
    #: Tasks run in the calling process — arguments are never copied,
    #: and the caller's tracer/kernel state is visible to the task.
    in_process: bool = False
    #: Concrete worker count this backend schedules onto.
    n_workers: int = 1

    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[Task]
    ) -> List[Any]:
        """Run ``fn(*task)`` for every task; results in task order."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} workers={self.n_workers}>"


class SerialBackend(ExecutorBackend):
    """In-process execution in task order — the zero-copy baseline."""

    name = "serial"
    in_process = True

    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[Task]
    ) -> List[Any]:
        """Run every task inline; the caller's tracer stays active."""
        BACKEND_TASKS.labels(backend=self.name, event="dispatched").inc(
            len(tasks)
        )
        results: List[Any] = []
        for task in tasks:
            started = time.perf_counter()
            results.append(fn(*task))
            BACKEND_TASK_SECONDS.labels(self.name).observe(
                time.perf_counter() - started
            )
        BACKEND_TASKS.labels(backend=self.name, event="completed").inc(
            len(tasks)
        )
        return results


class ProcessBackend(ExecutorBackend):
    """``ProcessPoolExecutor`` fan-out with in-order collection."""

    name = "process"
    in_process = False

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ConfigError(
                f"process backend needs >= 1 worker, got {n_workers}"
            )
        self.n_workers = n_workers

    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[Task]
    ) -> List[Any]:
        """Submit every task, collect results in submission order.

        The worker trace handle is captured *here*, in the submitting
        thread, while the caller's span is still open — the executor
        pickles arguments from its queue-feeder thread, where the
        thread-local span stack is empty and the parent link would be
        lost.  Every task's metrics delta is folded in, failed tasks'
        too; then the first failure, if any, is re-raised.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        trace = get_tracer().handle()
        BACKEND_TASKS.labels(backend=self.name, event="dispatched").inc(
            len(tasks)
        )
        with ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(tasks))
        ) as pool:
            futures = [
                pool.submit(_run_worker_task, fn, tuple(task), trace, self.name)
                for task in tasks
            ]
            registry = get_metrics()
            results = []
            failure: Optional[Exception] = None
            for future in futures:
                try:
                    result, deltas = future.result()
                except Exception as error:
                    deltas = getattr(error, "metrics_deltas", None)
                    failure = failure or error
                else:
                    results.append(result)
                if deltas is not None:
                    registry.absorb(deltas)
        if failure is not None:
            raise failure
        BACKEND_TASKS.labels(backend=self.name, event="completed").inc(
            len(tasks)
        )
        return results


def _run_worker_task(
    fn: Callable[..., Any],
    args: Task,
    trace: Optional[TraceHandle],
    backend_name: str,
) -> Any:
    """Worker shim: run one task, return ``(result, metrics deltas)``.

    Module-level (PROC002) so the pool can pickle it by name.  The
    fork-inherited registry is re-based before the task runs
    (:func:`~repro.observe.metrics.install_worker_metrics`).  This
    process's growth since the previous task — including the task
    wall-time observation — travels back with the result or, when the
    task raises, as the exception's ``metrics_deltas`` attribute (it
    pickles with the exception).  The task callable keeps its
    ``fn(*args, trace)`` contract.
    """
    registry = install_worker_metrics()
    started = time.perf_counter()

    def deltas() -> MetricsSnapshot:
        BACKEND_TASK_SECONDS.labels(backend_name).observe(
            time.perf_counter() - started
        )
        return registry.take_deltas()

    try:
        result = fn(*args, trace)
    except BaseException as error:
        error.metrics_deltas = deltas()
        raise
    return result, deltas()


class AsyncDispatcher:
    """Bounded async adapter over an :class:`ExecutorBackend`.

    The serve-side bridge between the event loop and the worker pool:
    coroutines submit blocking work, each submission runs in a worker
    thread (so the loop stays responsive) and the backend underneath
    decides the process topology exactly as it does for batch fan-outs.

    The bound is the backpressure contract: at most ``max_pending``
    submissions may be in flight, and one more raises
    :class:`~repro.errors.ServerBusyError` *immediately* — the server
    maps it to a 429 so clients shed load instead of queueing
    unboundedly.  All accounting happens on the event-loop thread, so
    no locks are needed.
    """

    def __init__(self, backend: ExecutorBackend, max_pending: int = 8):
        if max_pending < 1:
            raise ConfigError(
                f"async dispatcher needs max_pending >= 1, got {max_pending}"
            )
        self.backend = backend
        self.max_pending = max_pending
        self._pending = 0
        DISPATCH_CAPACITY.set(max_pending)

    @property
    def pending(self) -> int:
        """Submissions currently in flight."""
        return self._pending

    async def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run blocking ``fn(*args)`` in a thread, under the bound.

        The escape hatch for work that orchestrates its *own* backend
        fan-out (e.g. :func:`repro.sweep.run_sweep`): it counts against
        the same pending budget as :meth:`dispatch`, so a saturated
        server rejects every expensive request kind alike.
        """
        if self._pending >= self.max_pending:
            raise ServerBusyError(
                f"dispatch queue full ({self._pending} of "
                f"{self.max_pending} submissions in flight); retry later"
            )
        self._pending += 1
        DISPATCH_PENDING.set(self._pending)
        try:
            return await asyncio.to_thread(fn, *args)
        finally:
            self._pending -= 1
            DISPATCH_PENDING.set(self._pending)

    async def dispatch(self, fn: Callable[..., Any], task: Task) -> Any:
        """Run one task through the backend, under the bound.

        ``fn`` must be a module-level callable (PROC002: out-of-process
        backends pickle it by qualified name); the single task travels
        through :meth:`ExecutorBackend.map_tasks` so worker-trace
        plumbing and result ordering behave exactly as in batch mode.
        """
        results = await self.call(self.backend.map_tasks, fn, [task])
        return results[0]


def resolve_backend(
    backend: Union[str, ExecutorBackend, None],
    n_workers: int = 1,
) -> ExecutorBackend:
    """Normalize a backend knob plus a worker count to an instance.

    ``backend`` may be an :class:`ExecutorBackend` (returned as-is), a
    name, or ``None`` (meaning :data:`DEFAULT_BACKEND`).  ``n_workers``
    follows :func:`repro.parallel.resolve_jobs` semantics (1 = serial,
    0 = one per CPU).

    The single-worker fallback lives here: a ``process`` selection
    whose worker count resolves to 1 degrades to :class:`SerialBackend`
    — results are identical and the process spawn (interpreter start,
    argument pickling) is pure overhead.
    """
    from repro.parallel import resolve_jobs

    if isinstance(backend, ExecutorBackend):
        return backend
    name = DEFAULT_BACKEND if backend is None else validate_backend(backend)
    jobs = resolve_jobs(n_workers)
    if name == "serial" or jobs <= 1:
        return SerialBackend()
    return ProcessBackend(jobs)
