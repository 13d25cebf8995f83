"""Request handling: typed requests in, typed responses out.

:class:`TuningService` is the transport-free core of the tuning
service — :mod:`repro.serve.server` wraps it in HTTP, the tests drive
it directly on an event loop.  Each request flows through the same
stations:

1. **Resolve** — the request becomes a
   :class:`~repro.flow.experiment.FlowConfig` via
   :meth:`~repro.flow.experiment.FlowConfig.from_env`, with request
   fields (scale, design) taking precedence over the server's own
   config, which took precedence over the environment at startup.
2. **Fingerprint** — the point's chained stage fingerprints come from
   :func:`repro.sweep.driver.point_keys`, which asks the request's
   flow — the one place keys are derived — so the artifact store
   doubles as the service's warm/cold oracle.
3. **Coalesce** — cold work keys into the
   :class:`~repro.serve.coalesce.RequestCoalescer` on the tuned chain's
   terminal fingerprint; N identical in-flight requests share one
   computation.
4. **Dispatch** — cold leaders go through the
   :class:`~repro.parallel.backends.AsyncDispatcher` onto the
   configured :class:`~repro.parallel.backends.ExecutorBackend`, with
   bounded backpressure (a full queue raises
   :class:`~repro.errors.ServerBusyError` → HTTP 429).  Warm hits skip
   the dispatcher entirely and stream straight from the store through
   a per-config serial collection flow.

Every handler is ``async`` but never blocks the event loop: anything
that touches the pipeline runs in a worker thread or on the backend.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigError, RequestError
from repro.flow.experiment import FlowConfig, TuningFlow
from repro.flow.metrics import TuningComparison
from repro.flow.pipeline import _sweep_worker
from repro.parallel.artifacts import fingerprint
from repro.parallel.backends import AsyncDispatcher, resolve_backend
from repro.serve.schema import (
    SCHEMA_VERSION,
    Request,
    Response,
    StatusRequest,
    StatusResponse,
    SweepRequest,
    SweepResponse,
    TuneRequest,
    TuneResponse,
)
from repro.serve.coalesce import RequestCoalescer

#: A point-evaluation hook: ``(config, (clock, method, parameter)) ->
#: TuningComparison``.  The default is the sweep worker; tests inject
#: a stub to exercise the service without synthesis.
EvaluateHook = Callable[[FlowConfig, Tuple[float, Optional[str], float]], Any]


def default_evaluate(
    config: FlowConfig, point: Tuple[float, Optional[str], float]
) -> TuningComparison:
    """Evaluate one sweep point in a fresh serial flow (the default).

    Module-level and picklable so the process backend can ship it to
    workers (lint rule PROC002).
    """
    return _sweep_worker(config, point)


class TuningService:
    """The transport-free tuning service core.

    One instance owns the dispatcher (bounded worker-pool access), the
    coalescer (in-flight dedup), a memoized warm collection flow per
    distinct config, and the request counters the status endpoint
    reports.  All mutable state lives on the event-loop thread; the
    only cross-thread traffic is the work itself.
    """

    def __init__(
        self,
        config: Optional[FlowConfig] = None,
        max_pending: int = 8,
        evaluate: Optional[EvaluateHook] = None,
    ):
        """Build a service around ``config`` (default: from the env).

        ``max_pending`` bounds concurrent backend submissions — the
        backpressure knob.  ``evaluate`` overrides how a cold point is
        computed (tests inject stubs; the default runs the real sweep
        worker).
        """
        self.config = config if config is not None else FlowConfig.from_env()
        if not self.config.cache:
            raise ConfigError(
                "the tuning service streams warm results from the artifact "
                "store; enable the cache (FlowConfig(cache=True))"
            )
        from repro.observe.metrics import set_metrics_enabled

        set_metrics_enabled(self.config.metrics)
        self.backend = resolve_backend(
            self.config.backend, self.config.n_workers
        )
        self.dispatcher = AsyncDispatcher(self.backend, max_pending)
        self.coalescer = RequestCoalescer()
        self._evaluate: EvaluateHook = (
            evaluate if evaluate is not None else default_evaluate
        )
        self._flows: Dict[FlowConfig, TuningFlow] = {}
        self.started_at = time.time()
        #: Requests served, by outcome (``warm`` / ``computed`` /
        #: ``coalesced`` / ``status`` / ``error`` / ``rejected``).
        self.counters: Dict[str, int] = {}

    # -- resolution ---------------------------------------------------

    def request_config(self, request: Request) -> FlowConfig:
        """Resolve a request into the FlowConfig its work runs under.

        Precedence per knob: request field > server config (which beat
        the environment at startup) > default.  A request naming a
        scale re-resolves through :meth:`FlowConfig.from_env` with the
        server's execution knobs carried over explicitly, so two
        requests differing only in scale share the worker pool but not
        the science knobs.  A ``design`` field resolves through the
        design-family registry relative to the config's base design.
        """
        from repro.netlist.generators.family import design_spec

        config = self.config
        scale = getattr(request, "scale", None)
        if scale is not None:
            config = FlowConfig.from_env(
                scale=scale,
                jobs=self.config.n_workers,
                backend=self.config.backend,
                cache=self.config.cache,
                metrics=self.config.metrics,
            )
        design = getattr(request, "design", None)
        if design is not None:
            config = replace(
                config, design=design_spec(design).params(config.design)
            )
        return replace(config, tracer=None)

    def _flow(self, config: FlowConfig) -> TuningFlow:
        """The memoized warm serial collection flow for ``config``.

        Collection flows only ever read artifacts the workers stored,
        so they are normalized to serial single-worker execution — the
        backend knob belongs to the dispatcher, not to reads.
        """
        key = replace(config, n_workers=1, backend="serial", tracer=None)
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = TuningFlow(key)
        return flow

    def _count(self, outcome: str) -> None:
        """Bump the per-outcome request counter."""
        self.counters[outcome] = self.counters.get(outcome, 0) + 1

    # -- handlers -----------------------------------------------------

    async def handle(self, request: Request, trace_id: str) -> Response:
        """Dispatch a parsed request to its handler."""
        if isinstance(request, TuneRequest):
            return await self.tune(request, trace_id)
        if isinstance(request, SweepRequest):
            return await self.sweep(request, trace_id)
        if isinstance(request, StatusRequest):
            self._count("status")
            # status() walks the artifact store on disk — keep that
            # off the event loop.
            report = await asyncio.to_thread(self.status)
            return StatusResponse(status=report, trace_id=trace_id)
        raise RequestError(
            f"no handler for request kind {getattr(request, 'kind', '?')!r}"
        )

    async def tune(
        self, request: TuneRequest, trace_id: str
    ) -> TuneResponse:
        """Serve one tuning comparison (baseline vs tuned point).

        Warm points (every chained artifact already stored) stream
        through the collection flow without touching the dispatcher;
        cold points coalesce on the tuned chain's terminal fingerprint
        and dispatch one sweep-worker evaluation for all waiters.
        """
        from repro.core.methods import method_by_name
        from repro.sweep.driver import GridPoint, point_keys

        start = time.perf_counter()
        config = self.request_config(request)
        method = method_by_name(request.method)  # typo -> TuningError (400)
        flow = self._flow(config)
        point = GridPoint(
            request.design, method.name, request.parameter,
            request.clock_period,
        )

        def probe() -> Tuple[str, bool]:
            """Fingerprint the point and check store warmth (thread)."""
            keys = point_keys(flow, point)
            return keys.tuned[-1][1], all(flow.stored(keys))

        identity, warm = await asyncio.to_thread(probe)
        task = (point.clock_period, method.name, point.parameter)
        if warm:

            async def collect() -> TuningComparison:
                return await asyncio.to_thread(flow.compare, *task)

            comparison, _ = await self.coalescer.run(
                f"warm:{identity}", collect
            )
            outcome = "warm"
        else:
            worker_config = replace(config, tracer=None)

            async def compute() -> TuningComparison:
                return await self.dispatcher.call(
                    self._evaluate, worker_config, task
                )

            comparison, joined = await self.coalescer.run(
                f"cold:{identity}", compute
            )
            outcome = "coalesced" if joined else "computed"
        self._count(outcome)
        return TuneResponse(
            method=comparison.method,
            parameter=comparison.parameter,
            clock_period=comparison.clock_period,
            design=request.design,
            baseline_sigma=comparison.baseline_sigma,
            tuned_sigma=comparison.tuned_sigma,
            baseline_area=comparison.baseline_area,
            tuned_area=comparison.tuned_area,
            sigma_reduction=comparison.sigma_reduction,
            area_increase=comparison.area_increase,
            tuned_met=comparison.tuned_met,
            outcome=outcome,
            trace_id=trace_id,
            wall_ms=(time.perf_counter() - start) * 1e3,
        )

    async def sweep(
        self, request: SweepRequest, trace_id: str
    ) -> SweepResponse:
        """Serve one incremental grid sweep.

        The whole grid coalesces as a unit (key: grid axes + statlib
        fingerprint + guard band), and the sweep itself — including its
        own store diffing — runs through the dispatcher as a single
        bounded submission.  A fully warm grid reports outcome
        ``warm`` (``scheduled == 0``).
        """
        from repro.sweep.driver import SweepGrid, run_sweep

        start = time.perf_counter()
        config = self.request_config(request)
        grid = SweepGrid(
            designs=request.designs,
            methods=request.methods,
            parameters=request.parameters,
            clock_periods=request.clock_periods,
        )
        grid.points()  # validate designs/methods before dispatch
        flow = self._flow(config)
        statlib_key = await asyncio.to_thread(lambda: flow.statlib_key)
        identity = fingerprint(
            {
                "kind": "sweep",
                "statlib": statlib_key,
                "designs": list(grid.designs),
                "methods": None if grid.methods is None else list(grid.methods),
                "parameters": (
                    None if grid.parameters is None else list(grid.parameters)
                ),
                "clocks": list(grid.clock_periods),
                "guard_band": config.guard_band,
            }
        )

        async def compute() -> Any:
            return await self.dispatcher.call(
                run_sweep, config, grid, self.backend, False
            )

        result, joined = await self.coalescer.run(
            f"sweep:{identity}", compute
        )
        if result.scheduled == 0:
            outcome = "warm"
        else:
            outcome = "coalesced" if joined else "computed"
        self._count(outcome)
        points = tuple(
            {
                "label": item.point.label(),
                "status": item.status,
                "sigma_reduction": item.comparison.sigma_reduction,
                "area_increase": item.comparison.area_increase,
                "tuned_met": item.comparison.tuned_met,
            }
            for item in result.results
        )
        return SweepResponse(
            points=points,
            counts=dict(result.counts),
            scheduled=result.scheduled,
            backend=result.backend,
            outcome=outcome,
            trace_id=trace_id,
            wall_ms=(time.perf_counter() - start) * 1e3,
        )

    # -- introspection ------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the service's health and load.

        ``store.entries`` counts every stored artifact, characterized
        libraries included.
        """
        import repro
        from repro.parallel.artifacts import ArtifactStore

        store_stats: Dict[str, Any] = {}
        if self.config.cache:
            stats = ArtifactStore().stats()
            store_stats = {
                "entries": stats.entries,
                "kib": round(stats.total_bytes / 1024, 1),
            }
        return {
            "schema": SCHEMA_VERSION,
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "scale": self.config.scale_name(),
            "backend": self.backend.name,
            "workers": self.backend.n_workers,
            "pending": self.dispatcher.pending,
            "capacity": self.dispatcher.max_pending,
            "inflight": self.coalescer.inflight,
            "coalesced": self.coalescer.coalesced,
            "computations": self.coalescer.started,
            "requests": dict(self.counters),
            "store": store_stats,
        }
