"""Nested-span tracing and the trace's view of the work counters.

The tracing model is deliberately small — two record kinds cover the
whole flow:

* a **span** is one timed region of work: a name, free-form attributes,
  wall time, CPU time and the peak-RSS growth observed while it ran.
  Spans nest (per thread) and carry ``parent_id`` links, so a trace
  reconstructs the stage tree of a run: experiment -> flow stage ->
  synthesis phase -> STA pass -> per-cell characterization.
* a **counter** is a monotone named total (cells characterized, MC
  samples drawn, sizing iterations, STA node visits, cache hits and
  misses per store).  Counters live in the metrics registry
  (:mod:`repro.observe.metrics`), not here: :meth:`Tracer.counters`
  reads their growth since the tracer was built, under the dotted
  names of :data:`repro.observe.catalog.TRACE_COUNTERS`.

A :class:`Tracer` owns the spans plus an optional export sink (see
:mod:`repro.observe.export`).  The active tracer is a per-process
global (:func:`get_tracer` / :func:`set_tracer`) defaulting to a
:class:`NullTracer` whose every operation is a no-op — instrumentation
left in the hot path costs one dictionary-free method call when
tracing is off.

Worker processes join a trace through a picklable :class:`TraceHandle`
(file path, trace id, parent span id): the pool entry point calls
:func:`install_worker_tracer` and the worker's spans land in the same
JSONL file under the submitting span, merging the fan-out back into
one tree.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.observe.catalog import TRACE_COUNTERS

try:
    import resource

    def _peak_rss_kib() -> int:
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

except ImportError:  # pragma: no cover - non-POSIX platforms

    def _peak_rss_kib() -> int:
        return 0


def _new_trace_id() -> str:
    return os.urandom(8).hex()


@dataclass
class Span:
    """One timed, attributed region of work.

    ``wall``/``cpu``/``rss_delta_kib`` are filled in when the span
    closes; ``start`` is an epoch timestamp so spans from different
    processes interleave correctly in a merged trace.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    rss_delta_kib: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes after the span opened."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time anomaly or milestone inside the span.

        Events ride along in the span's trace record — the natural
        home for things that happen *during* a stage but are not
        stages themselves: a cache entry found corrupted and healed, a
        retry, a fallback taken.
        """
        record: Dict[str, Any] = {"name": name, "t": time.time()}
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)

    def to_record(self) -> Dict[str, Any]:
        """JSON-serializable rendering (one trace-file line)."""
        record = {
            "type": "span",
            "trace": self.trace_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "pid": self.pid,
            "start": self.start,
            "wall": self.wall,
            "cpu": self.cpu,
            "rss_kib": self.rss_delta_kib,
        }
        if self.events:
            record["events"] = self.events
        return record


class _NullSpan(Span):
    """Shared dummy span handed out by :class:`NullTracer`."""

    def set(self, **attrs: Any) -> None:
        """Discard attributes (tracing is off)."""

    def event(self, name: str, **attrs: Any) -> None:
        """Discard the event (tracing is off)."""


_NULL_SPAN = _NullSpan(
    name="null", trace_id="", span_id="", parent_id=None, pid=0
)


class _SpanContext:
    """Context manager closing a span and handing it to its tracer."""

    __slots__ = ("_tracer", "_span", "_t0", "_c0", "_r0")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        self._r0 = _peak_rss_kib()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.wall = time.perf_counter() - self._t0
        span.cpu = time.process_time() - self._c0
        span.rss_delta_kib = max(0, _peak_rss_kib() - self._r0)
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close_span(span)
        return False


class _NullContext:
    """Reusable no-op context manager for :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


@dataclass(frozen=True)
class TraceHandle:
    """Picklable pointer a worker process uses to join a trace.

    Carries everything a worker needs to merge its spans into the
    parent's trace file: the JSONL path, the trace id and the span id
    the worker's spans should hang under.
    """

    path: str
    trace_id: str
    parent_id: Optional[str]

    def tracer(self) -> "Tracer":
        """Build a tracer appending to the handle's trace file."""
        from repro.observe.export import JsonlExporter

        return Tracer(
            sink=JsonlExporter(self.path),
            trace_id=self.trace_id,
            parent_id=self.parent_id,
        )


def _counter_totals() -> Dict[str, float]:
    """Current registry totals under their dotted trace names."""
    return {
        name: family.value(*labels)
        for name, (family, labels) in TRACE_COUNTERS.items()
    }


class Tracer:
    """Collects spans and reads counter growth; optionally exports them.

    Thread-safe: each thread keeps its own span stack (spans nest per
    thread), the finished-span list is lock-guarded.
    Process-safe export: every finished span is written as one
    appended JSONL line, so tracers in different processes sharing one
    file interleave without tearing (see :mod:`repro.observe.export`).

    Pickling a tracer reduces it to its :class:`TraceHandle` (path,
    trace id, the currently open span as parent), which is how
    ``FlowConfig.tracer`` travels into sweep worker processes.
    """

    #: Tracing is active (the :class:`NullTracer` overrides this).
    enabled = True

    def __init__(
        self,
        sink: Optional[Any] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ):
        self.sink = sink
        self.trace_id = trace_id or _new_trace_id()
        self._root_parent = parent_id
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: List[Span] = []
        self._counter_base = _counter_totals()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def pid(self) -> int:
        """Process id the tracer was created in."""
        return self._pid

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span of this thread (or the root
        parent the tracer was created with)."""
        stack = self._stack()
        return stack[-1].span_id if stack else self._root_parent

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span; use as a context manager.

        The yielded :class:`Span` accepts post-hoc attributes via
        :meth:`Span.set` (e.g. a cache status known only at the end).
        """
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=f"{self._pid:x}-{next(self._ids):x}",
            parent_id=self.current_span_id(),
            pid=self._pid,
            attrs=dict(attrs),
            start=time.time(),
        )
        self._stack().append(span)
        return _SpanContext(self, span)

    def _close_span(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
        if self.sink is not None:
            self.sink.write(span.to_record())

    def record_span(
        self, name: str, wall: float, parent_id: Optional[str] = None, **attrs: Any
    ) -> Span:
        """Record an already-measured region as a span.

        For code that timed itself before tracing existed (e.g. the
        run-manifest stage records): the span closes immediately with
        the given wall time and no CPU/RSS detail.
        """
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=f"{self._pid:x}-{next(self._ids):x}",
            parent_id=parent_id if parent_id is not None else self.current_span_id(),
            pid=self._pid,
            attrs=dict(attrs),
            start=time.time() - wall,
            wall=wall,
        )
        with self._lock:
            self.spans.append(span)
        if self.sink is not None:
            self.sink.write(span.to_record())
        return span

    # ------------------------------------------------------------------
    # Events and counters
    # ------------------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Attach an event to this thread's innermost open span.

        The affordance instrumented code wants when something
        noteworthy happens mid-stage (e.g. the artifact store healing a
        corrupted entry) without knowing which span is open.  With no
        span open the event is dropped — events only make sense in the
        context of the work they interrupted.
        """
        stack = self._stack()
        if stack:
            stack[-1].event(name, **attrs)

    def counters(self) -> Dict[str, float]:
        """Registry growth since this tracer was built, by dotted name.

        Only counters that grew appear.  Process-backend workers hand
        their growth back with each task result, so the totals include
        them.
        """
        return {
            name: total - self._counter_base[name]
            for name, total in _counter_totals().items()
            if total != self._counter_base[name]
        }

    # ------------------------------------------------------------------
    # Export plumbing
    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Write :meth:`counters` as the trace's one ``counters`` record
        and sync the sink.  Call once, when the traced run ends."""
        if self.sink is None:
            return
        counters = self.counters()
        if counters:
            self.sink.write({
                "type": "counters",
                "trace": self.trace_id,
                "pid": self._pid,
                "counters": counters,
            })
        self.sink.flush()

    def handle(self) -> Optional[TraceHandle]:
        """A picklable handle for worker processes, or ``None`` when
        the tracer has no file sink to merge into."""
        path = getattr(self.sink, "path", None)
        if path is None:
            return None
        return TraceHandle(str(path), self.trace_id, self.current_span_id())

    # ------------------------------------------------------------------
    # Pickling (how FlowConfig.tracer reaches sweep workers)
    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        path = getattr(self.sink, "path", None)
        return {
            "path": None if path is None else str(path),
            "trace_id": self.trace_id,
            "parent_id": self.current_span_id(),
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        sink = None
        if state["path"] is not None:
            from repro.observe.export import JsonlExporter

            sink = JsonlExporter(state["path"])
        self.__init__(
            sink=sink, trace_id=state["trace_id"], parent_id=state["parent_id"]
        )


class NullTracer(Tracer):
    """A tracer whose every operation is a no-op.

    The default active tracer: instrumentation in the hot path reduces
    to one cheap method call, so an untraced run pays (almost) nothing.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullContext:
        """Return the shared no-op context manager."""
        return _NULL_CONTEXT

    def record_span(
        self, name: str, wall: float, parent_id: Optional[str] = None, **attrs: Any
    ) -> "Span":
        """Discard the record; returns the shared dummy span."""
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        """Discard the event."""

    def counters(self) -> Dict[str, float]:
        """Nothing is counted against the null tracer."""
        return {}

    def handle(self) -> Optional[TraceHandle]:
        """Null tracers never merge across processes."""
        return None

    @property
    def pid(self) -> int:
        """Always the current process (null tracers survive forks)."""
        return os.getpid()


#: The process-wide default tracer (all instrumentation is off).
NULL_TRACER = NullTracer()

_ACTIVE: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide active tracer (a no-op tracer by default)."""
    return _ACTIVE


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the active tracer; returns the previous.

    ``None`` restores the no-op default.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


_WORKER_TRACERS: Dict[tuple, Tracer] = {}


def install_worker_tracer(handle: Optional[TraceHandle]) -> Tracer:
    """Activate (and memoize) a tracer for ``handle`` in this process.

    Pool entry points call this first thing: with a handle, the worker
    gets a tracer appending to the parent's trace file (reused across
    tasks landing in the same worker process); with ``None`` — tracing
    off, or an in-memory-only parent tracer — any tracer inherited
    through ``fork`` from the parent process is dropped so worker spans
    can never masquerade as parent spans.
    """
    if handle is None:
        if get_tracer().pid != os.getpid():
            set_tracer(None)
        return get_tracer()
    key = (handle.path, handle.trace_id, handle.parent_id)
    tracer = _WORKER_TRACERS.get(key)
    if tracer is None or tracer.pid != os.getpid():
        tracer = handle.tracer()
        _WORKER_TRACERS[key] = tracer
    set_tracer(tracer)
    return tracer
