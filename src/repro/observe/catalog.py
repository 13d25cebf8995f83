"""The closed catalog of every live metric the repo emits.

Every instrument is declared *here*, bound to the process-wide
registry, and imported by the module that drives it — never created
at the point of use.  The OBS001 lint rule enforces the closure: a
``repro_``-prefixed metric name handed to ``.counter()`` / ``.gauge()``
/ ``.histogram()`` anywhere else in ``repro.*`` is flagged, so a typo
can never silently fork a time series.

The full name / type / labels / owner table is documented in
DESIGN.md §17; keep the two in sync when adding instruments (a test
checks both directions).  :data:`TRACE_COUNTERS` maps the dotted names
a trace reports (``Tracer.counters()``) onto these counters.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    get_metrics,
    log_buckets,
)

_REGISTRY = get_metrics()

# -- serve: the HTTP front (repro.serve.server / handlers / coalesce) --

#: Requests answered, by request kind and outcome
#: (``computed`` / ``warm`` / ``coalesced`` / ``ok`` / ``error`` /
#: ``rejected``).
SERVE_REQUESTS: Counter = _REGISTRY.counter(
    "repro_serve_requests_total",
    "Requests answered by the tuning server",
    labelnames=("kind", "outcome"),
)

#: End-to-end request latency (route + handler), seconds.
SERVE_REQUEST_SECONDS: Histogram = _REGISTRY.histogram(
    "repro_serve_request_seconds",
    "End-to-end request latency in seconds",
    labelnames=("kind", "outcome"),
    buckets=log_buckets(-4, 2),
)

#: Responses by HTTP status class (2xx / 4xx / 5xx).
SERVE_HTTP_RESPONSES: Counter = _REGISTRY.counter(
    "repro_serve_http_responses_total",
    "HTTP responses by status class",
    labelnames=("class",),
)

#: Requests currently inside the router (accepted, not yet answered).
SERVE_INFLIGHT: Gauge = _REGISTRY.gauge(
    "repro_serve_inflight_requests",
    "Requests currently being routed",
)

#: Coalescer role counts: one ``leader`` runs the computation, every
#: ``follower`` piggybacks on the leader's result.
SERVE_COALESCE: Counter = _REGISTRY.counter(
    "repro_serve_coalesce_total",
    "Coalesced request groups by role",
    labelnames=("role",),
)

# -- dispatch: the bounded async bridge (repro.parallel.backends) ------

#: Blocking submissions currently in flight on the dispatcher.
DISPATCH_PENDING: Gauge = _REGISTRY.gauge(
    "repro_dispatch_pending",
    "Dispatcher submissions in flight",
)

#: The dispatcher's backpressure bound (429 above this).
DISPATCH_CAPACITY: Gauge = _REGISTRY.gauge(
    "repro_dispatch_capacity",
    "Dispatcher backpressure bound",
)

# -- execution backends (repro.parallel.backends) ----------------------

#: Tasks crossing a backend, by backend name and lifecycle event
#: (``dispatched`` / ``completed``).
BACKEND_TASKS: Counter = _REGISTRY.counter(
    "repro_backend_tasks_total",
    "Tasks dispatched to and completed by execution backends",
    labelnames=("backend", "event"),
)

#: Wall time of one backend task, seconds, measured in the worker.
BACKEND_TASK_SECONDS: Histogram = _REGISTRY.histogram(
    "repro_backend_task_seconds",
    "Per-task worker wall time in seconds",
    labelnames=("backend",),
    buckets=log_buckets(-4, 2),
)

# -- the artifact store, both codecs (repro.parallel.artifacts) --------

#: Artifact-store lookups by event (``hit`` / ``miss`` / ``healed``).
STORE_ARTIFACT_EVENTS: Counter = _REGISTRY.counter(
    "repro_store_artifact_total",
    "Artifact store lookups by event",
    labelnames=("event",),
)

#: Artifact bytes crossing the disk boundary (``read`` / ``written``).
STORE_ARTIFACT_BYTES: Counter = _REGISTRY.counter(
    "repro_store_artifact_bytes_total",
    "Artifact store bytes by direction",
    labelnames=("direction",),
)

# -- characterization (repro.characterization) -------------------------

#: Cells fully characterized (statistical or per-sample).
CHARACTERIZE_CELLS: Counter = _REGISTRY.counter(
    "repro_characterize_cells_total",
    "Cells characterized",
)

#: Monte-Carlo samples evaluated across all characterized cells.
CHARACTERIZE_MC_SAMPLES: Counter = _REGISTRY.counter(
    "repro_characterize_mc_samples_total",
    "Monte-Carlo samples evaluated",
)

# -- synthesis and timing (repro.synth.synthesizer, repro.sta.engine) --

#: Synthesis runs (one per ``synthesize`` call, min-period probes too).
SYNTH_CALLS: Counter = _REGISTRY.counter(
    "repro_synth_calls_total",
    "Synthesis runs",
)

#: Sizing-loop iterations across all synthesis runs.
SYNTH_SIZING_ITERATIONS: Counter = _REGISTRY.counter(
    "repro_synth_sizing_iterations_total",
    "Sizing-loop iterations",
)

#: Buffers inserted across all synthesis runs.
SYNTH_BUFFER_INSTANCES: Counter = _REGISTRY.counter(
    "repro_synth_buffer_instances_total",
    "Buffer instances inserted",
)

#: Full static-timing passes.
STA_ANALYZE_CALLS: Counter = _REGISTRY.counter(
    "repro_sta_analyze_calls_total",
    "Static timing analysis passes",
)

#: Timing-graph nodes (nets) visited across all passes.
STA_NODE_VISITS: Counter = _REGISTRY.counter(
    "repro_sta_node_visits_total",
    "Timing-graph nodes visited",
)

#: Timing arcs evaluated across all passes.
STA_ARC_EVALUATIONS: Counter = _REGISTRY.counter(
    "repro_sta_arc_evaluations_total",
    "Timing arcs evaluated",
)

# -- the trace's view of the registry (repro.observe.tracer) -----------

#: Dotted trace-counter name -> (catalog counter, label values).
#: ``Tracer.counters()`` reports the growth of exactly these samples.
TRACE_COUNTERS: Dict[str, Tuple[Counter, Tuple[str, ...]]] = {
    "characterize.cells": (CHARACTERIZE_CELLS, ()),
    "characterize.mc_samples": (CHARACTERIZE_MC_SAMPLES, ()),
    "store.artifact.hit": (STORE_ARTIFACT_EVENTS, ("hit",)),
    "store.artifact.miss": (STORE_ARTIFACT_EVENTS, ("miss",)),
    "store.artifact.healed": (STORE_ARTIFACT_EVENTS, ("healed",)),
    "synth.calls": (SYNTH_CALLS, ()),
    "synth.sizing_iterations": (SYNTH_SIZING_ITERATIONS, ()),
    "synth.buffer_instances": (SYNTH_BUFFER_INSTANCES, ()),
    "sta.analyze_calls": (STA_ANALYZE_CALLS, ()),
    "sta.node_visits": (STA_NODE_VISITS, ()),
    "sta.arc_evaluations": (STA_ARC_EVALUATIONS, ()),
}
