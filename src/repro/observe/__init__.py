"""Observability: spans, counters, profiling for the whole flow.

The package answers "where does the wall time of a run go?" with three
pieces:

* :mod:`repro.observe.tracer` — a lightweight :class:`Tracer` with
  nested spans (name, attributes, wall/CPU time, peak-RSS delta) and a
  dotted-name view of the registry's work counters
  (:meth:`Tracer.counters`).  A no-op :class:`NullTracer` is the
  process default, so spans cost nothing when tracing is off.
* :mod:`repro.observe.export` — a process-safe JSONL exporter
  (``O_APPEND`` single-write lines) so spans emitted by
  ``ProcessPoolExecutor`` workers merge into one trace file, plus
  :func:`load_trace` to read a trace back.
* :mod:`repro.observe.render` — a console renderer printing the
  per-stage time tree with percentages and the counter totals.
* :mod:`repro.observe.ledger` — the append-only run ledger: one JSONL
  record per experiment run (scientific metrics, stage aggregates,
  fingerprints, host info) beside the artifact store.
* :mod:`repro.observe.analyze` — trace summarize/diff, the ledger
  trend report and the baseline regression gate behind ``python -m
  repro trace|report|check``.
* :mod:`repro.observe.metrics` — the one counter store: a
  process-wide registry of counters/gauges/histograms with labeled
  children and Prometheus text exposition (``GET /metrics`` on the
  tuning server).  Process-backend workers hand their growth back with
  each task result, so totals stay exact across processes; traces,
  the ledger and ``/metrics`` all read it.  Instruments are declared in
  :mod:`repro.observe.catalog`; :mod:`repro.observe.dashboard` renders
  snapshots for ``python -m repro metrics [--watch]``.

Entry points: ``FlowConfig(tracer=...)``, ``python -m repro fig10
--trace out.jsonl`` / ``--profile``, or directly::

    from repro import Tracer
    from repro.observe import JsonlExporter, load_trace, render_trace

    tracer = Tracer(JsonlExporter("out.jsonl", truncate=True))
    with tracer.span("my-run"):
        ...  # any instrumented repro code
    tracer.finish()
    print(render_trace(load_trace("out.jsonl")))
"""

from repro.observe.analyze import (
    TraceDiff,
    check_record,
    diff_traces,
    render_report,
    summarize_trace,
)
from repro.observe.export import JsonlExporter, MemorySink, Trace, load_trace, merge_records
from repro.observe.ledger import RunLedger, RunRecord, metrics_from_result
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramValue,
    MetricsRegistry,
    MetricsSnapshot,
    get_metrics,
    histogram_quantile,
    install_worker_metrics,
    load_metrics,
    log_buckets,
    parse_prometheus,
    render_prometheus,
)
from repro.observe.render import render_counters, render_trace, render_tree
from repro.observe.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceHandle,
    Tracer,
    get_tracer,
    install_worker_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "JsonlExporter",
    "MemorySink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TRACER",
    "NullTracer",
    "RunLedger",
    "RunRecord",
    "Span",
    "Trace",
    "TraceDiff",
    "TraceHandle",
    "Tracer",
    "check_record",
    "diff_traces",
    "get_metrics",
    "get_tracer",
    "histogram_quantile",
    "install_worker_metrics",
    "install_worker_tracer",
    "load_metrics",
    "load_trace",
    "log_buckets",
    "merge_records",
    "metrics_from_result",
    "parse_prometheus",
    "render_counters",
    "render_prometheus",
    "render_report",
    "render_trace",
    "render_tree",
    "set_tracer",
    "summarize_trace",
]
