"""Tracer core: span nesting, timing, counters, the null default.

The span tree is the contract everything else (export, rendering)
builds on: children must link to the span open at their creation,
wall times must be real measurements, and the process-default
:class:`NullTracer` must swallow everything without side effects.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.observe import (
    NULL_TRACER,
    MemorySink,
    NullTracer,
    TraceHandle,
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.observe.catalog import STORE_ARTIFACT_EVENTS, SYNTH_CALLS


class TestSpans:
    """Nesting, timing and attributes of spans."""

    def test_nested_spans_link_parent_to_child(self):
        """An inner span's parent id is the enclosing span's id."""
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert [s.name for s in tracer.spans] == ["inner", "middle", "outer"]

    def test_siblings_share_a_parent(self):
        """Sequential spans at one level hang off the same parent."""
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_wall_time_is_measured(self):
        """A span's wall time covers the slept interval; nesting sums."""
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.02)
        assert inner.wall >= 0.02
        assert outer.wall >= inner.wall

    def test_attributes_at_open_and_post_hoc(self):
        """Attributes pass at open time and via :meth:`Span.set`."""
        tracer = Tracer()
        with tracer.span("stage", key="abc") as span:
            span.set(status="hit")
        assert span.attrs == {"key": "abc", "status": "hit"}

    def test_exception_closes_span_and_marks_error(self):
        """An exception still closes the span and tags its type."""
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.spans
        assert span.attrs["error"] == "ValueError"

    def test_record_span_uses_given_wall_time(self):
        """Pre-measured regions record with the caller's wall time."""
        tracer = Tracer()
        with tracer.span("parent") as parent:
            recorded = tracer.record_span("warm.hit", 1.25, status="hit")
        assert recorded.wall == 1.25
        assert recorded.parent_id == parent.span_id

    def test_span_ids_unique_and_pid_tagged(self):
        """Ids are unique and namespaced by the creating process."""
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [s.span_id for s in tracer.spans]
        assert len(set(ids)) == 5
        assert all(s.pid == tracer.pid for s in tracer.spans)


class TestSpanEvents:
    """Point-in-time events attached to the innermost open span."""

    def test_event_lands_on_the_open_span(self):
        """An event records its name, a timestamp and its attributes,
        and travels with the span's record."""
        tracer = Tracer()
        with tracer.span("load") as span:
            tracer.event("self_heal", stage="synth", file="bad.json")
        assert len(span.events) == 1
        event = span.events[0]
        assert event["name"] == "self_heal"
        assert event["t"] > 0
        assert event["attrs"] == {"stage": "synth", "file": "bad.json"}
        record = span.to_record()
        assert record["events"] == span.events

    def test_events_nest_with_spans(self):
        """The event binds to the innermost span, not the outermost."""
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("ping")
        assert outer.events == []
        assert inner.events[0]["name"] == "ping"

    def test_eventless_span_record_stays_lean(self):
        """No ``events`` key unless something happened — the common
        case pays nothing in the trace file."""
        tracer = Tracer()
        with tracer.span("quiet") as span:
            pass
        assert "events" not in span.to_record()

    def test_event_without_open_span_is_dropped(self):
        """Events only make sense inside a span; outside one they are
        discarded rather than raising."""
        tracer = Tracer()
        tracer.event("floating")  # must not raise
        assert tracer.spans == []

    def test_null_tracer_event_is_noop(self):
        NULL_TRACER.event("ignored", detail=1)
        with NULL_TRACER.span("nothing") as span:
            span.event("also-ignored")


class TestCounters:
    """The tracer's dotted-name view of the metrics registry."""

    def test_counters_are_registry_growth_since_construction(self):
        """Growth before the tracer existed is not reported; labeled
        and unlabeled catalog samples map to their dotted names."""
        SYNTH_CALLS.inc(5)
        tracer = Tracer()
        SYNTH_CALLS.inc(2)
        SYNTH_CALLS.inc()
        STORE_ARTIFACT_EVENTS.labels(event="hit").inc()
        assert tracer.counters() == {
            "synth.calls": 3,
            "store.artifact.hit": 1,
        }

    def test_finish_writes_one_counters_record(self):
        """``finish`` exports the counter view once, as one record."""
        sink = MemorySink()
        tracer = Tracer(sink)
        SYNTH_CALLS.inc(3)
        tracer.finish()
        counter_records = [r for r in sink.records if r["type"] == "counters"]
        assert [r["counters"] for r in counter_records] == [
            {"synth.calls": 3}
        ]


class TestNullTracer:
    """The no-op default: everything swallowed, nothing allocated."""

    def test_default_tracer_is_null(self):
        """With nothing installed, the active tracer is the shared null."""
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_operations_are_noops(self):
        """Spans and events discard; no counters report on the null
        tracer."""
        tracer = NullTracer()
        with tracer.span("ignored") as span:
            span.set(status="ignored")
        tracer.event("ignored")
        SYNTH_CALLS.inc()
        assert tracer.spans == []
        assert tracer.counters() == {}
        assert tracer.handle() is None

    def test_set_tracer_installs_and_restores(self):
        """``set_tracer`` swaps the active tracer; ``None`` restores."""
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert get_tracer() is NULL_TRACER


class TestHandles:
    """Trace handles and tracer pickling (the worker join path)."""

    def test_memory_tracer_has_no_handle(self):
        """Only file-backed tracers can merge across processes."""
        assert Tracer(MemorySink()).handle() is None
        assert Tracer().handle() is None

    def test_handle_captures_open_span(self, tmp_path):
        """The handle's parent is the span open at capture time."""
        from repro.observe import JsonlExporter

        tracer = Tracer(JsonlExporter(tmp_path / "t.jsonl"))
        with tracer.span("submit") as span:
            handle = tracer.handle()
        assert isinstance(handle, TraceHandle)
        assert handle.trace_id == tracer.trace_id
        assert handle.parent_id == span.span_id

    def test_handle_tracer_appends_to_same_file(self, tmp_path):
        """A handle rebuilds a tracer on the same file and trace id."""
        from repro.observe import JsonlExporter, load_trace

        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(path))
        with tracer.span("parent") as parent:
            handle = tracer.handle()
        worker = handle.tracer()
        with worker.span("child"):
            pass
        trace = load_trace(path)
        child = next(s for s in trace.spans if s["name"] == "child")
        assert child["parent"] == parent.span_id
        assert child["trace"] == tracer.trace_id

    def test_pickled_tracer_rejoins_file(self, tmp_path):
        """Pickling reduces to (path, trace id, open parent)."""
        from repro.observe import JsonlExporter

        tracer = Tracer(JsonlExporter(tmp_path / "t.jsonl"))
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.trace_id == tracer.trace_id
        assert str(clone.sink.path) == str(tracer.sink.path)
