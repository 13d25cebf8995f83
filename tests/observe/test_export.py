"""Trace persistence: JSONL round-trips and cross-process merging.

The exporter's claim is that any number of processes can append to one
trace file and the read-back (:func:`~repro.observe.load_trace`)
reconstructs the full span tree and the true counter totals.  The
worker test exercises exactly the production path: a
``ProcessPoolExecutor`` whose tasks join the trace through a pickled
:class:`~repro.observe.TraceHandle`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.observe import (
    JsonlExporter,
    Tracer,
    install_worker_tracer,
    load_trace,
    merge_records,
    set_tracer,
)
from repro.observe.catalog import SYNTH_CALLS


def _worker_task(handle, index):
    """Pool task: join the trace, record one span."""
    tracer = install_worker_tracer(handle)
    try:
        with tracer.span("worker.task", index=index):
            pass
    finally:
        set_tracer(None)
    return index


class TestJsonlRoundTrip:
    """Write records, read the same trace back."""

    def test_spans_and_counters_round_trip(self, tmp_path):
        """Span tree, attributes and counter totals all survive."""
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(path, truncate=True))
        with tracer.span("root") as root:
            with tracer.span("child", key="abc"):
                pass
            SYNTH_CALLS.inc(7)
        tracer.finish()
        trace = load_trace(path)
        assert trace.span_names() == ["child", "root"]
        child = next(s for s in trace.spans if s["name"] == "child")
        assert child["parent"] == root.span_id
        assert child["attrs"] == {"key": "abc"}
        assert trace.counters == {"synth.calls": 7}
        assert trace.total_wall("root") == root.wall

    def test_truncate_clears_previous_contents(self, tmp_path):
        """``truncate=True`` empties the file eagerly at construction."""
        path = tmp_path / "t.jsonl"
        path.write_text('{"type":"span","stale":true}\n')
        JsonlExporter(path, truncate=True)
        assert path.read_text() == ""

    def test_append_mode_preserves_previous_contents(self, tmp_path):
        """Without ``truncate``, a new exporter appends (worker mode)."""
        path = tmp_path / "t.jsonl"
        first = Tracer(JsonlExporter(path))
        with first.span("one"):
            pass
        second = Tracer(JsonlExporter(path))
        with second.span("two"):
            pass
        assert len(load_trace(path).spans) == 2

    def test_unparseable_lines_are_skipped(self, tmp_path):
        """A torn line (crashed writer) doesn't fail the whole read."""
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(path))
        with tracer.span("ok"):
            pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "torn...\n')
        trace = load_trace(path)
        assert trace.span_names() == ["ok"]

    def test_merge_records_sums_counter_deltas(self):
        """Counter records from several runs in one file sum."""
        trace = merge_records([
            {"type": "counters", "counters": {"n": 3}},
            {"type": "counters", "counters": {"n": 4, "m": 1}},
        ])
        assert trace.counters == {"n": 7, "m": 1}


class TestWorkerMerge:
    """Spans from pool workers merge into the parent's trace file."""

    def test_worker_spans_nest_under_submitting_span(self, tmp_path):
        """Every worker span links to the span open at submission."""
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(path, truncate=True))
        n_tasks = 6
        with tracer.span("fanout") as fanout:
            handle = tracer.handle()
            with ProcessPoolExecutor(max_workers=2) as pool:
                results = list(
                    pool.map(_worker_task, [handle] * n_tasks, range(n_tasks))
                )
        tracer.finish()
        assert results == list(range(n_tasks))
        trace = load_trace(path)
        worker_spans = [s for s in trace.spans if s["name"] == "worker.task"]
        assert len(worker_spans) == n_tasks
        assert all(s["parent"] == fanout.span_id for s in worker_spans)
        assert all(s["trace"] == tracer.trace_id for s in worker_spans)
        assert sorted(s["attrs"]["index"] for s in worker_spans) == list(
            range(n_tasks)
        )

    def test_install_worker_tracer_drops_foreign_tracer(self):
        """Without a handle, a fork-inherited tracer must not leak:
        the installed tracer always belongs to the current process."""
        tracer = install_worker_tracer(None)
        import os

        assert tracer.pid == os.getpid()
