"""Console rendering: the time tree, shares and counter tables."""

from __future__ import annotations

import json

from repro.observe import (
    MemorySink,
    Trace,
    Tracer,
    load_trace,
    render_counters,
    render_trace,
    render_tree,
)
from repro.observe.catalog import SYNTH_CALLS


def _span(name, span_id, parent, wall, start=0.0):
    """A minimal span record for rendering tests."""
    return {
        "type": "span",
        "name": name,
        "id": span_id,
        "parent": parent,
        "wall": wall,
        "cpu": wall,
        "start": start,
    }


class TestRenderTree:
    """Grouping, ordering and percentage arithmetic of the tree."""

    def test_empty_trace(self):
        """No spans renders a clear placeholder line."""
        assert "no spans" in render_tree([])

    def test_groups_siblings_by_name_with_counts(self):
        """Same-name siblings fold to one ``xN`` line; shares are of
        the parent's wall time."""
        spans = [
            _span("root", "r", None, 10.0),
            _span("work", "w1", "r", 4.0, start=1),
            _span("work", "w2", "r", 4.0, start=2),
        ]
        text = render_tree(spans)
        assert "x2" in text
        assert "80.0%" in text  # 8s of work under a 10s root
        assert "(self)" in text  # the remaining 2s
        assert "20.0%" in text

    def test_orphan_spans_render_as_roots(self):
        """A span whose parent isn't in the file (cross-process tail)
        still renders, as a root."""
        spans = [_span("lonely", "x", "missing-parent", 1.0)]
        text = render_tree(spans)
        assert "lonely" in text
        assert "1 spans" in text

    def test_deep_nesting_indents(self):
        """Child groups indent under their parents."""
        spans = [
            _span("a", "1", None, 4.0),
            _span("b", "2", "1", 3.0),
            _span("c", "3", "2", 2.0),
        ]
        lines = render_tree(spans).splitlines()
        a_line = next(l for l in lines if l.lstrip().startswith("a"))
        c_line = next(l for l in lines if l.lstrip().startswith("c"))
        assert len(c_line) - len(c_line.lstrip()) > len(a_line) - len(
            a_line.lstrip()
        )


class TestPartialTraces:
    """Truncated files and unfinished spans render, never raise.

    The shape a killed worker (or a hand-truncated file) leaves
    behind: span records without close-time fields, torn lines,
    orphans whose parent never hit the disk.
    """

    def test_unfinished_span_marked(self):
        """A span missing ``wall``/``cpu`` renders ``[unfinished]``
        with zero wall time, and the header counts it."""
        spans = [
            _span("root", "r", None, 5.0),
            {"type": "span", "name": "cut", "id": "c", "parent": "r"},
        ]
        text = render_tree(spans)
        assert "cut [unfinished]" in text
        assert "(1 unfinished)" in text

    def test_hand_truncated_jsonl_round_trip(self, tmp_path):
        """A hand-built partial trace — finished span, unfinished
        span, torn line, orphan — loads and renders end to end."""
        path = tmp_path / "partial.jsonl"
        records = [
            _span("run", "r", None, 3.0),
            {"type": "span", "name": "killed", "id": "k", "parent": "r"},
            _span("tail", "t", "never-written", 1.0),
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
            handle.write('{"type": "span", "name": "to')  # torn mid-write
        trace = load_trace(path)
        assert len(trace.spans) == 3
        text = render_trace(trace)
        assert "killed [unfinished]" in text
        assert "tail" in text  # orphan promoted to a root
        assert "run" in text

    def test_all_spans_unfinished(self):
        """Even a trace with no finished span renders a tree."""
        spans = [{"type": "span", "name": "only", "id": "o", "parent": None}]
        text = render_tree(spans)
        assert "only [unfinished]" in text
        assert "0.000s at the root" in text

    def test_multi_trace_id_warning(self):
        """Interleaved runs in one file are called out up front."""
        trace = Trace(
            spans=[_span("run", "r", None, 1.0)],
            trace_ids=["t1", "t2"],
        )
        assert "interleaved traces" in render_trace(trace)


class TestRenderCounters:
    """The counter/gauge table."""

    def test_counters_listed(self):
        """Counter totals render sorted by name."""
        text = render_counters({"b.count": 2, "a.count": 1})
        assert text.index("a.count") < text.index("b.count")

    def test_empty(self):
        """Nothing recorded renders a placeholder."""
        assert "none recorded" in render_counters({})


class TestRenderTrace:
    """End to end: a live tracer's output renders as tree + counters."""

    def test_full_report(self):
        """A real traced region produces both sections."""
        tracer = Tracer(MemorySink())
        with tracer.span("run"):
            with tracer.span("step"):
                pass
            SYNTH_CALLS.inc(3)
        trace = Trace(
            spans=[s.to_record() for s in tracer.spans],
            counters=tracer.counters(),
        )
        text = render_trace(trace)
        assert "run" in text and "step" in text
        assert "synth.calls" in text
