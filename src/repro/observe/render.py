"""Console rendering of traces: the per-stage time tree and counters.

The tree groups sibling spans by name — 304 ``characterize.cell``
spans render as one line with a count — and shows, per group, the
call count, total wall time and its percentage of the parent span's
wall time.  Unaccounted parent time shows as a ``(self)`` line, so a
serial run's percentages sum to ~100% at every level; concurrent
children (worker fan-out) can legitimately exceed 100% of the parent's
wall clock, which is itself useful signal — it *is* the parallel
speedup.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.observe.export import Trace

#: Child groups below this share of their parent are folded away.
_MIN_SHARE = 0.002


def _wall(span: Dict[str, Any]) -> float:
    """A span's wall time; unclosed spans count as zero."""
    wall = span.get("wall")
    return wall if isinstance(wall, (int, float)) else 0.0


def _finished(span: Dict[str, Any]) -> bool:
    """Whether the span record carries its close-time measurements.

    A worker killed mid-run (or a hand-truncated trace) leaves span
    records without ``wall``/``cpu``; they still render — marked
    ``[unfinished]`` — instead of failing the whole report.
    """
    return isinstance(span.get("wall"), (int, float))


def _children_by_parent(
    spans: List[Dict[str, Any]],
) -> Dict[Optional[str], List[Dict[str, Any]]]:
    known = {span.get("id") for span in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent not in known:
            parent = None  # roots, and orphans whose parent was never written
        children.setdefault(parent, []).append(span)
    return children


def _group_by_name(spans: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for span in sorted(spans, key=lambda s: s.get("start", 0.0)):
        groups.setdefault(span.get("name", "?"), []).append(span)
    return sorted(groups.values(), key=lambda g: -sum(_wall(s) for s in g))


def _render_group(
    group: List[Dict[str, Any]],
    parent_wall: float,
    depth: int,
    children: Dict[Optional[str], List[Dict[str, Any]]],
    lines: List[str],
) -> None:
    total = sum(_wall(span) for span in group)
    cpu = sum(span.get("cpu") or 0.0 for span in group)
    share = 100.0 * total / parent_wall if parent_wall > 0 else 100.0
    count = f"x{len(group)}" if len(group) > 1 else ""
    name = "  " * depth + group[0].get("name", "?")
    if not all(_finished(span) for span in group):
        name += " [unfinished]"
    lines.append(
        f"{name:<44s} {count:>6s} {total:9.3f}s {share:6.1f}%  cpu {cpu:8.3f}s"
    )
    grandchildren: List[Dict[str, Any]] = []
    for span in group:
        grandchildren.extend(children.get(span.get("id"), ()))
    if not grandchildren:
        return
    child_total = 0.0
    for child_group in _group_by_name(grandchildren):
        group_wall = sum(_wall(span) for span in child_group)
        child_total += group_wall
        # Tiny groups fold away — unless one holds an unfinished span,
        # which is exactly what a truncated trace's reader looks for.
        if (
            total > 0
            and group_wall / total < _MIN_SHARE
            and all(_finished(span) for span in child_group)
        ):
            continue
        _render_group(child_group, total, depth + 1, children, lines)
    self_time = total - child_total
    if total > 0 and self_time / total >= _MIN_SHARE:
        self_name = "  " * (depth + 1) + "(self)"
        lines.append(
            f"{self_name:<44s} {'':>6s} {self_time:9.3f}s "
            f"{100.0 * self_time / total:6.1f}%"
        )


def render_tree(spans: List[Dict[str, Any]]) -> str:
    """The per-stage time tree over a list of span records.

    Partial traces render too: spans missing close-time fields show as
    ``[unfinished]`` with zero wall time, and orphan spans (parent id
    never written — e.g. a worker outliving a killed parent) are
    promoted to roots.
    """
    if not spans:
        return "trace: no spans recorded"
    children = _children_by_parent(spans)
    roots = children.get(None, [])
    root_wall = sum(_wall(span) for span in roots)
    unfinished = sum(1 for span in spans if not _finished(span))
    header = f"trace: {len(spans)} spans, {root_wall:.3f}s at the root"
    if unfinished:
        header += f" ({unfinished} unfinished)"
    lines = [
        header,
        f"{'span':<44s} {'calls':>6s} {'wall':>10s} {'share':>7s}",
    ]
    for group in _group_by_name(roots):
        _render_group(group, root_wall, 0, children, lines)
    return "\n".join(lines)


def render_counters(counters: Dict[str, float]) -> str:
    """Fixed-width table of counter totals."""
    if not counters:
        return "counters: none recorded"
    lines = ["counters:"]
    for name in sorted(counters):
        value = counters[name]
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<40s} {rendered:>12s}")
    return "\n".join(lines)


def render_trace(trace: Trace) -> str:
    """Tree plus counters: the full console report of one trace."""
    parts = [render_tree(trace.spans)]
    if len(trace.trace_ids) > 1:
        parts[0] = (
            f"warning: file holds {len(trace.trace_ids)} interleaved traces "
            "(appending exporter on a recycled path?)\n" + parts[0]
        )
    if trace.counters:
        parts.append(render_counters(trace.counters))
    return "\n\n".join(parts)
