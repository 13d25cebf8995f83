"""Trace persistence: a process-safe JSONL exporter and its reader.

One trace is one JSON-Lines file: each line is a self-contained record
— ``{"type": "span", ...}`` for finished spans (see
:meth:`~repro.observe.tracer.Span.to_record`) or one ``{"type":
"counters", ...}`` record that the parent's tracer writes when the run
finishes (:meth:`~repro.observe.tracer.Tracer.finish`).  Worker
processes write spans only: their counts reach the parent's registry
with each task result, so the parent's record already includes them.

Process safety relies on POSIX append semantics: every record is
written as a single ``os.write`` to a file descriptor opened with
``O_APPEND``, so concurrent writers — the ``ProcessPoolExecutor``
characterization and sweep workers — interleave whole lines and a
merged trace is always parseable.  No locks or temp files are needed.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union


class JsonlExporter:
    """Appends trace records to a JSONL file, one line per record.

    The file opens lazily on first write (``truncate=True`` opens —
    and empties — it eagerly, so a fresh trace never mixes with stale
    worker output).  Safe to share across threads; safe to *reopen*
    from any number of processes.

    Truncate vs append — the reuse contract for one path:

    * ``truncate=True`` is for the exporter that *starts* a run: the
      CLI's ``--trace PATH`` and per-experiment ``--trace-dir``
      artifacts truncate, so reusing a path across runs keeps only the
      latest run.
    * ``truncate=False`` (the default) is for exporters that *join* a
      run in flight — worker processes reopening the parent's file —
      and must never empty it.

    Constructing an appending exporter on a recycled path therefore
    interleaves two runs (two trace ids) in one file; the analytics
    layer (``python -m repro trace summarize``) flags that, and
    :class:`Trace` keeps the distinct ids it saw.
    """

    def __init__(self, path: Union[str, Path], truncate: bool = False):
        self.path = Path(path)
        self._truncate = truncate
        self._fd: Optional[int] = None
        self._lock = threading.Lock()
        if truncate:
            self._ensure_open()

    def _ensure_open(self) -> int:
        if self._fd is None:
            if self.path.parent != Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
            if self._truncate:
                flags |= os.O_TRUNC
                self._truncate = False
            self._fd = os.open(self.path, flags, 0o644)
        return self._fd

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a single atomic line write."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            os.write(self._ensure_open(), data)

    def flush(self) -> None:
        """No-op: ``os.write`` is unbuffered."""

    def close(self) -> None:
        """Close the underlying file descriptor (reopens on next write)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __getstate__(self) -> Dict[str, Any]:
        return {"path": str(self.path)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["path"])


class MemorySink:
    """In-memory record sink (tests and ``--profile`` without a path)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record to the in-memory list."""
        with self._lock:
            self.records.append(record)

    def flush(self) -> None:
        """No-op."""

    def close(self) -> None:
        """No-op."""


@dataclass
class Trace:
    """Parsed contents of a trace: spans plus counter totals.

    ``trace_ids`` keeps the distinct trace ids seen in file order —
    more than one means the file accumulated several runs (an
    appending exporter on a recycled path), which the analytics layer
    flags rather than silently summing unrelated runs.
    """

    spans: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    trace_ids: List[str] = field(default_factory=list)

    def span_names(self) -> List[str]:
        """Distinct span names, in first-appearance order."""
        seen: List[str] = []
        for span in self.spans:
            name = span.get("name", "?")
            if name not in seen:
                seen.append(name)
        return seen

    def total_wall(self, name: str) -> float:
        """Summed wall time of every span called ``name``.

        Unclosed spans (no ``wall`` recorded) count as zero.
        """
        return sum(
            s.get("wall") or 0.0 for s in self.spans if s.get("name") == name
        )


def merge_records(records: List[Dict[str, Any]]) -> Trace:
    """Fold raw trace records into a :class:`Trace`.

    Span records collect in file order; counter records sum (a file
    holding several runs sums their totals).  Records that are not
    JSON objects (noise in a hand-edited or corrupted file) are
    skipped.
    """
    trace = Trace()
    for record in records:
        if not isinstance(record, dict):
            continue
        kind = record.get("type")
        trace_id = record.get("trace")
        if trace_id and trace_id not in trace.trace_ids:
            trace.trace_ids.append(trace_id)
        if kind == "span":
            trace.spans.append(record)
        elif kind == "counters":
            for name, value in record.get("counters", {}).items():
                trace.counters[name] = trace.counters.get(name, 0) + value
    return trace


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a JSONL trace file back into a :class:`Trace`.

    Unparseable lines (a record torn by a crashed writer) are skipped
    rather than failing the whole read.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return merge_records(records)
