"""Outside-in per-layer tracing for the benchmark.

The program is measured from outside: :class:`Recorder` replaces the
public entry points of each layer with timing wrappers while a traced
window is open, and restores the originals when it closes.  Nothing in
``src/`` changes.  A function that another module imported by value is
patched at the importing module too (``repro.synth.synthesizer.analyze``
beside ``repro.sta.engine.analyze``), otherwise the import would bypass
the wrapper.

Spans are kept in memory as tuples and written out once, at the end
(:meth:`Recorder.dump`).  A span's self time is its wall time minus the
wall time of the wrapped spans it called on the same thread.

While a window is open the recorder also installs a fresh
``repro.observe.Tracer`` as the active tracer, so the exact work
counters the program already keeps (``sta.arc_evaluations``,
``synth.sizing_iterations`` ...) are read through ``Tracer.counters()``.

This module imports ``repro`` only inside :meth:`Recorder.start`, so the
aggregation helpers work in a process that never loads the program.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, module, attribute path, kind) of every wrapped entry
#: point.  ``kind`` is ``function``, ``method`` or ``property`` (the
#: getter).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sta.analyze", "repro.sta.engine", "analyze", "function"),
    ("sta.analyze", "repro.sta", "analyze", "function"),
    ("sta.analyze", "repro.synth.synthesizer", "analyze", "function"),
    ("sta.graph_build", "repro.sta.graph", "TimingGraph.__init__", "method"),
    ("synth.run", "repro.synth.synthesizer", "synthesize", "function"),
    ("synth.run", "repro.synth", "synthesize", "function"),
    ("synth.run", "repro.flow.experiment", "synthesize", "function"),
    ("netlist.build", "repro.flow.experiment", "build_microcontroller", "function"),
    ("sta.paths", "repro.flow.experiment", "extract_worst_paths", "function"),
    ("sta.stats", "repro.flow.experiment", "design_statistics", "function"),
    ("store.write", "repro.parallel.artifacts", "ArtifactStore.store", "method"),
    ("store.read", "repro.parallel.artifacts", "ArtifactStore.load", "method"),
    ("store.has", "repro.parallel.artifacts", "ArtifactStore.has", "method"),
    ("flow.statlib_key", "repro.flow.experiment", "TuningFlow.statlib_key", "property"),
    ("sweep.point_keys", "repro.sweep.driver", "point_keys", "function"),
    ("library.load", "repro.parallel.cache", "LibraryCache.load_statistical", "method"),
    ("core.tune", "repro.core.tuner", "LibraryTuner.tune", "method"),
    (
        "characterization.statlib",
        "repro.characterization.characterize",
        "Characterizer.statistical_library",
        "method",
    ),
)

#: Program counters (``Tracer.counters()`` names) the benchmark reports.
COUNTERS = (
    "sta.analyze_calls",
    "sta.arc_evaluations",
    "synth.calls",
    "synth.sizing_iterations",
    "synth.buffer_instances",
    "characterize.mc_samples",
)

#: Span = (layer, phase, wall seconds, self seconds, bytes written).
Span = Tuple[str, str, float, float, int]


def _artifact_size(store, args) -> int:
    """Size on disk of the artifact a store call named (0 if absent)."""
    try:
        return store.path_for(args[0], args[1]).stat().st_size
    except OSError:
        return 0


class Recorder:
    """Installs the layer wrappers for traced windows; keeps the spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Counter totals per phase, accumulated window by window.
        self.counters: Dict[str, Dict[str, float]] = {}
        self.phase: Optional[str] = None
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        self._tracer = None
        self._previous_tracer = None

    # -- windows --------------------------------------------------------

    def start(self, phase: str) -> None:
        """Open a traced window: wrap every target, activate a tracer."""
        import importlib

        from repro.observe import Tracer, set_tracer

        if self.phase is not None:
            raise RuntimeError("a traced window is already open")
        self.phase = phase
        # import everything before patching anything: a module imported
        # mid-patch would bind an already-wrapped function by value
        modules = {name: importlib.import_module(name) for _, name, _, _ in TARGETS}
        for layer, module_name, path, kind in TARGETS:
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if kind != "function" else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapped(layer, kind, original))
        self._tracer = Tracer()
        self._previous_tracer = set_tracer(self._tracer)

    def stop(self) -> None:
        """Close the window: restore the originals, bank the counters."""
        from repro.observe import set_tracer

        if self.phase is None:
            return
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        set_tracer(self._previous_tracer)
        totals = self.counters.setdefault(self.phase, {})
        for name, value in self._tracer.counters().items():
            totals[name] = totals.get(name, 0) + value
        self._tracer = None
        self.phase = None

    # -- wrappers -------------------------------------------------------

    def _wrapped(self, layer: str, kind: str, original):
        if kind == "property":
            return property(self._timed(layer, original.fget))
        return self._timed(layer, original)

    def _timed(self, layer: str, fn: Callable) -> Callable:
        recorder = self
        measure_bytes = layer == "store.write"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += wall
            size = _artifact_size(args[0], args[1:]) if measure_bytes else 0
            recorder.spans.append((layer, recorder.phase or "", wall, wall - frame[0], size))
            return result

        return wrapper

    # -- output ---------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans and counters (one JSON object per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counters": self.counters}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> Tuple[Dict[str, Dict[str, float]], List[Span]]:
    """Read what :meth:`Recorder.dump` wrote."""
    with open(path, encoding="utf-8") as handle:
        counters = json.loads(handle.readline())["counters"]
        spans = [tuple(json.loads(line)) for line in handle]
    return counters, spans


def per_layer(
    counters: Dict[str, Dict[str, float]], spans: List[Span], ops: int
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics: op-phase values per traced op, setup totals.

    Returns ``{metric: (value, unit)}``.  Layers an op never reaches
    report 0 calls and 0 ms.
    """
    per_op: Dict[str, List[float]] = {}
    setup: Dict[str, List[float]] = {}
    for layer, phase, wall, own, size in spans:
        table = setup if phase == "setup" else per_op
        row = table.setdefault(layer, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += wall
        row[2] += own
        row[3] += size
    ops = max(ops, 1)

    def op_row(layer):
        return per_op.get(layer, [0, 0.0, 0.0, 0])

    op_counters = counters.get("op", {})
    setup_counters = counters.get("setup", {})
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in (
        "sta.analyze", "sta.graph_build", "synth.run", "store.write",
        "store.read", "store.has", "sweep.point_keys",
    ):
        row = op_row(layer)
        metrics[f"{layer}.calls"] = (row[0] / ops, "count")
        metrics[f"{layer}.ms"] = (row[1] * 1e3 / ops, "ms")
    for layer in ("netlist.build", "sta.paths", "sta.stats", "flow.statlib_key"):
        metrics[f"{layer}.ms"] = (op_row(layer)[1] * 1e3 / ops, "ms")
    metrics["synth.self_ms"] = (op_row("synth.run")[2] * 1e3 / ops, "ms")
    metrics["store.write.bytes"] = (op_row("store.write")[3] / ops, "bytes")
    metrics["sta.arc_evaluations"] = (
        op_counters.get("sta.arc_evaluations", 0) / ops, "count"
    )
    metrics["synth.sizing_iterations"] = (
        op_counters.get("synth.sizing_iterations", 0) / ops, "count"
    )
    metrics["synth.buffer_instances"] = (
        op_counters.get("synth.buffer_instances", 0) / ops, "count"
    )
    for layer in ("library.load", "core.tune"):
        row = setup.get(layer, [0, 0.0])
        metrics[f"{layer}.calls"] = (float(row[0]), "count")
        metrics[f"{layer}.ms"] = (row[1] * 1e3, "ms")
    metrics["characterization.statlib.ms"] = (
        setup.get("characterization.statlib", [0, 0.0])[1] * 1e3, "ms"
    )
    metrics["characterization.mc_samples"] = (
        float(setup_counters.get("characterize.mc_samples", 0)), "count"
    )
    return metrics


def work_counters(
    counters: Dict[str, Dict[str, float]], spans: List[Span], ops: int
) -> Dict[str, float]:
    """Exact per-op work counts of the op phase (the self-test's key)."""
    ops = max(ops, 1)
    op_counters = counters.get("op", {})
    calls: Dict[str, int] = {}
    for layer, phase, *_ in spans:
        if phase == "op":
            calls[layer] = calls.get(layer, 0) + 1
    return {
        "arc_evaluations": op_counters.get("sta.arc_evaluations", 0) / ops,
        "analyze_calls": op_counters.get("sta.analyze_calls", 0) / ops,
        "sizing_iterations": op_counters.get("synth.sizing_iterations", 0) / ops,
        "synthesize_calls": op_counters.get("synth.calls", 0) / ops,
        "artifact_writes": calls.get("store.write", 0) / ops,
        "artifact_reads": calls.get("store.read", 0) / ops,
    }
