"""Live operational metrics: counters, gauges and histograms.

The tracer (:mod:`repro.observe.tracer`) answers *"what happened in
that run?"* — this module answers *"what is the process doing right
now?"*.  A process-wide :class:`MetricsRegistry` holds three
instrument kinds:

* :class:`Counter` — monotonically increasing totals
  (``repro_serve_requests_total``),
* :class:`Gauge` — point-in-time levels (``repro_dispatch_pending``),
* :class:`Histogram` — distributions over fixed, deterministic
  log-spaced buckets (``repro_serve_request_seconds``), so snapshots
  from different runs and hosts are bucket-for-bucket comparable.

Every instrument supports labeled children
(``requests_total{kind="tune", outcome="warm"}``); the child for a
label combination is created on first touch and lives for the life of
the registry.  All mutation goes through one registry lock, so any
number of threads may hammer one instrument and totals stay exact.

**Process safety**: worker processes never share the parent's
registry — they accumulate into their own (fork-inherited values are
re-based away by :func:`install_worker_metrics`).  The process
backend's task shim returns :meth:`MetricsRegistry.take_deltas` with
each task's result (or on its exception), and the parent folds it in
with :meth:`MetricsRegistry.absorb`, so counter totals across any
process topology are exact, not sampled.

This registry is the repo's only counter store: the work counters a
trace reports (``Tracer.counters()``) are read from it too, so
``REPRO_METRICS=off`` silences those as well.

**Exposition** is Prometheus text format
(:func:`render_prometheus` / :func:`parse_prometheus` round-trip),
served by ``GET /metrics`` on the tuning server and consumed by the
``python -m repro metrics`` CLI and its ``--watch`` dashboard
(:mod:`repro.observe.dashboard`).

The metric *namespace* is closed: every real instrument is declared in
:mod:`repro.observe.catalog`, and the OBS001 lint rule flags
``repro_``-prefixed names created anywhere else.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, ObservabilityError

#: One sample's label values, in the family's declared label order.
LabelKey = Tuple[str, ...]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(
    low_exponent: int, high_exponent: int, per_decade: int = 3
) -> Tuple[float, ...]:
    """Deterministic log-spaced bucket edges.

    Edges run from ``10**low_exponent`` to ``10**high_exponent`` with
    ``per_decade`` edges per decade.  Each edge is rounded to six
    significant digits, which removes the last-ulp ``libm`` differences
    between platforms — the whole point of *fixed* buckets is that two
    snapshots from different hosts are bucket-for-bucket comparable.
    """
    if high_exponent <= low_exponent:
        raise ConfigError(
            f"log_buckets needs high > low, got "
            f"[{low_exponent}, {high_exponent}]"
        )
    if per_decade < 1:
        raise ConfigError(f"log_buckets needs per_decade >= 1, got {per_decade}")
    edges: List[float] = []
    for step in range(
        low_exponent * per_decade, high_exponent * per_decade + 1
    ):
        edges.append(float(f"{10.0 ** (step / per_decade):.6g}"))
    return tuple(edges)


#: Default histogram buckets: 100 µs .. 100 s, 3 edges per decade —
#: wide enough for both a warm serve hit and a cold tiny-scale sweep.
DEFAULT_TIME_BUCKETS = log_buckets(-4, 2)


@dataclass(frozen=True)
class HistogramValue:
    """One histogram child's state: per-bucket counts + sum + count.

    ``counts`` has one entry per bucket edge plus a final overflow
    entry for observations above the last edge (the ``+Inf`` bucket).
    """

    counts: Tuple[int, ...]
    total: float
    count: int

    def merged(self, other: "HistogramValue") -> "HistogramValue":
        """Element-wise sum with another value over the same buckets."""
        if len(self.counts) != len(other.counts):
            raise ConfigError(
                "cannot merge histograms with different bucket counts "
                f"({len(self.counts)} vs {len(other.counts)})"
            )
        return HistogramValue(
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            count=self.count + other.count,
        )


#: What one sample holds: a scalar (counter/gauge) or a histogram.
Value = Union[float, HistogramValue]


def histogram_quantile(
    value: HistogramValue, buckets: Sequence[float], quantile: float
) -> float:
    """Conservative (upper-edge) quantile estimate from bucket counts.

    Returns the upper edge of the first bucket whose cumulative count
    reaches the nearest-rank position — the same nearest-rank
    convention :mod:`repro.serve.loadgen` uses, quantized to the bucket
    grid.  Observations in the overflow bucket report the last finite
    edge (the histogram cannot say more).
    """
    if not 0.0 < quantile <= 1.0:
        raise ConfigError(f"quantile must be in (0, 1], got {quantile}")
    if value.count <= 0:
        return 0.0
    rank = max(1, math.ceil(quantile * value.count))
    cumulative = 0
    for edge, bucket_count in zip(buckets, value.counts):
        cumulative += bucket_count
        if cumulative >= rank:
            return edge
    return buckets[-1] if buckets else 0.0


# -- snapshots ---------------------------------------------------------


@dataclass
class FamilySnapshot:
    """Immutable-enough view of one metric family at snapshot time."""

    name: str
    kind: str
    help: str
    labelnames: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = ()
    samples: Dict[LabelKey, Value] = field(default_factory=dict)

    def copy(self) -> "FamilySnapshot":
        """Shallow copy safe to merge into (values are immutable)."""
        return FamilySnapshot(
            name=self.name,
            kind=self.kind,
            help=self.help,
            labelnames=self.labelnames,
            buckets=self.buckets,
            samples=dict(self.samples),
        )


@dataclass
class MetricsSnapshot:
    """A point-in-time copy of a registry (or a merged set of them)."""

    families: Dict[str, FamilySnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into this snapshot, in place.

        Counters and histograms sum (the values are deltas or totals —
        either way addition is the right fold); gauges take the last
        write.
        """
        for name, theirs in other.families.items():
            mine = self.families.get(name)
            if mine is None:
                self.families[name] = theirs.copy()
                continue
            if mine.kind != theirs.kind:
                raise ConfigError(
                    f"metric {name!r} kind mismatch merging snapshots: "
                    f"{mine.kind} vs {theirs.kind}"
                )
            for key, value in theirs.samples.items():
                existing = mine.samples.get(key)
                if existing is None or mine.kind == "gauge":
                    mine.samples[key] = value
                elif isinstance(existing, HistogramValue):
                    if not isinstance(value, HistogramValue):
                        raise ConfigError(
                            f"sample kind mismatch merging {name!r}"
                        )
                    mine.samples[key] = existing.merged(value)
                else:
                    if isinstance(value, HistogramValue):
                        raise ConfigError(
                            f"sample kind mismatch merging {name!r}"
                        )
                    mine.samples[key] = existing + value
        return self

    def value(self, name: str, **labels: str) -> Optional[Value]:
        """Look up one sample (None when absent) — tests/dashboard."""
        family = self.families.get(name)
        if family is None:
            return None
        key = tuple(str(labels[ln]) for ln in family.labelnames if ln in labels)
        if len(key) != len(family.labelnames):
            return None
        return family.samples.get(key)

    def counter_totals(self) -> Dict[str, float]:
        """Flatten counter samples to ``name{label="v"}`` -> total.

        The shape the run ledger stores: one flat string key per
        sample, directly comparable across records.
        """
        totals: Dict[str, float] = {}
        for name in sorted(self.families):
            family = self.families[name]
            if family.kind != "counter":
                continue
            for key in sorted(family.samples):
                value = family.samples[key]
                if isinstance(value, HistogramValue):  # pragma: no cover
                    continue
                totals[_sample_name(name, family.labelnames, key)] = value
        return totals

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form (``metrics --format json``)."""
        families: Dict[str, Any] = {}
        for name in sorted(self.families):
            family = self.families[name]
            samples: List[Dict[str, Any]] = []
            for key in sorted(family.samples):
                value = family.samples[key]
                entry: Dict[str, Any] = {"labels": list(key)}
                if isinstance(value, HistogramValue):
                    entry["counts"] = list(value.counts)
                    entry["sum"] = value.total
                    entry["count"] = value.count
                else:
                    entry["value"] = value
                samples.append(entry)
            families[name] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "buckets": list(family.buckets),
                "samples": samples,
            }
        return {"families": families}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_payload`; tolerant of missing fields."""
        snapshot = cls()
        families = payload.get("families")
        if not isinstance(families, dict):
            return snapshot
        for name, raw in families.items():
            if not isinstance(raw, dict):
                continue
            family = FamilySnapshot(
                name=str(name),
                kind=str(raw.get("kind", "untyped")),
                help=str(raw.get("help", "")),
                labelnames=tuple(
                    str(ln) for ln in raw.get("labelnames", ())
                ),
                buckets=tuple(float(b) for b in raw.get("buckets", ())),
            )
            for entry in raw.get("samples", ()):
                if not isinstance(entry, dict):
                    continue
                key = tuple(str(v) for v in entry.get("labels", ()))
                if "counts" in entry:
                    family.samples[key] = HistogramValue(
                        counts=tuple(int(c) for c in entry["counts"]),
                        total=float(entry.get("sum", 0.0)),
                        count=int(entry.get("count", 0)),
                    )
                else:
                    family.samples[key] = float(entry.get("value", 0.0))
            snapshot.families[name] = family
        return snapshot


# -- instruments -------------------------------------------------------


class CounterChild:
    """One labeled counter sample; mutation under the registry lock."""

    __slots__ = ("_family", "value", "_taken")

    def __init__(self, family: "Counter"):
        self._family = family
        self.value = 0.0
        self._taken = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0; counters are monotonic)."""
        if amount < 0:
            raise ConfigError(
                f"counter {self._family.name!r} can only increase "
                f"(got {amount})"
            )
        registry = self._family.registry
        if not registry.enabled:
            return
        with registry.lock:
            self.value += amount


class GaugeChild:
    """One labeled gauge sample."""

    __slots__ = ("_family", "value")

    def __init__(self, family: "Gauge"):
        self._family = family
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the current level."""
        registry = self._family.registry
        if not registry.enabled:
            return
        with registry.lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level upward."""
        registry = self._family.registry
        if not registry.enabled:
            return
        with registry.lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the level downward."""
        self.inc(-amount)


class HistogramChild:
    """One labeled histogram sample over the family's fixed buckets."""

    __slots__ = ("_family", "counts", "total", "count", "_taken")

    def __init__(self, family: "Histogram"):
        self._family = family
        self.counts = [0] * (len(family.buckets) + 1)
        self.total = 0.0
        self.count = 0
        self._taken: Tuple[Tuple[int, ...], float, int] = (
            tuple(self.counts), 0.0, 0,
        )

    def observe(self, value: float) -> None:
        """Record one observation (``value <= edge`` lands in edge)."""
        registry = self._family.registry
        if not registry.enabled:
            return
        index = bisect.bisect_left(self._family.buckets, value)
        with registry.lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1


class _Family:
    """Shared family machinery: label resolution + child bookkeeping."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        labelnames: Sequence[str],
    ):
        if not _METRIC_NAME_RE.match(name):
            raise ConfigError(f"invalid metric name {name!r}")
        for labelname in labelnames:
            if not _LABEL_NAME_RE.match(labelname) or labelname == "le":
                raise ConfigError(
                    f"invalid label name {labelname!r} on metric {name!r}"
                )
        self.registry = registry
        self.name = name
        self.help = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[LabelKey, Any] = {}
        if not self.labelnames:
            self._resolve(())

    def _make_child(self) -> Any:
        raise NotImplementedError

    def _resolve(self, key: LabelKey) -> Any:
        with self.registry.lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _label_key(
        self, values: Tuple[Any, ...], labels: Dict[str, Any]
    ) -> LabelKey:
        if values and labels:
            raise ConfigError(
                f"metric {self.name!r}: pass label values positionally "
                "or by keyword, not both"
            )
        if not self.labelnames:
            raise ConfigError(f"metric {self.name!r} has no labels")
        if labels:
            if set(labels) != set(self.labelnames):
                raise ConfigError(
                    f"metric {self.name!r} expects labels "
                    f"{list(self.labelnames)}, got {sorted(labels)}"
                )
            return tuple(str(labels[ln]) for ln in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ConfigError(
                f"metric {self.name!r} expects {len(self.labelnames)} "
                f"label value(s), got {len(values)}"
            )
        return tuple(str(v) for v in values)

    def _unlabeled(self) -> Any:
        if self.labelnames:
            raise ConfigError(
                f"metric {self.name!r} is labeled; call .labels(...) first"
            )
        return self._resolve(())


class Counter(_Family):
    """A monotonically increasing total, optionally labeled."""

    kind = "counter"

    def _make_child(self) -> CounterChild:
        return CounterChild(self)

    def labels(self, *values: Any, **labels: Any) -> CounterChild:
        """The child for one label combination (created on first use)."""
        child = self._resolve(self._label_key(values, labels))
        return child  # type: ignore[no-any-return]

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled sample."""
        self._unlabeled().inc(amount)

    def value(self, *values: Any) -> float:
        """Total of the sample with these label values (0 if untouched);
        reading never creates a child."""
        child = self._children.get(tuple(str(v) for v in values))
        return 0.0 if child is None else child.value


class Gauge(_Family):
    """A level that can move both ways, optionally labeled."""

    kind = "gauge"

    def _make_child(self) -> GaugeChild:
        return GaugeChild(self)

    def labels(self, *values: Any, **labels: Any) -> GaugeChild:
        """The child for one label combination (created on first use)."""
        child = self._resolve(self._label_key(values, labels))
        return child  # type: ignore[no-any-return]

    def set(self, value: float) -> None:
        """Set the unlabeled sample."""
        self._unlabeled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the unlabeled sample upward."""
        self._unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the unlabeled sample downward."""
        self._unlabeled().dec(amount)


class Histogram(_Family):
    """A distribution over fixed bucket edges, optionally labeled."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        edges = tuple(float(edge) for edge in buckets)
        if not edges or any(
            b <= a for a, b in zip(edges, edges[1:])
        ):
            raise ConfigError(
                f"histogram {name!r} needs strictly increasing buckets"
            )
        self.buckets = edges
        super().__init__(registry, name, help_text, labelnames)

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self)

    def labels(self, *values: Any, **labels: Any) -> HistogramChild:
        """The child for one label combination (created on first use)."""
        child = self._resolve(self._label_key(values, labels))
        return child  # type: ignore[no-any-return]

    def observe(self, value: float) -> None:
        """Record one observation on the unlabeled sample."""
        self._unlabeled().observe(value)


# -- the registry ------------------------------------------------------


class MetricsRegistry:
    """A process-wide family of instruments with exact totals.

    Registration is idempotent: asking for an existing name with the
    same kind/labels/buckets returns the existing family (the catalog
    module and a worker re-import resolve to the same instruments);
    any mismatch raises :class:`~repro.errors.ConfigError` — a typo'd
    redefinition must fail loudly, not fork the time series.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.enabled = True
        self._families: Dict[str, _Family] = {}
        self._pid = os.getpid()

    # -- registration --------------------------------------------------

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch) a counter family."""
        family = self._register(Counter, name, help_text, labelnames)
        return family  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Register (or fetch) a gauge family."""
        family = self._register(Gauge, name, help_text, labelnames)
        return family  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a histogram family over fixed buckets."""
        family = self._register(
            Histogram, name, help_text, labelnames, buckets=buckets
        )
        return family  # type: ignore[return-value]

    def _register(
        self,
        cls: type,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        with self.lock:
            existing = self._families.get(name)
            if existing is not None:
                mismatch = (
                    type(existing) is not cls
                    or existing.labelnames != tuple(labelnames)
                    or (
                        isinstance(existing, Histogram)
                        and buckets is not None
                        and existing.buckets
                        != tuple(float(b) for b in buckets)
                    )
                )
                if mismatch:
                    raise ConfigError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.labelnames)}"
                    )
                return existing
            if cls is Histogram:
                family: _Family = Histogram(
                    self, name, help_text, labelnames,
                    DEFAULT_TIME_BUCKETS if buckets is None else buckets,
                )
            else:
                family = cls(self, name, help_text, labelnames)
            self._families[name] = family
            return family

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Copy out every family."""
        with self.lock:
            snapshot = MetricsSnapshot()
            for name, family in self._families.items():
                family_snapshot = FamilySnapshot(
                    name=name,
                    kind=family.kind,
                    help=family.help,
                    labelnames=family.labelnames,
                    buckets=getattr(family, "buckets", ()),
                )
                for key, child in family._children.items():
                    if isinstance(child, HistogramChild):
                        family_snapshot.samples[key] = HistogramValue(
                            counts=tuple(child.counts),
                            total=child.total,
                            count=child.count,
                        )
                    else:
                        family_snapshot.samples[key] = child.value
                snapshot.families[name] = family_snapshot
        return snapshot

    # -- worker deltas -------------------------------------------------

    def take_deltas(self) -> MetricsSnapshot:
        """Growth since the previous call (or :meth:`rebase`).

        Gauges are skipped — a worker's level has no meaning in the
        parent.  The result is what a worker task hands back to the
        parent's :meth:`absorb`.
        """
        deltas = MetricsSnapshot()
        with self.lock:
            for name, family in self._families.items():
                if family.kind == "gauge":
                    continue
                samples: Dict[LabelKey, Value] = {}
                for key, child in family._children.items():
                    delta = _take_delta(child)
                    if delta is not None:
                        samples[key] = delta
                if samples:
                    deltas.families[name] = FamilySnapshot(
                        name=name,
                        kind=family.kind,
                        help=family.help,
                        labelnames=family.labelnames,
                        buckets=getattr(family, "buckets", ()),
                        samples=samples,
                    )
        return deltas

    def absorb(self, deltas: MetricsSnapshot) -> None:
        """Add a worker's :meth:`take_deltas` to this registry's totals.

        A family only the worker registered is registered here first
        (a kind or label mismatch raises, as any re-registration
        does).  No-op while collection is disabled.
        """
        if not self.enabled:
            return
        with self.lock:
            for name, theirs in deltas.families.items():
                if theirs.kind == "histogram":
                    family: _Family = self.histogram(
                        name, theirs.help, theirs.labelnames, theirs.buckets
                    )
                else:
                    family = self.counter(name, theirs.help, theirs.labelnames)
                for key, value in theirs.samples.items():
                    child = family._resolve(key)
                    if isinstance(value, HistogramValue):
                        child.counts = [
                            a + b for a, b in zip(child.counts, value.counts)
                        ]
                        child.total += value.total
                        child.count += value.count
                    else:
                        child.value += value

    def rebase(self) -> None:
        """Adopt this pid and drop all growth so far.

        The fork-safety hinge: a forked worker inherits the parent's
        totals, and without re-basing it would hand the parent's whole
        history back as its own delta — double counting everything.
        """
        with self.lock:
            self._pid = os.getpid()
            self.take_deltas()

    def reset(self) -> None:
        """Zero every sample (test isolation).

        Families survive (catalog instruments stay bound); only their
        children are dropped, so the next touch starts from zero.
        """
        with self.lock:
            for family in self._families.values():
                family._children.clear()
                if not family.labelnames:
                    family._resolve(())


def _take_delta(child: Any) -> Optional[Value]:
    """Growth since the last take, updating the baseline (or None)."""
    if isinstance(child, CounterChild):
        delta = child.value - child._taken
        if delta <= 0:
            return None
        child._taken = child.value
        return delta
    if isinstance(child, HistogramChild):
        counts_base, total_base, count_base = child._taken
        if child.count <= count_base:
            return None
        value = HistogramValue(
            counts=tuple(
                now - base for now, base in zip(child.counts, counts_base)
            ),
            total=child.total - total_base,
            count=child.count - count_base,
        )
        child._taken = (tuple(child.counts), child.total, child.count)
        return value
    return None


# -- process-global plumbing -------------------------------------------

_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry every catalog instrument binds to."""
    return _REGISTRY


def set_metrics_enabled(enabled: bool) -> bool:
    """Toggle collection globally; returns the previous setting.

    Disabled instruments no-op on the hot path (one attribute read),
    which is what the ``REPRO_METRICS=off`` knob and the overhead
    benchmark toggle.
    """
    registry = get_metrics()
    previous = registry.enabled
    registry.enabled = bool(enabled)
    return previous


def install_worker_metrics() -> MetricsRegistry:
    """Prepare the registry inside a worker process.

    Under ``fork`` the worker inherits the parent's totals; re-base so
    only *this process's* growth is ever handed back.  Under ``spawn`` the
    fresh import already starts from zero and this is a no-op.  Safe to
    call once per task — after the first call the pid matches.
    """
    registry = get_metrics()
    if registry._pid != os.getpid():
        registry.rebase()
    return registry


# -- Prometheus text exposition ----------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape(text: str) -> str:
    out: List[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            follower = text[index + 1]
            if follower == "n":
                out.append("\n")
            elif follower in ('"', "\\"):
                out.append(follower)
            else:
                out.append(char)
                out.append(follower)
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _sample_name(
    name: str, labelnames: Sequence[str], key: Sequence[str]
) -> str:
    if not labelnames:
        return name
    rendered = ",".join(
        f'{ln}="{_escape_label(value)}"'
        for ln, value in zip(labelnames, key)
    )
    return f"{name}{{{rendered}}}"


def _sample_line(
    name: str, labelnames: Sequence[str], key: Sequence[str], value: float
) -> str:
    return f"{_sample_name(name, labelnames, key)} {_format_value(value)}"


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Prometheus text exposition format (0.0.4) of a snapshot.

    Families sort by name and samples by label values, so the output
    is byte-deterministic — what the golden-file test and the CI
    ``grep`` assertions rely on.  Histogram ``_bucket`` lines carry
    *cumulative* counts with a closing ``le="+Inf"``, per the format.
    """
    lines: List[str] = []
    for name in sorted(snapshot.families):
        family = snapshot.families[name]
        lines.append(f"# HELP {name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {name} {family.kind}")
        for key in sorted(family.samples):
            value = family.samples[key]
            if isinstance(value, HistogramValue):
                cumulative = 0
                for edge, bucket_count in zip(family.buckets, value.counts):
                    cumulative += bucket_count
                    lines.append(
                        _sample_line(
                            name + "_bucket",
                            tuple(family.labelnames) + ("le",),
                            tuple(key) + (_format_value(edge),),
                            cumulative,
                        )
                    )
                lines.append(
                    _sample_line(
                        name + "_bucket",
                        tuple(family.labelnames) + ("le",),
                        tuple(key) + ("+Inf",),
                        value.count,
                    )
                )
                lines.append(
                    _sample_line(
                        name + "_sum", family.labelnames, key, value.total
                    )
                )
                lines.append(
                    _sample_line(
                        name + "_count", family.labelnames, key, value.count
                    )
                )
            else:
                lines.append(_sample_line(name, family.labelnames, key, value))
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def parse_prometheus(text: str) -> MetricsSnapshot:
    """Parse exposition text back into a snapshot.

    The inverse of :func:`render_prometheus` for everything this
    module emits (the round-trip is tested); unknown or malformed
    lines are skipped rather than failing the read, matching
    :func:`~repro.observe.export.load_trace`'s tolerance.
    """
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    scalars: List[Tuple[str, Tuple[Tuple[str, str], ...], float]] = []
    histogram_parts: Dict[
        str,
        Dict[Tuple[Tuple[str, str], ...], Dict[str, Any]],
    ] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps[name] = _unescape(help_text)
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            kinds[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        sample_name, label_text, value_text = match.groups()
        try:
            value = float(value_text)
        except ValueError:
            continue
        pairs = tuple(
            (ln, _unescape(lv))
            for ln, lv in _LABEL_PAIR_RE.findall(label_text or "")
        )
        base = _histogram_base(sample_name, kinds)
        if base is not None:
            key = tuple(p for p in pairs if p[0] != "le")
            part = histogram_parts.setdefault(base, {}).setdefault(
                key, {"cumulative": [], "sum": 0.0, "count": 0}
            )
            if sample_name.endswith("_bucket"):
                le_values = [p[1] for p in pairs if p[0] == "le"]
                if le_values:
                    edge = (
                        math.inf
                        if le_values[0] == "+Inf"
                        else float(le_values[0])
                    )
                    part["cumulative"].append((edge, int(value)))
            elif sample_name.endswith("_sum"):
                part["sum"] = value
            else:
                part["count"] = int(value)
        else:
            scalars.append((sample_name, pairs, value))

    snapshot = MetricsSnapshot()
    for name, kind in kinds.items():
        if kind != "histogram":
            snapshot.families[name] = FamilySnapshot(
                name=name, kind=kind, help=helps.get(name, "")
            )
    for sample_name, pairs, value in scalars:
        family = snapshot.families.get(sample_name)
        if family is None:
            family = FamilySnapshot(
                name=sample_name,
                kind=kinds.get(sample_name, "untyped"),
                help=helps.get(sample_name, ""),
            )
            snapshot.families[sample_name] = family
        if pairs and not family.labelnames:
            family.labelnames = tuple(ln for ln, _ in pairs)
        family.samples[tuple(lv for _, lv in pairs)] = value
    for base, children in histogram_parts.items():
        family = FamilySnapshot(
            name=base, kind="histogram", help=helps.get(base, "")
        )
        for key, part in children.items():
            ordered = sorted(part["cumulative"], key=lambda item: item[0])
            finite = [(e, c) for e, c in ordered if e != math.inf]
            if not family.buckets:
                family.buckets = tuple(edge for edge, _ in finite)
            counts: List[int] = []
            previous = 0
            for _, cumulative_count in finite:
                counts.append(cumulative_count - previous)
                previous = cumulative_count
            total_count = int(part["count"])
            counts.append(max(0, total_count - previous))
            if key and not family.labelnames:
                family.labelnames = tuple(ln for ln, _ in key)
            family.samples[tuple(lv for _, lv in key)] = HistogramValue(
                counts=tuple(counts),
                total=float(part["sum"]),
                count=total_count,
            )
        snapshot.families[base] = family
    return snapshot


def _histogram_base(
    sample_name: str, kinds: Dict[str, str]
) -> Optional[str]:
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if kinds.get(base) == "histogram":
                return base
    return None


# -- snapshot files ----------------------------------------------------


def load_metrics(paths: Iterable[Union[str, Path]]) -> MetricsSnapshot:
    """Fold saved ``metrics --format json`` snapshots into one.

    A file that is not such a snapshot (a single, possibly
    pretty-printed ``{"families": ...}`` document) raises
    :class:`~repro.errors.ObservabilityError` — a wrong path or a
    truncated snapshot must not render as an empty dashboard.
    """
    snapshot = MetricsSnapshot()
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            document = json.loads(text)
        except ValueError:
            document = None
        if not isinstance(document, dict) or "families" not in document:
            raise ObservabilityError(
                f"no metrics snapshot in {path} (expected a "
                "'metrics --format json' document)"
            )
        snapshot.merge(MetricsSnapshot.from_payload(document))
    return snapshot
