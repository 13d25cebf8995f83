"""The staged artifact pipeline behind :class:`~repro.flow.experiment.
TuningFlow`.

The end-to-end evaluation is a chain of pure stages::

    catalog -> statistical library -> tuning -> synthesis run
                                          (+ the minimum-period search)

A synthesis run is one artifact: its summary, its worst paths and
their step sigmas, from which a load folds the design statistics.

Each stage has a canonical **content fingerprint** — a sha256 over a
sorted-JSON rendering of every input that can change its output — and
a serializable **artifact** persisted in the one
:class:`~repro.parallel.artifacts.ArtifactStore`.  The stages, their
codecs and their fingerprinted inputs are declared once, in
:data:`~repro.parallel.artifacts.STAGES`, and every key comes from
:func:`~repro.parallel.artifacts.stage_fingerprint` (the flow derives
them in :class:`~repro.flow.experiment.TuningFlow`).  Fingerprints
chain: the tuning stage folds in the statistical library's
characterization key, the synthesis stage folds in the tuning
fingerprint (or the :data:`BASELINE_WINDOWS` sentinel), so a change
anywhere upstream invalidates exactly the artifacts it can affect.

Layout under ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro``)::

    stat-<key>.npz            characterized library   (one (1, rows, slews,
                                                        loads) tables array)
    samples-<key>.npz         per-sample MC libraries (one (N, rows, slews,
                                                        loads) tables array)
    tuning-<key>.json.gz      TuningResult             (windows, thresholds)
    synth-<key>.npz           SynthesisRun             (summary arrays, worst
                                                        paths, step sigmas)
    minperiod-<key>.json.gz   minimum-period search    (one float)

A store written when a run was three artifacts (``synth-*.json.gz``,
``paths-*`` and ``stats-*``) misses each run once; its old entries
are never read again, and ``store clear`` removes them.

:class:`ArtifactPipeline` is the one resolver of every stage, the
libraries included (the characterizer only computes; the flow hands the
pipeline the library codec of :mod:`repro.parallel.cache`).  Each
resolution appends a :class:`StageRecord` (stage id, key,
hit/miss/computed, wall time) to the flow's :class:`RunManifest`,
surfaced via ``python -m repro run ... --manifest``, and opens a
``stage.<id>`` span; the status is always the load's outcome, so an
entry that heals on load is a miss.  ``python -m repro store stats``
counts the stored entries per stage.

Every multi-point evaluation — fig10's in-design sweep
(:meth:`~repro.flow.experiment.TuningFlow.sweep_comparisons`), the
design-family sweep (:func:`repro.sweep.run_sweep`) — goes through one
function, :func:`sweep_points`: it diffs each point's keys
(derived by its flow, the only code that derives them) against the
store and computes only the stale baselines and points, on the
configured :class:`~repro.parallel.backends.ExecutorBackend` (serial
or process pool).  Workers rebuild the flow from the (picklable)
config and publish through the shared store; it then collects every
point through ``flow.compare`` — deterministic and bit-identical to
the serial path on every backend, because every stage is a pure
function of its fingerprinted inputs.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.observe import get_tracer
from repro.parallel.artifacts import STAGES, ArtifactStore, stage_fingerprint
from repro.sta.graph import StaConfig

#: A sweep point: (clock period, method name, parameter); method
#: ``None`` marks a baseline warm-up point (parameter is ignored).
SweepPoint = Tuple[float, Optional[str], float]

#: A point of :func:`sweep_points`: (flow, clock period, method name,
#: parameter) — each point carries the flow whose design it evaluates.
FlowPoint = Tuple[Any, float, str, float]

class PointKeys(NamedTuple):
    """The stage keys one evaluation point is stored under."""

    #: Fingerprint of the tuning stage.
    tuning: str
    #: The tuned run's ``synth`` key.
    tuned: str
    #: The untuned baseline run's ``synth`` key.
    baseline: str


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StageRecord:
    """One stage resolution: what ran, from where, and how long."""

    stage: str
    key: str
    #: ``hit`` (served from the store), ``miss`` (computed and stored),
    #: ``computed`` (computed; no store attached).
    status: str
    #: Self wall time: a compute's seconds exclude the stages resolved
    #: inside it (those have their own records), so records sum to no
    #: more than the wall time of the calls that made them.
    seconds: float


@dataclass
class RunManifest:
    """Ordered record of every stage resolution of a flow."""

    records: List[StageRecord] = field(default_factory=list)

    def record(self, stage: str, key: str, status: str, seconds: float) -> None:
        """Append one stage resolution."""
        self.records.append(
            StageRecord(stage=stage, key=key, status=status, seconds=seconds)
        )

    def counts(self) -> Dict[str, int]:
        """Resolutions per status (hit / miss / computed)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def aggregates(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage roll-up: count, hit/miss/computed, total seconds.

        The shape the run ledger persists (see
        :mod:`repro.observe.ledger`) and ``--manifest`` summarizes —
        one entry per stage id, statuses as counts.
        """
        return stage_aggregates(self.records)

    def to_text(self) -> str:
        """Fixed-width table of every record plus a hit/miss summary."""
        if not self.records:
            return "run manifest: empty (no stages resolved)"
        lines = ["stage        key           status    seconds"]
        for record in self.records:
            lines.append(
                f"{record.stage:<12s} {record.key[:12]:<13s} "
                f"{record.status:<9s} {record.seconds:8.3f}"
            )
        counts = self.counts()
        summary = ", ".join(f"{n} {status}" for status, n in sorted(counts.items()))
        lines.append(f"-- {len(self.records)} stage resolutions: {summary}")
        return "\n".join(lines)


def stage_aggregates(
    records: Sequence[StageRecord],
) -> Dict[str, Dict[str, Any]]:
    """Fold stage records into per-stage totals.

    Accepts any slice of a manifest, so callers attributing work to a
    single experiment (the run ledger) can aggregate just the records
    that run appended.
    """
    aggregates: Dict[str, Dict[str, Any]] = {}
    for record in records:
        entry = aggregates.setdefault(
            record.stage, {"count": 0, "seconds": 0.0}
        )
        entry["count"] += 1
        entry["seconds"] += record.seconds
        entry[record.status] = entry.get(record.status, 0) + 1
    for entry in aggregates.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return aggregates


# ----------------------------------------------------------------------
# Stage keys
# ----------------------------------------------------------------------


#: Sentinel taking the place of a tuning fingerprint for untuned runs;
#: disjoint from any sha256 hex digest.
BASELINE_WINDOWS = "baseline/unrestricted"


def minperiod_fingerprint(
    statlib_key: str,
    design_key: str,
    guard_band: float,
    resolution: float,
    sta_config: Optional[StaConfig] = None,
) -> str:
    """Content hash of the minimum-period search (stage ``minperiod``).

    The search probes with reduced effort (one buffering round); that
    knob is part of the hash so a probe-policy change invalidates the
    stored minimum.
    """
    return stage_fingerprint(
        "minperiod",
        statlib=statlib_key,
        design=design_key,
        guard_band=guard_band,
        resolution=resolution,
        probe={"max_buffer_rounds": 1},
        sta=dataclasses.asdict(sta_config or StaConfig()),
    )


# ----------------------------------------------------------------------
# Stage resolution
# ----------------------------------------------------------------------


#: How a stage's live value crosses the store: ``load(key)`` returns
#: the stored value, or ``None`` on a miss (an entry that cannot be
#: read back or decoded heals into one); ``save(key, value)`` persists
#: a computed value.  :meth:`ArtifactPipeline.payload` builds the run,
#: tuning and minimum-period codecs; :meth:`repro.parallel.cache.
#: LibraryCache.codec` the library stages'.
Codec = Tuple[Callable[[str], Optional[Any]], Callable[[str, Any], Any]]

#: Manifest and span names of the store stages recorded under another
#: name: the statistical library is ``statlib`` in every manifest,
#: trace and CI check.
RECORD_NAMES = {"stat": "statlib"}


class _Nesting(threading.local):
    """Per thread: for each stage compute open on it, the seconds spent
    resolving stages inside that compute."""

    def __init__(self) -> None:
        self.stack: List[float] = []


class ArtifactPipeline:
    """The one resolver of every stage: loads it from the store, or
    computes and persists it, and records each resolution.

    A stage's row in :data:`~repro.parallel.artifacts.STAGES` decides
    whether it is stored at all: a codec-less row (``catalog``) always
    resolves as ``computed``, and so does every stage of a pipeline
    without a store (``FlowConfig(cache=False)``).  Every resolution is
    both a :class:`StageRecord` and a ``stage.<name>`` trace span with
    the key and the status as attributes, so the run manifest and the
    time tree agree; the status is always the load's outcome.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        manifest: Optional[RunManifest] = None,
    ):
        self.store = store
        self.manifest = manifest if manifest is not None else RunManifest()
        self._nested = _Nesting()

    def payload(
        self,
        stage: str,
        encode: Callable[[Any], Any],
        decode: Callable[[Any], Any],
    ) -> Codec:
        """The codec of ``stage``: ``encode``/``decode`` translate
        between the live value and its payload (a JSON document, or a
        dict of arrays for an ``.npz`` stage).  A payload ``decode``
        rejects heals into a miss like a torn file."""
        return (
            lambda key: self.store.load(stage, key, decode),
            lambda key, value: self.store.store(stage, key, encode(value)),
        )

    def resolve(
        self,
        stage: str,
        key: Any,
        compute: Callable[[], Any],
        codec: Optional[Codec] = None,
    ) -> Any:
        """Load ``(stage, key)`` through ``codec``, or compute and
        persist it.  A codec-less stage's key may be a callable
        deriving it from the computed value (the ``catalog`` key is a
        hash of the catalog).  A stage resolved inside another stage's
        compute is excluded from that stage's record (see
        :attr:`StageRecord.seconds`): ``nested`` holds, per compute
        open on this thread, the seconds spent resolving stages inside
        it."""
        tracer = get_tracer()
        name = RECORD_NAMES.get(stage, stage)
        stored = self.store is not None and STAGES[stage].codec is not None
        nested = self._nested.stack
        entered = time.perf_counter()
        try:
            if stored:
                value = codec[0](key)
                if value is not None:
                    elapsed = time.perf_counter() - entered
                    self.manifest.record(name, key, "hit", elapsed)
                    tracer.record_span(
                        f"stage.{name}", elapsed, key=key[:12], status="hit"
                    )
                    return value
            status = "miss" if stored else "computed"
            with tracer.span(f"stage.{name}") as span:
                start = time.perf_counter()
                nested.append(0.0)
                try:
                    value = compute()
                finally:
                    inner = nested.pop()
                if callable(key):
                    key = key(value)
                if stored:
                    codec[1](key, value)
                span.set(key=key[:12], status=status)
                self.manifest.record(
                    name, key, status, time.perf_counter() - start - inner
                )
            return value
        finally:
            if nested:
                nested[-1] += time.perf_counter() - entered


# ----------------------------------------------------------------------
# Sweep fan-out
# ----------------------------------------------------------------------


def _sweep_worker(config, point: SweepPoint, trace=None):
    """Worker: evaluate one sweep point in a fresh flow.

    The flow loads its statistical library from the shared store
    (the parent characterizes before fanning out) and serves or stores
    synthesis artifacts through the same store; worker-side
    characterization parallelism is disabled — the sweep is the
    parallel axis here.  With a :class:`~repro.observe.TraceHandle`,
    the worker's spans merge into the parent's trace under the span
    that was open at submission time.
    """
    from repro.flow.experiment import TuningFlow
    from repro.observe import install_worker_tracer

    tracer = install_worker_tracer(trace)
    period, method, parameter = point
    with tracer.span(
        "sweep.point",
        period=period,
        method=method or "baseline",
        parameter=parameter,
    ):
        flow = TuningFlow(
            dataclasses.replace(config, n_workers=1, backend="serial")
        )
        if method is None:
            flow.baseline(period)
            result = None
        else:
            result = flow.compare(period, method, parameter)
    return result


def sweep_points(
    points: Sequence[FlowPoint], backend
) -> Tuple[List[str], int, List[Any]]:
    """Evaluate ``(flow, clock, method, parameter)`` points: diff them
    against the store, compute only the stale work, then collect every
    point through ``flow.compare`` as a memo or store hit.

    Each point's keys come from its own flow
    (:meth:`~repro.flow.experiment.TuningFlow.point_keys`), so the diff
    can never disagree with the keys the stages store under.  A point
    is ``hit`` (tuned and baseline runs stored), ``skip`` (only the
    shared baseline run is missing) or ``run`` (the tuned run or its
    tuning is missing).  The stale baselines — one per ``(flow,
    clock)`` — are computed first, then the stale points, so no two
    tasks ever synthesize the same baseline.

    An out-of-process ``backend`` runs every task through
    :func:`_sweep_worker` in a fresh flow sharing the store; an
    in-process backend, or a flow without a store, computes in place
    on the points' own flows.  All of it runs in one ``flow.sweep``
    span, warm or cold, so a warm sweep loads its runs under the span
    path a cold sweep computed them under.

    Returns the per-point statuses, in ``points`` order, the number of
    tasks scheduled (zero on a warm grid) and the comparisons, in
    ``points`` order.
    """
    with get_tracer().span(
        "flow.sweep", points=len(points), backend=backend.name
    ) as span:
        statuses, scheduled = _compute_stale(points, backend)
        span.set(scheduled=scheduled)
        return statuses, scheduled, [
            flow.compare(clock_period, method, parameter)
            for flow, clock_period, method, parameter in points
        ]


def _compute_stale(points: Sequence[FlowPoint], backend) -> Tuple[List[str], int]:
    """The diff and the stale work of :func:`sweep_points`."""
    statuses: List[str] = []
    stale_baselines: Dict[Tuple[Any, float], None] = {}
    stale_points: List[FlowPoint] = []
    for point in points:
        flow, clock_period, method, parameter = point
        tuned_warm, baseline_warm = flow.stored(
            flow.point_keys(clock_period, method, parameter)
        )
        if not baseline_warm:
            stale_baselines[(flow, clock_period)] = None
        if not tuned_warm:
            stale_points.append(point)
        statuses.append(
            "run" if not tuned_warm else "hit" if baseline_warm else "skip"
        )
    scheduled = len(stale_baselines) + len(stale_points)
    if not scheduled:
        return statuses, scheduled
    if backend.in_process or not all(
        flow.config.cache for flow, *_ in points
    ):
        for flow, clock_period in stale_baselines:
            flow.baseline(clock_period)
        for flow, clock_period, method, parameter in stale_points:
            flow.tuned(clock_period, method, parameter)
        return statuses, scheduled
    # characterize (and persist) each distinct library once before
    # dispatching, so workers load one cached artifact instead of
    # racing to recompute it
    stale = [*stale_baselines, *stale_points]
    for flow in {flow.statlib_key: flow for flow, *_ in stale}.values():
        flow.statistical_library
    backend.map_tasks(
        _sweep_worker,
        [
            (
                dataclasses.replace(flow.config, tracer=None),
                (clock_period, None, 0.0),
            )
            for flow, clock_period in stale_baselines
        ],
    )
    backend.map_tasks(
        _sweep_worker,
        [
            (
                dataclasses.replace(flow.config, tracer=None),
                (clock_period, method, parameter),
            )
            for flow, clock_period, method, parameter in stale_points
        ],
    )
    return statuses, scheduled
