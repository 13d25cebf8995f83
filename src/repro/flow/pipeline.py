"""The staged artifact pipeline behind :class:`~repro.flow.experiment.
TuningFlow`.

The end-to-end evaluation is a chain of pure stages::

    catalog -> statistical library -> tuning -> synthesis -> paths
            -> design statistics          (+ the minimum-period search)

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
fingerprint (or the :data:`BASELINE_WINDOWS` sentinel), and so on, so
a change anywhere upstream invalidates exactly the artifacts it can
affect.

Layout under ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro``)::

    stat-<key>.npz            characterized library   (LUT arrays, npz codec)
    samples-<key>.npz         per-sample MC libraries (stacked LUT arrays)
    tuning-<key>.json.gz      TuningResult             (windows, thresholds)
    synth-<key>.json.gz       RunSummary               (met, area, histogram)
    paths-<key>.json.gz       worst endpoint paths     (full step data)
    stats-<key>.json.gz       DesignStatistics         (eq. 11 roll-up)
    minperiod-<key>.json.gz   minimum-period search    (one float)

Every stage resolution appends a :class:`StageRecord` (stage id, key,
hit/miss, wall time) to the flow's :class:`RunManifest`, surfaced via
``python -m repro run ... --manifest``; ``python -m repro store stats``
counts the stored entries per stage.

Every multi-point evaluation — fig10's in-design sweep
(:meth:`~repro.flow.experiment.TuningFlow.sweep_comparisons`), the
design-family sweep (:func:`repro.sweep.run_sweep`) — goes through one
function, :func:`sweep_stale`: it diffs each point's chained keys
(derived by its flow, the only code that derives them) against the
store and computes only the stale baselines and points, on the
configured :class:`~repro.parallel.backends.ExecutorBackend` (serial
or process pool).  Workers rebuild the flow from the (picklable)
config and publish through the shared store; the caller then collects
every point through ``flow.compare`` — deterministic and bit-identical
to the serial path on every backend, because every stage is a pure
function of its fingerprinted inputs.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.observe import get_tracer
from repro.parallel.artifacts import ArtifactStore, stage_fingerprint
from repro.sta.graph import StaConfig

#: A sweep point: (clock period, method name, parameter); method
#: ``None`` marks a baseline warm-up point (parameter is ignored).
SweepPoint = Tuple[float, Optional[str], float]

#: A point of :func:`sweep_stale`: (flow, clock period, method name,
#: parameter) — each point carries the flow whose design it evaluates.
FlowPoint = Tuple[Any, float, str, float]

#: The chained ``(stage, key)`` pairs of one synthesis run:
#: ``synth``, then ``paths`` and ``stats`` derived from it.
RunKeys = Tuple[Tuple[str, str], ...]


class PointKeys(NamedTuple):
    """The stage keys one evaluation point is stored under."""

    #: Fingerprint of the tuning stage.
    tuning: str
    #: The tuned run's synth/paths/stats keys.
    tuned: RunKeys
    #: The untuned baseline run's synth/paths/stats keys.
    baseline: RunKeys


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


class ArtifactPipeline:
    """Resolves stages against a store, recording every resolution.

    A ``None`` store (``FlowConfig(cache=False)``) degrades every stage
    to compute-only; the manifest still records what ran.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        manifest: Optional[RunManifest] = None,
    ):
        self.store = store
        self.manifest = manifest if manifest is not None else RunManifest()

    def resolve(
        self,
        stage: str,
        key: str,
        compute: Callable[[], Any],
        encode: Callable[[Any], Any],
        decode: Callable[[Any], Any],
    ) -> Any:
        """Load ``(stage, key)`` from the store, or compute and persist.

        ``encode``/``decode`` translate between the live value and its
        JSON payload; a hit is decoded inside the store's load, so a
        payload ``decode`` rejects heals into a miss like a torn file;
        a miss is computed, encoded and stored atomically.

        Every resolution is both a manifest record and a trace span
        (``stage.<name>`` with the key and hit/miss status as
        attributes), so the run manifest and the time tree agree.
        """
        tracer = get_tracer()
        with tracer.span(f"stage.{stage}", key=key[:12]) as span:
            start = time.perf_counter()
            if self.store is not None:
                value = self.store.load(stage, key, decode)
                if value is not None:
                    span.set(status="hit")
                    self.manifest.record(
                        stage, key, "hit", time.perf_counter() - start
                    )
                    return value
            value = compute()
            if self.store is not None:
                self.store.store(stage, key, encode(value))
                status = "miss"
            else:
                status = "computed"
            span.set(status=status)
            self.manifest.record(stage, key, status, time.perf_counter() - start)
            return value


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


def sweep_stale(points: Sequence[FlowPoint], backend) -> Tuple[List[str], int]:
    """Diff ``(flow, clock, method, parameter)`` points against the
    store and compute only the stale work.

    Each point's chained keys come from its own flow
    (:meth:`~repro.flow.experiment.TuningFlow.point_keys`), so the diff
    can never disagree with the keys the stages store under.  A point
    is ``hit`` (tuned and baseline chains stored), ``skip`` (only the
    shared baseline chain is missing) or ``run`` (the tuned chain is
    missing).  The stale baselines — one per ``(flow, clock)`` — are
    computed first, then the stale points, so no two tasks ever
    synthesize the same baseline.

    An out-of-process ``backend`` runs every task through
    :func:`_sweep_worker` in a fresh flow sharing the store; an
    in-process backend, or a flow without a store, computes in place
    on the points' own flows.  Either way the caller then collects
    every point through ``flow.compare`` as a memo or store hit.

    Returns the per-point statuses, in ``points`` order, and the
    number of tasks scheduled (zero on a warm grid).
    """
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
    with get_tracer().span(
        "flow.sweep",
        points=len(statuses),
        scheduled=scheduled,
        backend=backend.name,
    ):
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
