"""Expand, diff, dispatch, collect: the incremental sweep driver.

:func:`run_sweep` turns a :class:`SweepGrid` into comparisons in four
deterministic phases:

1. **Expand** — the ``design x method x parameter x clock`` grid
   becomes an ordered list of :class:`GridPoint`; design names resolve
   through :func:`~repro.netlist.generators.family.design_spec`
   (relative to the config's base design) and methods through the
   tuning-method registry, so a typo fails loudly before any work.
   Each design gets one serial :class:`~repro.flow.experiment.
   TuningFlow`: every generator knob a :class:`~repro.netlist.
   generators.family.DesignSpec` touches lands in the fingerprinted
   ``MicrocontrollerParams``, so each family member has its own keys.
2. **Diff** and 3. **Dispatch** — :func:`repro.flow.pipeline.
   sweep_points` probes every point's keys (derived by its
   design's flow) against the artifact store and computes only the
   stale work: first one baseline per ``(design, clock)`` with a missing
   baseline run, then one task per stale point, on the execution
   backend.  A warm grid dispatches **nothing** — zero synthesis, zero
   characterization.
4. **Collect** — ``sweep_points`` then reads every point (fresh and
   stale alike) back through its design's flow, so the result list is
   complete, in grid order, and bit-identical however phase 3
   executed.

Each run appends one ledger record with per-status point counts
(``sweep.hit`` / ``sweep.skip`` / ``sweep.run``) — the longitudinal
trail of how much a grid actually recomputed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.methods import TUNING_METHODS, method_by_name
from repro.errors import ConfigError
from repro.flow.metrics import TuningComparison
from repro.flow.pipeline import PointKeys

__all__ = [
    "GridPoint",
    "PointResult",
    "SweepGrid",
    "SweepResult",
    "point_keys",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepGrid:
    """The axes of one sweep: their product is the point list.

    ``methods=None`` means every registered tuning method;
    ``parameters=None`` means each method's own Table 2 sweep values
    (so the default grid is exactly the paper's per-method evaluation,
    fanned across designs and clocks).
    """

    designs: Tuple[str, ...] = ("microcontroller",)
    methods: Optional[Tuple[str, ...]] = None
    parameters: Optional[Tuple[float, ...]] = None
    clock_periods: Tuple[float, ...] = (3.0,)

    def __post_init__(self) -> None:
        if not self.designs:
            raise ConfigError("sweep grid needs at least one design")
        if not self.clock_periods:
            raise ConfigError("sweep grid needs at least one clock period")
        if self.methods is not None and not self.methods:
            raise ConfigError("sweep grid needs at least one method")

    def points(self) -> List["GridPoint"]:
        """The expanded grid, in deterministic nested-axis order."""
        methods = (
            tuple(TUNING_METHODS) if self.methods is None else self.methods
        )
        points: List[GridPoint] = []
        for design in self.designs:
            for name in methods:
                method = method_by_name(name)
                values = (
                    method.sweep_values()
                    if self.parameters is None
                    else self.parameters
                )
                for parameter in values:
                    for period in self.clock_periods:
                        points.append(
                            GridPoint(design, method.name, parameter, period)
                        )
        return points


@dataclass(frozen=True)
class GridPoint:
    """One cell of the expanded grid."""

    design: str
    method: str
    parameter: float
    clock_period: float

    def label(self) -> str:
        """Stable human/ledger label of the point."""
        return (
            f"{self.design}/{self.method}/{self.parameter:g}"
            f"@{self.clock_period:g}"
        )


@dataclass(frozen=True)
class PointResult:
    """A grid point, how it was satisfied, and its comparison.

    ``status`` is ``hit`` (every artifact was already in the store),
    ``run`` (the point's tuned run was stale and was dispatched) or
    ``skip`` (only the shared baseline run was missing — a baseline
    task scheduled for the ``(design, clock)`` pair covered it without
    a per-point dispatch).
    """

    point: GridPoint
    status: str
    comparison: TuningComparison


@dataclass
class SweepResult:
    """Everything one sweep run produced."""

    grid: SweepGrid
    results: List[PointResult]
    #: Point count per status (``hit`` / ``skip`` / ``run``).
    counts: Dict[str, int]
    #: Tasks actually dispatched to the backend (baselines + points);
    #: zero on a warm grid — the incremental guarantee CI gates on.
    scheduled: int
    backend: str
    statlib_key: str
    design_keys: Dict[str, str] = field(default_factory=dict)
    wall: float = 0.0

    def comparisons(self) -> List[TuningComparison]:
        """The comparisons alone, in grid order."""
        return [result.comparison for result in self.results]


def point_keys(flow, point: GridPoint) -> PointKeys:
    """The keys ``point`` is stored under, as ``flow`` derives them:
    its tuning key, its tuned run's ``synth`` key and its baseline
    run's ``synth`` key.

    ``flow`` is a :class:`~repro.flow.experiment.TuningFlow` for the
    point's design; the tuning service probes warmth and keys its
    coalescing through this.
    """
    return flow.point_keys(point.clock_period, point.method, point.parameter)


def run_sweep(
    config,
    grid: SweepGrid,
    backend=None,
    ledger=None,
) -> SweepResult:
    """Run one grid incrementally; see the module docstring.

    ``config`` is the :class:`~repro.flow.experiment.FlowConfig`
    supplying the base design, scale, guard band and execution knobs;
    ``backend`` overrides its backend selection.  The on-disk store is
    the diffing medium and the workers' shared memory, so ``config.
    cache`` must be enabled.  ``ledger=None`` resolves the run ledger
    from the environment, ``False`` disables recording.
    """
    from repro.flow.experiment import TuningFlow
    from repro.flow.pipeline import sweep_points
    from repro.netlist.generators.family import design_spec
    from repro.parallel.backends import resolve_backend

    if not config.cache:
        raise ConfigError(
            "the sweep driver diffs fingerprints against the artifact "
            "store; enable the cache (FlowConfig(cache=True), drop "
            "--no-cache)"
        )
    start = time.perf_counter()
    resolved = resolve_backend(
        config.backend if backend is None else backend, config.n_workers
    )
    points = grid.points()
    flows = {
        name: TuningFlow(
            replace(
                config,
                design=design_spec(name).params(config.design),
                n_workers=1,
                backend="serial",
                tracer=None,
            )
        )
        for name in dict.fromkeys(grid.designs)
    }
    statuses, scheduled, comparisons = sweep_points(
        [
            (flows[p.design], p.clock_period, p.method, p.parameter)
            for p in points
        ],
        resolved,
    )
    results = [
        PointResult(point=point, status=status, comparison=comparison)
        for point, status, comparison in zip(points, statuses, comparisons)
    ]
    result = SweepResult(
        grid=grid,
        results=results,
        counts={
            status: statuses.count(status) for status in ("hit", "skip", "run")
        },
        scheduled=scheduled,
        backend=resolved.name,
        # design-independent: every flow shares one library
        statlib_key=next(iter(flows.values())).statlib_key,
        design_keys={name: flow.design_key for name, flow in flows.items()},
        wall=time.perf_counter() - start,
    )
    _record_sweep(config, result, ledger)
    return result


def _record_sweep(config, result: SweepResult, ledger) -> None:
    """Append the sweep's ledger record; failures never fail the run."""
    import sys

    from repro.observe.ledger import (
        RunRecord,
        host_info,
        resolve_ledger,
    )

    if ledger is None:
        ledger = resolve_ledger()
    elif ledger is False:
        ledger = None
    if ledger is None:
        return
    fingerprints = {"statlib": result.statlib_key}
    for name, key in result.design_keys.items():
        fingerprints[f"design/{name}"] = key
    metrics: Dict[str, float] = {}
    for point_result in result.results:
        label = point_result.point.label()
        metrics[f"sigma_reduction[{label}]"] = (
            point_result.comparison.sigma_reduction
        )
        metrics[f"area_increase[{label}]"] = (
            point_result.comparison.area_increase
        )
    record = RunRecord(
        run_id=os.urandom(6).hex(),
        timestamp=time.time(),
        experiment="sweep",
        scale=config.scale_name(),
        fingerprints=fingerprints,
        host=host_info(),
        metrics=metrics,
        counters={
            "sweep.points": float(len(result.results)),
            "sweep.hit": float(result.counts["hit"]),
            "sweep.skip": float(result.counts["skip"]),
            "sweep.run": float(result.counts["run"]),
            "sweep.scheduled": float(result.scheduled),
        },
        wall=result.wall,
    )
    try:
        ledger.append(record)
    except OSError as error:  # pragma: no cover - disk-full / perms
        print(f"warning: ledger append failed: {error}", file=sys.stderr)
