"""Run every table/figure experiment and collect the results.

:func:`build_context` is the one place that turns execution knobs
(worker count, cache on/off, tracer) into a ready
:class:`~repro.experiments.base.ExperimentContext`; the CLI and the
tests both go through it so the 80-run evaluation sweep and ``python
-m repro run --all`` share the same parallel/caching/tracing
configuration path.

Each experiment runs inside an ``experiment.<id>`` span, so a traced
``run --all`` produces one tree with per-experiment roll-ups; with
``trace_dir`` set, every experiment additionally writes its own JSONL
trace artifact (``<id>.trace.jsonl``) — the shape CI uploads.

Every run also appends one record to the **run ledger** (scientific
metrics, stage aggregates, fingerprints — see
:mod:`repro.observe.ledger`), the longitudinal trail behind ``python
-m repro report`` and ``check``.  Set ``REPRO_LEDGER=off`` (or pass
``ledger=False``) to suppress it, or ``REPRO_LEDGER=<path>`` to
redirect it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.experiments import (
    base,
    ext_corner_tuning,
    fig01_metric,
    fig02_statlib,
    fig03_bilinear,
    fig04_inv_surfaces,
    fig05_strength6,
    fig06_rectangle,
    fig07_library_surface,
    fig08_period_area,
    fig09_cell_usage,
    fig10_method_comparison,
    fig11_tradeoff,
    fig12_path_depth,
    fig13_sigma_vs_depth,
    fig14_mean_3sigma,
    fig15_corners,
    fig16_local_share,
    table1_clock_periods,
    table2_parameters,
    table3_winning_params,
)
from repro.experiments.base import ExperimentContext, ExperimentResult

#: Experiment id -> run() callable, in paper order.
ALL_EXPERIMENTS: Dict[str, Callable[[ExperimentContext], ExperimentResult]] = {
    "fig01": fig01_metric.run,
    "fig02": fig02_statlib.run,
    "fig03": fig03_bilinear.run,
    "fig04": fig04_inv_surfaces.run,
    "fig05": fig05_strength6.run,
    "fig06": fig06_rectangle.run,
    "fig07": fig07_library_surface.run,
    "table1": table1_clock_periods.run,
    "fig08": fig08_period_area.run,
    "table2": table2_parameters.run,
    "fig09": fig09_cell_usage.run,
    "fig10": fig10_method_comparison.run,
    "table3": table3_winning_params.run,
    "fig11": fig11_tradeoff.run,
    "fig12": fig12_path_depth.run,
    "fig13": fig13_sigma_vs_depth.run,
    "fig14": fig14_mean_3sigma.run,
    "fig15": fig15_corners.run,
    "fig16": fig16_local_share.run,
    "extcorner": ext_corner_tuning.run,
}

#: Experiments that only touch the library (no synthesis) — cheap.
LIBRARY_ONLY = ("fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
                "table2")


def build_context(
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    tracer: Optional["Tracer"] = None,
    backend: Optional[str] = None,
) -> ExperimentContext:
    """An :class:`ExperimentContext` honoring the execution knobs.

    A thin veneer over :meth:`~repro.flow.experiment.FlowConfig.
    from_env`, which resolves every knob with the same precedence —
    explicit argument > environment (``REPRO_SCALE``, ``REPRO_JOBS``,
    ``REPRO_BACKEND``) > default — so the CLI flags
    and the environment can never disagree about who wins.
    """
    from repro.flow.experiment import FlowConfig, TuningFlow

    config = FlowConfig.from_env(
        jobs=jobs,
        backend=backend,
        cache=cache,
        tracer=tracer,
    )
    return ExperimentContext(TuningFlow(config))


def _record_in_ledger(
    ledger,
    experiment_id: str,
    result: ExperimentResult,
    context: ExperimentContext,
    manifest_start: int,
    counters_start: Dict[str, float],
    counters_end: Dict[str, float],
    wall: float,
) -> None:
    """Append one run record; a ledger failure never fails the run."""
    from repro.observe.ledger import capture_run

    deltas = {
        name: total - counters_start.get(name, 0)
        for name, total in counters_end.items()
        if total != counters_start.get(name, 0)
    }
    try:
        ledger.append(
            capture_run(
                experiment_id,
                result,
                context.flow,
                stage_records=context.flow.manifest.records[manifest_start:],
                counters=deltas,
                wall=wall,
            )
        )
    except OSError as error:  # pragma: no cover - disk-full / perms
        print(f"warning: ledger append failed: {error}", file=sys.stderr)


def run_experiments(
    context: Optional[ExperimentContext] = None,
    ids: Optional[List[str]] = None,
    trace_dir: Optional[Union[str, Path]] = None,
    ledger=None,
) -> Dict[str, ExperimentResult]:
    """Run the selected experiments (all by default) and return them.

    Without an explicit context, one is built through
    :func:`build_context` so the environment knobs (``REPRO_SCALE``,
    ``REPRO_JOBS``) and the default caching path apply — a bare
    ``ExperimentContext()`` would silently bypass them.

    Every experiment runs inside an ``experiment.<id>`` span on the
    active tracer.  With ``trace_dir`` set, each experiment *also*
    records a standalone trace artifact ``<trace_dir>/<id>.trace.
    jsonl`` (spans and counter totals of just that experiment).

    Each finished experiment appends one :class:`~repro.observe.
    ledger.RunRecord` to the run ledger: ``ledger=None`` resolves it
    from the environment (``REPRO_LEDGER``; default beside the
    artifact store), ``ledger=False`` disables recording, and an
    explicit :class:`~repro.observe.ledger.RunLedger` pins the path.
    """
    from repro.observe import JsonlExporter, Tracer, get_metrics, get_tracer, set_tracer
    from repro.observe.ledger import resolve_ledger

    context = context or build_context()
    chosen = ids if ids is not None else list(ALL_EXPERIMENTS)
    directory = None if trace_dir is None else Path(trace_dir)
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    if ledger is None:
        ledger = resolve_ledger()
    elif ledger is False:
        ledger = None
    results: Dict[str, ExperimentResult] = {}
    for experiment_id in chosen:
        manifest_start = len(context.flow.manifest.records)
        start = time.perf_counter()
        counters_start = get_metrics().snapshot().counter_totals()
        if directory is not None:
            path = directory / f"{experiment_id}.trace.jsonl"
            artifact_tracer = Tracer(JsonlExporter(path, truncate=True))
            previous = set_tracer(artifact_tracer)
            try:
                with artifact_tracer.span(f"experiment.{experiment_id}"):
                    results[experiment_id] = ALL_EXPERIMENTS[experiment_id](context)
                artifact_tracer.finish()
            finally:
                set_tracer(previous)
        else:
            with get_tracer().span(f"experiment.{experiment_id}"):
                results[experiment_id] = ALL_EXPERIMENTS[experiment_id](context)
        if ledger is not None:
            _record_in_ledger(
                ledger,
                experiment_id,
                results[experiment_id],
                context,
                manifest_start,
                counters_start,
                get_metrics().snapshot().counter_totals(),
                wall=time.perf_counter() - start,
            )
    return results


def report(results: Dict[str, ExperimentResult]) -> str:
    """Text report over a set of experiment results."""
    return "\n\n".join(result.to_text() for result in results.values())
