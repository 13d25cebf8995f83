"""Object-model references for worst-path extraction and the eq. (11)
roll-up.

:func:`backtrack` walks one endpoint back net by net: at each net it
scans the incoming arcs in arc-index order and keeps the first strict
maximum of ``arrival[src] + arc_delay``, building a :class:`PathStep`
per arc.  :func:`design_statistics` folds :class:`TimingPath` objects.
Production (:func:`repro.sta.paths.extract_worst_paths` and
:func:`repro.sta.statistics.design_statistics`) works on arrays and must
equal both exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import TimingError
from repro.liberty.model import Library
from repro.sta.engine import TimingResult
from repro.sta.graph import Endpoint
from repro.sta.paths import PathStep, TimingPath
from repro.sta.statistics import (
    DesignStatistics,
    PathStatistics,
    _step_sigmas,
    path_sigma_correlated,
)

_TOLERANCE = 1e-9


def incoming_arcs(result: TimingResult) -> Dict[int, List[int]]:
    """Net id -> the arcs into it, in arc-index order."""
    incoming: Dict[int, List[int]] = {}
    for index, dst in enumerate(result.graph.arc_dst.tolist()):
        incoming.setdefault(dst, []).append(index)
    return incoming


def backtrack(
    result: TimingResult,
    endpoint: Endpoint,
    incoming: Optional[Dict[int, List[int]]] = None,
) -> TimingPath:
    """The worst path into ``endpoint``, one net at a time."""
    graph = result.graph
    design = graph.design
    config = graph.config
    incoming = incoming if incoming is not None else incoming_arcs(result)
    steps: List[PathStep] = []
    net_id = endpoint.net_id
    guard = 0
    while True:
        guard += 1
        if guard > len(graph.net_names) + 2:
            raise TimingError("path backtracking did not terminate")
        arcs = incoming.get(net_id)
        if not arcs:
            break  # reached a source net (PI or sequential Q)
        best_arc = None
        best_value = -np.inf
        for arc_index in arcs:
            src = graph.arc_src[arc_index]
            value = result.arrival[src] + result.arc_delay[arc_index]
            if value > best_value:
                best_value = value
                best_arc = arc_index
        if best_arc is None:
            raise TimingError(
                "no finite incoming arc while backtracking at net "
                f"{graph.net_names[net_id]}"
            )
        if best_value < result.arrival[net_id] - _TOLERANCE:
            raise TimingError(
                f"inconsistent arrivals while backtracking at net "
                f"{graph.net_names[net_id]}"
            )
        src = int(graph.arc_src[best_arc])
        owner = int(graph.arc_owners[best_arc])
        layout = design.layouts[design.family_ids[owner]]
        slot = int(graph.arc_slots[best_arc])
        steps.append(
            PathStep(
                instance=design.names[owner],
                cell_name=graph.cells.names[graph.cell_ids[owner]],
                related_pin=layout.arc_inputs[slot],
                out_pin=layout.arc_outputs[slot],
                input_net=graph.net_names[src],
                output_net=graph.net_names[net_id],
                delay=float(result.arc_delay[best_arc]),
                slew=float(result.slew[src]),
                load=float(graph.loads[net_id]),
            )
        )
        net_id = src

    launch = result.launches.get(net_id)
    if launch is not None:
        steps.append(
            PathStep(
                instance=launch.instance,
                cell_name=launch.cell_name,
                related_pin=graph.netlist.instance(launch.instance).function.clock_pin,
                out_pin=launch.out_pin,
                input_net=graph.compiled.clock,
                output_net=graph.net_names[launch.q_net],
                delay=launch.delay,
                slew=config.clock_slew,
                load=float(graph.loads[launch.q_net]),
                is_launch=True,
            )
        )
    steps.reverse()
    return TimingPath(
        endpoint=endpoint,
        steps=steps,
        arrival=float(result.arrival[endpoint.net_id]),
        required=result.endpoint_required(endpoint),
    )


def worst_paths(
    result: TimingResult, endpoints: Optional[List[Endpoint]] = None
) -> List[TimingPath]:
    """:func:`backtrack` of every endpoint (all by default), in order."""
    incoming = incoming_arcs(result)
    chosen = endpoints if endpoints is not None else result.graph.endpoints
    return [backtrack(result, endpoint, incoming) for endpoint in chosen]


def design_statistics(
    paths: Sequence[TimingPath], library: Library, rho: float = 0.0
) -> DesignStatistics:
    """Eq. (11) over path objects: every step's sigma in one kernel
    call, each path folded by itself, the path means and ``sigma**2``
    summed left to right."""
    if not paths:
        raise TimingError("design statistics need at least one path")
    sigmas = _step_sigmas(library, [step for path in paths for step in path.steps])
    stats: List[PathStatistics] = []
    start = 0
    for path in paths:
        end = start + len(path.steps)
        step_sigmas = sigmas[start:end]
        stats.append(
            PathStatistics(
                mean=float(sum(step.delay for step in path.steps)),
                sigma=path_sigma_correlated(step_sigmas, rho),
                depth=path.depth,
                step_sigmas=step_sigmas,
            )
        )
        start = end
    mean = float(sum(p.mean for p in stats))
    sigma = float(np.sqrt(sum(p.sigma**2 for p in stats)))
    return DesignStatistics(
        mean=mean, sigma=sigma, n_paths=len(stats), path_stats=tuple(stats)
    )
