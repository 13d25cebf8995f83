"""Forward/backward timing propagation.

Worst-case single-value STA: per net one arrival and one slew, each the
maximum over rise/fall and over incoming arcs.  The characterization
surrogate keeps rise and fall close, so the merged analysis loses
little accuracy while halving the state.

The engine walks the graph's level schedule: each logic level is one
:func:`~repro.kernels.sta.worst_values` call over four table ids per
arc (rise/fall delay and transition, max-merged in pairs) plus one
scatter per propagated array; the backward pass scatters once per
level.  A full pass over the ~18k-gate microcontroller takes tens of
milliseconds, which is what makes the synthesis sizing loop and the
paper's 80-run evaluation sweep tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import TimingError
from repro.kernels.dispatch import resolve_kernel
from repro.kernels.sta import worst_values
from repro.observe import get_tracer
from repro.observe.catalog import (
    STA_ANALYZE_CALLS,
    STA_ARC_EVALUATIONS,
    STA_NODE_VISITS,
)
from repro.sta.graph import Endpoint, TimingGraph
from repro.units import GUARD_BAND_NS

_NEG_INF = -1e30
_POS_INF = 1e30


def _delay_transition(
    graph: TimingGraph,
    table_ids: np.ndarray,
    slews: np.ndarray,
    loads: np.ndarray,
    kernel: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Worst delay and output transition of arcs, one kernel call.

    ``table_ids`` holds one (delay rise, delay fall, transition rise,
    transition fall) row per arc.
    """
    n = slews.size
    values = worst_values(
        graph.tables,
        np.concatenate([table_ids[:, :2], table_ids[:, 2:]]),
        np.concatenate([slews, slews]),
        np.concatenate([loads, loads]),
        kernel,
    )
    return values[:n], values[n:]


@dataclass
class LaunchInfo:
    """Clock->Q launch of one sequential instance."""

    instance: str
    cell_name: str
    out_pin: str
    delay: float
    q_net: int


@dataclass
class TimingResult:
    """Outcome of one STA pass."""

    graph: TimingGraph
    clock_period: float
    guard_band: float
    arrival: np.ndarray
    slew: np.ndarray
    required: np.ndarray
    arc_delay: np.ndarray
    arc_transition: np.ndarray
    launches: Dict[int, LaunchInfo]
    endpoint_slacks: np.ndarray

    @property
    def effective_period(self) -> float:
        """Clock period minus the guard band (paper Sec. VII)."""
        return self.clock_period - self.guard_band

    @property
    def wns(self) -> float:
        """Worst negative slack (worst endpoint slack, really)."""
        return float(self.endpoint_slacks.min())

    @property
    def tns(self) -> float:
        """Total negative slack."""
        return float(np.minimum(self.endpoint_slacks, 0.0).sum())

    @property
    def met(self) -> bool:
        """True when every endpoint has non-negative slack."""
        return self.wns >= -1e-12

    def net_slack(self, net_id: int) -> float:
        """Slack of a net (required - arrival)."""
        return float(self.required[net_id] - self.arrival[net_id])

    def endpoint_required(self, endpoint: Endpoint) -> float:
        """Required arrival time at an endpoint."""
        return self.effective_period - endpoint.setup

    def worst_endpoint(self) -> Endpoint:
        """The endpoint with the smallest slack."""
        index = int(np.argmin(self.endpoint_slacks))
        return self.graph.endpoints[index]


def analyze(
    graph: TimingGraph,
    clock_period: float,
    guard_band: float = GUARD_BAND_NS,
    kernel: Optional[str] = None,
) -> TimingResult:
    """Run one full forward + backward STA pass.

    ``kernel`` selects the evaluation kernel (see :mod:`repro.kernels`):
    ``"vectorized"`` interpolates whole topological levels at once,
    ``"scalar"`` is the per-query reference; ``None`` adopts the active
    kernel.  Results are bit-identical either way.
    """
    if clock_period <= guard_band:
        raise TimingError(
            f"clock period {clock_period} ns must exceed the guard band "
            f"{guard_band} ns"
        )
    kernel = resolve_kernel(kernel)
    STA_ANALYZE_CALLS.inc()
    STA_NODE_VISITS.inc(len(graph.net_names))
    STA_ARC_EVALUATIONS.inc(graph.n_arcs)
    with get_tracer().span("sta.analyze", nets=len(graph.net_names), arcs=graph.n_arcs):
        return _analyze(graph, clock_period, guard_band, kernel)


def _analyze(
    graph: TimingGraph,
    clock_period: float,
    guard_band: float,
    kernel: str,
) -> TimingResult:
    config = graph.config
    n_nets = len(graph.net_names)
    arrival = np.full(n_nets, _NEG_INF)
    slew = np.full(n_nets, config.default_slew)

    # sources: primary inputs
    for net_id in graph.primary_input_ids:
        arrival[net_id] = 0.0
        slew[net_id] = config.input_slew

    # sources: sequential launches
    launches: Dict[int, LaunchInfo] = {}
    if graph.launches:
        q_ids = graph.launch_q
        delays, transitions = _delay_transition(
            graph,
            graph.launch_tables,
            np.full(q_ids.size, config.clock_slew),
            graph.loads[q_ids],
            kernel,
        )
        arrival[q_ids] = delays
        slew[q_ids] = transitions
        for (instance, cell_name, out_pin, q_id), delay in zip(
            graph.launches, delays.tolist()
        ):
            launches[q_id] = LaunchInfo(
                instance=instance,
                cell_name=cell_name,
                out_pin=out_pin,
                delay=delay,
                q_net=q_id,
            )

    # forward propagation, level by level: arcs within a level never
    # feed each other, so their input slews are final before the level
    # evaluates, and every arc into a net belongs to the net's (single)
    # driver — one level — so the first scatter into a net replaces its
    # default slew and max-merges the driver's arcs exactly
    arc_delay = np.zeros(graph.n_arcs)
    arc_transition = np.zeros(graph.n_arcs)
    for arcs, src, dst in graph.level_schedule:
        delays, transitions = _delay_transition(
            graph, graph.arc_tables[arcs], slew[src], graph.loads[dst], kernel
        )
        arc_delay[arcs] = delays
        arc_transition[arcs] = transitions
        np.maximum.at(arrival, dst, arrival[src] + delays)
        slew[dst] = _NEG_INF
        np.maximum.at(slew, dst, transitions)

    if np.any(arrival[graph.arc_dst] <= _NEG_INF / 2):
        bad = graph.arc_dst[arrival[graph.arc_dst] <= _NEG_INF / 2][:3]
        names = [graph.net_names[int(b)] for b in bad]
        raise TimingError(f"unreached nets during propagation: {names}")

    # endpoint slacks
    effective = clock_period - guard_band
    endpoint_required = effective - graph.endpoint_setups
    endpoint_slacks = endpoint_required - arrival[graph.endpoint_net_ids]

    # backward required times (levels descending), one scatter per level
    required = np.full(n_nets, _POS_INF)
    np.minimum.at(required, graph.endpoint_net_ids, endpoint_required)
    for arcs, src, dst in reversed(graph.level_schedule):
        np.minimum.at(required, src, required[dst] - arc_delay[arcs])

    return TimingResult(
        graph=graph,
        clock_period=clock_period,
        guard_band=guard_band,
        arrival=arrival,
        slew=slew,
        required=required,
        arc_delay=arc_delay,
        arc_transition=arc_transition,
        launches=launches,
        endpoint_slacks=endpoint_slacks,
    )
