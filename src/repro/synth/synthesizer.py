"""The synthesis loop: map -> size -> legalize -> buffer -> recover.

A deliberately classic TILOS-style greedy sizer:

1. bind every instance to its weakest usable variant;
2. iterate: fix *legality* (tuning-window / max_capacitance loads,
   window input slews) by upsizing the offending cell or its driver,
   and fix *timing* by upsizing every cell whose output net has
   negative slack — all moves are monotone upsizes, so the loop
   terminates;
3. when upsizing cannot legalize a net's load (driver already at the
   strongest usable variant), split the fanout with inverter pairs and
   rebuild the timing graph;
4. once timing is met, walk the design downsizing cells whose slack
   margin allows it (area recovery), re-running the sizer if recovery
   overshoots.

Synthesis *fails* (``SynthesisResult.met == False``) when the sizing
fixpoint still has negative slack — the signal the minimum-period
search of Table 1 looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SynthesisError
from repro.kernels.sta import worst_values
from repro.liberty.model import Library
from repro.netlist.model import Instance, Netlist
from repro.observe import get_tracer
from repro.observe.catalog import (
    SYNTH_BUFFER_INSTANCES,
    SYNTH_CALLS,
    SYNTH_SIZING_ITERATIONS,
)
from repro.sta.engine import TimingResult, analyze
from repro.sta.graph import StaConfig, TimingGraph
from repro.synth.buffering import plan_groups, split_fanout
from repro.synth.constraints import SynthesisConstraints
from repro.synth.mapping import CellChoices, initial_mapping

_EPS = 1e-9

#: Queries per batched stage lookup (see ``Synthesizer._stage_values``).
_STAGE_BLOCK = 512

#: Of one instance bound to one cell: the stage delay (worst arc delay)
#: and the worst output transition per output pin (``output_pins`` order).
StageValues = Tuple[float, List[float]]

#: Process-wide synthesis invocation counter (see the test hooks below).
_SYNTHESIS_CALLS = 0


def synthesis_call_count() -> int:
    """Number of :func:`synthesize` invocations in this process.

    Test hook (with :func:`reset_synthesis_call_count`) to assert that
    a warm artifact store serves synthesis runs without re-synthesizing
    — the downstream mirror of ``characterization_call_count``.
    """
    return _SYNTHESIS_CALLS


def reset_synthesis_call_count() -> None:
    """Reset the synthesis invocation counter to zero."""
    global _SYNTHESIS_CALLS
    _SYNTHESIS_CALLS = 0


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run."""

    netlist: Netlist
    library: Library
    constraints: SynthesisConstraints
    timing: TimingResult
    met: bool
    area: float
    sizing_iterations: int
    buffer_instances: int
    #: Human-readable reason when ``met`` is False.
    failure_reason: str = ""
    #: Output pins whose load still violates their window / max_cap
    #: at the fixpoint (0 in any healthy run; non-zero signals the
    #: restriction is structurally unsatisfiable for this netlist).
    legality_violations: int = 0

    def cell_histogram(self) -> Dict[str, int]:
        """Bound-cell usage (paper Fig. 9)."""
        return self.netlist.cell_histogram()


class Synthesizer:
    """Times-driven sizing engine; see the module docstring."""

    def __init__(
        self,
        netlist: Netlist,
        library: Library,
        constraints: SynthesisConstraints,
        sta_config: Optional[StaConfig] = None,
    ):
        self.netlist = netlist
        self.library = library
        self.constraints = constraints
        self.sta_config = sta_config or StaConfig()
        self.choices = CellChoices(library, constraints)
        self.sizing_iterations = 0
        self.buffer_instances = 0
        self._graph: Optional[TimingGraph] = None
        self._fanout_stuck: Set[str] = set()
        #: Presizing utilization the last sizing loop reached.
        self._last_utilization = 1.0

    # ------------------------------------------------------------------

    def run(self) -> SynthesisResult:
        """Execute the full loop and return the final state."""
        tracer = get_tracer()
        with tracer.span("synth.map", instances=len(self.netlist)):
            initial_mapping(self.netlist, self.choices)
            self._rebuild_graph()
        with tracer.span("synth.size"):
            result = self._sizing_loop()
        with tracer.span("synth.buffer") as buffer_span:
            for _round in range(self.constraints.max_buffer_rounds):
                buffered = self._fix_fanout(result)
                if buffered == 0:
                    break
                self._rebuild_graph()
                # no global re-presize after buffering: re-applying the
                # utilization headroom would re-inflate the fresh buffers'
                # sinks and undo the split (ping-pong); legality and the
                # critical-path machinery still run
                result = self._sizing_loop(presize_all=False)
            buffer_span.set(buffers=self.buffer_instances)
        if result.met:
            with tracer.span("synth.recover"):
                result = self._area_recovery(result)
        SYNTH_SIZING_ITERATIONS.inc(self.sizing_iterations)
        SYNTH_BUFFER_INSTANCES.inc(self.buffer_instances)
        met = result.met
        reason = "" if met else (
            f"WNS {result.wns:+.4f} ns at sizing fixpoint "
            f"(period {self.constraints.clock_period} ns)"
        )
        return SynthesisResult(
            netlist=self.netlist,
            library=self.library,
            constraints=self.constraints,
            timing=result,
            met=met,
            area=self.graph.total_area(),
            sizing_iterations=self.sizing_iterations,
            buffer_instances=self.buffer_instances,
            failure_reason=reason,
            legality_violations=self._count_legality_violations(),
        )

    def _count_legality_violations(self) -> int:
        """Output pins whose load exceeds the bound variant's capacity."""
        graph, choices = self.graph, self.choices
        violations = 0
        for instance in self.netlist:
            variant = choices.variant_of(instance.cell)
            for pin in instance.function.output_pins:
                load = graph.loads[graph.net_ids[instance.net_of(pin)]]
                if load > variant.max_load + 1e-6:
                    violations += 1
        return violations

    # ------------------------------------------------------------------

    @property
    def graph(self) -> TimingGraph:
        """The current timing graph (rebuilt after structural changes)."""
        if self._graph is None:
            raise SynthesisError("timing graph requested before first build")
        return self._graph

    def _rebuild_graph(self) -> None:
        self._graph = TimingGraph(self.netlist, self.library, self.sta_config)

    def _analyze(self) -> TimingResult:
        return analyze(
            self.graph,
            clock_period=self.constraints.clock_period,
            guard_band=self.constraints.guard_band,
        )

    def _instance_views(self) -> List[Tuple[Instance, List[int], List[int]]]:
        """(instance, output net ids, non-clock input net ids)."""
        graph = self.graph
        views = []
        for instance in self.netlist:
            function = instance.function
            outs = [graph.net_ids[instance.net_of(p)] for p in function.output_pins]
            ins = [
                graph.net_ids[instance.net_of(p)]
                for p in function.input_pins
                if p != function.clock_pin
            ]
            views.append((instance, outs, ins))
        return views

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    #: Load utilization of the relaxed (area-first) presizing stage.
    _UTIL_START = 0.5
    #: Tightening factor per presizing round.
    _UTIL_SHRINK = 0.62
    #: Tightest utilization the presizer will request.
    _UTIL_FLOOR = 0.07
    #: Fine-tuning iterations after presizing.
    _FINE_ITERATIONS = 12

    def _sizing_loop(self, presize_all: bool = True) -> TimingResult:
        """Two-stage sizing.

        Stage 1 — *utilization presizing*: every cell gets the weakest
        variant whose load capacity, derated by a global utilization
        factor, covers its actual load; while timing fails, the factor
        is tightened for critical cells only.  This reaches an
        electrically sane design in a handful of STA passes (slews are
        bounded by construction), the way slew-budget global sizing
        works in production tools.

        Stage 2 — *fine tuning*: bounded TILOS-style benefit/penalty
        moves on the remaining critical cells, plus window/max-cap
        legalization.
        """
        views = self._instance_views()
        # later buffer rounds resume from the utilization the first
        # round reached instead of re-walking the whole descent
        utilization = min(self._UTIL_START, self._last_utilization)
        if presize_all:
            self._presize(views, utilization, critical_only=False, result=None)
        self.graph.remap()
        result = self._analyze()
        self.sizing_iterations += 1
        while result.wns < -_EPS and utilization > self._UTIL_FLOOR:
            utilization *= self._UTIL_SHRINK
            changes = self._presize(
                views, utilization, critical_only=True, result=result
            )
            changes += self._legalize_once(result, views)
            if changes == 0:
                break
            self.graph.remap()
            result = self._analyze()
            self.sizing_iterations += 1
        self._last_utilization = utilization
        for _iteration in range(self._FINE_ITERATIONS):
            changes = self._legalize_once(result, views)
            if result.wns < -_EPS:
                changes += self._upsize_critical(result, views)
            if changes == 0:
                return result
            self.graph.remap()
            result = self._analyze()
            self.sizing_iterations += 1
        return result

    def _presize(
        self,
        views,
        utilization: float,
        critical_only: bool,
        result: Optional[TimingResult],
    ) -> int:
        """Bind cells to the weakest variant covering load/utilization.

        Never downsizes (monotone with the rest of the sizer); with
        ``critical_only`` the pass skips instances whose output slack
        is non-negative.
        """
        choices = self.choices
        changes = 0
        if critical_only and result is None:
            raise SynthesisError(
                "critical-only sizing pass needs a timing result"
            )
        for instance, outs, _ins in views:
            if critical_only:
                slack = min(result.required[o] - result.arrival[o] for o in outs)
                if slack >= -_EPS:
                    continue
            load = max(self.graph.loads[o] for o in outs)
            candidate = choices.smallest_for_load(
                instance.family, load / utilization, actual_load=load
            )
            current = choices.variant_of(instance.cell)
            if candidate.strength > current.strength:
                instance.cell = candidate.cell_name
                changes += 1
        return changes

    def _legalize_once(self, result: TimingResult, views) -> int:
        """One pass of design-rule legalization by upsizing.

        Covers three rules: output load within the variant's (possibly
        window-restricted) capacity; the global ``max_transition``; and
        the tuning window's maximum *input* slew, fixed by upsizing the
        offending driver.
        """
        graph, choices = self.graph, self.choices
        max_transition = self.constraints.max_transition
        changes = 0
        for instance, outs, ins in views:
            variant = choices.variant_of(instance.cell)
            load = max(graph.loads[o] for o in outs)
            if load > variant.max_load + _EPS:
                candidate = choices.smallest_for_load(
                    instance.family, load
                )
                if candidate.strength > variant.strength:
                    instance.cell = candidate.cell_name
                    changes += 1
                    variant = candidate
            transition = max(result.slew[o] for o in outs)
            if transition > max_transition + _EPS:
                up = choices.next_up(instance.cell)
                if up is not None:
                    instance.cell = up.cell_name
                    changes += 1
                    variant = up
            if not ins or math.isinf(variant.max_slew):
                continue
            for net_id in ins:
                if result.slew[net_id] > variant.max_slew + _EPS:
                    driver = self.netlist.net(graph.net_names[net_id]).driver
                    if driver is None or driver.instance is None:
                        continue  # port-driven: ideal source
                    driver_instance = self.netlist.instance(driver.instance)
                    up = choices.next_up(driver_instance.cell)
                    if up is not None:
                        driver_instance.cell = up.cell_name
                        changes += 1
        return changes

    def _driver_penalty(
        self, net_id: int, extra_cap: float, result: TimingResult
    ) -> float:
        """Delay increase of a net's driver if the net gains ``extra_cap``."""
        graph = self.graph
        driver = self.netlist.net(graph.net_names[net_id]).driver
        if driver is None or driver.instance is None:
            return 0.0
        instance = self.netlist.instance(driver.instance)
        cell = self.library.cell(instance.cell)
        function = instance.function
        load = float(graph.loads[net_id])
        worst_old = 0.0
        worst_new = 0.0
        for input_pin, output_pin in function.arcs():
            if instance.net_of(output_pin) != graph.net_names[net_id]:
                continue
            slew = (
                self.sta_config.clock_slew
                if input_pin == function.clock_pin
                else float(result.slew[graph.net_ids[instance.net_of(input_pin)]])
            )
            arc = cell.pin(output_pin).arc_from(input_pin)
            worst_old = max(worst_old, arc.worst_delay(slew, load))
            worst_new = max(worst_new, arc.worst_delay(slew, load + extra_cap))
        return worst_new - worst_old

    #: Fine-tuning moves evaluated per iteration (the worst-slack set).
    _FINE_CANDIDATES = 800

    def _upsize_critical(self, result: TimingResult, views) -> int:
        """Upsize negative-slack instances when it pays off.

        A move is accepted only when the instance's own stage-delay
        gain exceeds the delay penalty its larger input pins inflict on
        the driving stages — the classic TILOS sensitivity test, which
        keeps the sizer from drowning the design in capacitance.  Only
        the worst-slack candidates are evaluated per iteration, both
        for speed and to keep the moves focused on the critical region.
        """
        choices = self.choices
        library = self.library
        changes = 0
        negative = []
        for view in views:
            _instance, outs, _ins = view
            slack = min(result.required[o] - result.arrival[o] for o in outs)
            if slack < -_EPS:
                negative.append((slack, view))
        negative.sort(key=lambda item: item[0])
        moves: List[Tuple[Instance, str]] = []
        for _slack, (instance, outs, _ins) in negative[: self._FINE_CANDIDATES]:
            up = choices.next_up(instance.cell)
            if up is None:
                continue
            load = max(self.graph.loads[o] for o in outs)
            if up.max_load + _EPS < load:
                stronger = choices.smallest_for_load(instance.family, load)
                if stronger.strength <= choices.variant_of(instance.cell).strength:
                    continue
                up = stronger
            moves.append((instance, up.cell_name))
        # stage delays read only the pass's slews and loads: one batch
        stages = self._stage_values(
            [(instance, instance.cell) for instance, _up in moves] + moves, result
        )
        for (instance, up_cell), (current, _), (upsized, _) in zip(
            moves, stages, stages[len(moves):]
        ):
            benefit = current - upsized
            if benefit <= 0:
                continue
            old_cell = library.cell(instance.cell)
            new_cell = library.cell(up_cell)
            penalty = 0.0
            function = instance.function
            input_pins = [p for p in function.input_pins if p != function.clock_pin]
            for pin in input_pins:
                extra = new_cell.pins[pin].capacitance - old_cell.pins[pin].capacitance
                if extra <= 0:
                    continue
                net_id = self.graph.net_ids[instance.net_of(pin)]
                # only penalize drivers that are themselves timing-
                # critical: slowing a slack-rich side input cannot hurt
                # the paths this move is trying to fix
                if result.required[net_id] - result.arrival[net_id] >= -_EPS:
                    continue
                penalty += self._driver_penalty(net_id, extra, result)
                if penalty >= benefit:
                    break
            if benefit > penalty:
                instance.cell = up_cell
                changes += 1
        return changes

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------

    #: A critical net is buffered when its load exceeds this (pF).
    _TIMING_BUFFER_LOAD = 0.012
    #: Target capacitance per buffered branch (pF).
    _BRANCH_TARGET_LOAD = 0.006
    #: Minimum fanout before timing-driven buffering considers a net.
    _TIMING_BUFFER_FANOUT = 8

    def _net_load(self, net_name: str) -> float:
        """Current capacitance of a net, computed from the live netlist
        (the timing graph's cached loads go stale during splitting)."""
        config = self.sta_config
        net = self.netlist.net(net_name)
        total = config.wire_cap_per_fanout * len(net.sinks)
        for sink in net.sinks:
            if sink.instance is None:
                total += config.output_port_cap
            else:
                cell = self.library.cell(self.netlist.instance(sink.instance).cell)
                total += cell.pins[sink.pin].capacitance
        return total

    def _split_net(self, net_name: str, branch_load: float) -> List[str]:
        """Split one net into inverter-pair branches; returns new nets."""
        choices = self.choices
        inverter = choices.smallest("INV")
        sink_cap = self.library.cell(inverter.cell_name).pin("A").capacitance
        load = self._net_load(net_name)
        n_groups = max(1, math.ceil(load / max(branch_load, _EPS)))
        sinks = list(self.netlist.net(net_name).sinks)
        kept, groups = plan_groups(sinks, n_groups)
        buffer_cell = choices.smallest_for_load(
            "INV", load / max(len(groups), 1) + sink_cap
        )
        created = split_fanout(self.netlist, net_name, groups, buffer_cell.cell_name)
        self.buffer_instances += len(created)
        # the nets the new inverters drive may themselves be heavy
        return [
            self.netlist.instance(name).net_of("Z") for name in created
        ]

    def _fix_fanout(self, result: TimingResult) -> int:
        """Split heavy nets with inverter pairs.

        Two triggers, both observed in the paper's tuned designs
        (Sec. VII.A): *legality* — no usable variant may drive the load
        (tuning windows shrink ``max_load``); and *timing* — a critical
        net's load is large enough that an inverter tree beats brute
        drive strength.  Newly created buffer nets re-enter the
        worklist, so a single round always converges to legal loads
        (buffer trees deepen as needed).
        """
        graph, choices = self.graph, self.choices
        created = 0
        # (net, driver family, force) — force marks timing-driven
        # splits whose load is legal but slow
        worklist: List[Tuple[str, str, bool]] = []
        for instance in list(self.netlist):
            strongest = choices.largest(instance.family)
            for pin in instance.function.output_pins:
                net_name = instance.net_of(pin)
                net_id = graph.net_ids[net_name]
                load = graph.loads[net_id]
                illegal = load > strongest.max_load + _EPS
                slack = result.required[net_id] - result.arrival[net_id]
                timing_heavy = (
                    slack < -_EPS
                    and load > self._TIMING_BUFFER_LOAD
                    and graph.fanout_of(net_id) >= self._TIMING_BUFFER_FANOUT
                    # never re-split a net a previous round created for
                    # timing only: cascades explode the tree
                    and not instance.name.startswith("synbuf")
                )
                if illegal or timing_heavy:
                    worklist.append((net_name, instance.family, not illegal))

        inv_strongest = choices.largest("INV")
        while worklist:
            net_name, family, force = worklist.pop()
            if net_name in self._fanout_stuck:
                continue
            strongest = choices.largest(family)
            load = self._net_load(net_name)
            if not force and load <= strongest.max_load + _EPS:
                continue  # a requeued buffer net that turned out legal
            movable = sum(
                1 for s in self.netlist.net(net_name).sinks if not s.is_port
            )
            if movable <= 1 and not force:
                # a single sink whose pin alone exceeds the cap cannot
                # be fixed by splitting; leave it to upsizing
                self._fanout_stuck.add(net_name)
                continue
            branch_load = min(strongest.max_load, self._BRANCH_TARGET_LOAD)
            try:
                new_nets = self._split_net(net_name, branch_load)
            except SynthesisError:
                self._fanout_stuck.add(net_name)
                continue
            created += len(new_nets)
            for new_net in new_nets:
                if self._net_load(new_net) > inv_strongest.max_load + _EPS:
                    worklist.append((new_net, "INV", False))
        return created

    # ------------------------------------------------------------------
    # Stage lookups (batched per pass) and area recovery
    # ------------------------------------------------------------------

    def _stage_values(
        self, queries: List[Tuple[Instance, str]], result: TimingResult
    ) -> List[StageValues]:
        """Per ``(instance, cell name)``, with the instance bound to that
        cell, at the result's slews and the graph's loads: the stage
        delay (worst arc delay) and each output pin's worst transition.

        Every arc's lookup runs in one batched kernel call, bit-identical
        to ``TimingArc.worst_delay`` / ``TimingArc.worst_transition``;
        the maxima equal the former fold from 0 over the arcs.
        """
        graph = self.graph
        tables = graph.tables
        # a clock pin's arc reads index -1: the ideal clock slew
        slew_of = np.append(result.slew, self.sta_config.clock_slew)
        cell_rows: Dict[Tuple[str, str], List[int]] = {}
        layouts: Dict[str, Tuple[List[int], List[int], List[int]]] = {}
        stages: List[StageValues] = []
        # blocks bound the kernel's temporaries to small arrays
        for first in range(0, len(queries), _STAGE_BLOCK):
            block = queries[first:first + _STAGE_BLOCK]
            rows: List[int] = []
            in_nets: List[int] = []
            out_nets: List[int] = []
            stage_starts: List[int] = []
            pin_starts: List[int] = []
            for instance, cell_name in block:
                function = instance.function
                key = (instance.family, cell_name)
                if key not in cell_rows:
                    cell_rows[key] = [
                        tables.row(cell_name, output_pin, input_pin)
                        for input_pin, output_pin in function.arcs()
                    ]
                if instance.name not in layouts:
                    arcs = function.arcs()
                    # arcs() lists each output pin's arcs as one run
                    layouts[instance.name] = (
                        [
                            -1
                            if input_pin == function.clock_pin
                            else graph.net_ids[instance.net_of(input_pin)]
                            for input_pin, _output_pin in arcs
                        ],
                        [
                            graph.net_ids[instance.net_of(output_pin)]
                            for _input_pin, output_pin in arcs
                        ],
                        [
                            next((i for i, arc in enumerate(arcs) if arc[1] == pin), len(arcs))
                            for pin in function.output_pins
                        ],
                    )
                sources, sinks, runs = layouts[instance.name]
                stage_starts.append(len(rows))
                pin_starts.extend(len(rows) + run for run in runs)
                rows.extend(cell_rows[key])
                in_nets.extend(sources)
                out_nets.extend(sinks)
            index = np.asarray(rows, dtype=np.intp)
            slews = slew_of[np.asarray(in_nets, dtype=np.intp)]
            loads = graph.loads[np.asarray(out_nets, dtype=np.intp)]
            values = worst_values(
                tables,
                np.concatenate([tables.delay[index], tables.transition[index]]),
                np.concatenate([slews, slews]),
                np.concatenate([loads, loads]),
            )
            delays = _run_maxima(values[: index.size], stage_starts)
            transitions = _run_maxima(values[index.size:], pin_starts)
            pin = 0
            for (instance, _cell_name), delay in zip(block, delays):
                n_pins = len(instance.function.output_pins)
                stages.append((delay, transitions[pin:pin + n_pins]))
                pin += n_pins
        return stages

    def _transition_legal_after_downsize(
        self, instance: Instance, worst_by_pin: List[float]
    ) -> bool:
        """Check the downsized cell's output slews stay legal.

        ``worst_by_pin`` holds the downsized worst output transition per
        output pin.  Legal means: under the global ``max_transition``
        and under the tuning-window maximum input slew of every sink
        cell (read live: an earlier move of the pass may have changed a
        sink).
        """
        for output_pin, worst in zip(instance.function.output_pins, worst_by_pin):
            if worst > self.constraints.max_transition + _EPS:
                return False
            for sink in self.netlist.net(instance.net_of(output_pin)).sinks:
                if sink.instance is None:
                    continue
                sink_variant = self.choices.variant_of(
                    self.netlist.instance(sink.instance).cell
                )
                if not math.isinf(sink_variant.max_slew) and (
                    worst > sink_variant.max_slew + _EPS
                ):
                    return False
        return True

    def _area_recovery(self, result: TimingResult) -> TimingResult:
        """Downsize slack-rich cells; revert a pass that breaks timing.

        Passes run with decreasing slack margins: the first (largest)
        batch keeps the most headroom, since the local delay estimate
        ignores the collective slew degradation of simultaneous moves.
        An overshooting pass is rolled back wholesale — determinism
        beats squeezing the last few cells.
        """
        constraints = self.constraints
        passes = constraints.area_recovery_passes
        for pass_index in range(passes):
            margin = constraints.downsize_margin * (passes - pass_index)
            snapshot = {i.name: i.cell for i in self.netlist}
            moves = []
            for view in self._instance_views():
                down = self.choices.next_down(view[0].cell)
                if down is not None:
                    moves.append((view, down))
            # stage delays and downsized transitions read only the
            # pass's slews and loads: one batch for the whole pass
            stages = self._stage_values(
                [(view[0], view[0].cell) for view, _down in moves]
                + [(view[0], down.cell_name) for view, down in moves],
                result,
            )
            changes = 0
            for ((instance, outs, ins), down), (current, _), downsized in zip(
                moves, stages, stages[len(moves):]
            ):
                load = max(self.graph.loads[o] for o in outs)
                if load > down.max_load + _EPS:
                    continue
                if ins and not math.isinf(down.max_slew):
                    if max(result.slew[i] for i in ins) > down.max_slew + _EPS:
                        continue
                if not self._transition_legal_after_downsize(instance, downsized[1]):
                    continue
                slack = min(result.required[o] - result.arrival[o] for o in outs)
                delta = downsized[0] - current
                if slack - delta < margin:
                    continue
                instance.cell = down.cell_name
                changes += 1
            if changes == 0:
                break
            self.graph.remap()
            result = self._analyze()
            if not result.met:
                for instance in self.netlist:
                    instance.cell = snapshot[instance.name]
                self.graph.remap()
                result = self._analyze()
                break
        return result


def _run_maxima(values: np.ndarray, starts: List[int]) -> List[float]:
    """``max(0, max(run))`` of each run of ``values``; run ``k`` spans
    ``starts[k]`` up to the next start, the last one to the end.

    Maxima are exact, so this equals a fold ``worst = max(worst, v)``
    from ``worst = 0.0`` over each run.
    """
    maxima = np.zeros(len(starts))
    bounds = np.asarray(starts + [values.size], dtype=np.intp)
    filled = bounds[:-1] < bounds[1:]
    if filled.any():
        maxima[filled] = np.maximum(
            0.0, np.maximum.reduceat(values, bounds[:-1][filled])
        )
    return maxima.tolist()


def synthesize(
    netlist: Netlist,
    library: Library,
    constraints: SynthesisConstraints,
    sta_config: Optional[StaConfig] = None,
) -> SynthesisResult:
    """Map and size ``netlist`` against ``library`` under ``constraints``."""
    global _SYNTHESIS_CALLS
    _SYNTHESIS_CALLS += 1
    SYNTH_CALLS.inc()
    with get_tracer().span(
        "synth.run",
        period=constraints.clock_period,
        instances=len(netlist),
    ) as span:
        result = Synthesizer(netlist, library, constraints, sta_config).run()
        span.set(met=result.met, iterations=result.sizing_iterations)
        return result
