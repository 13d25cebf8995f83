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
   bind a timing graph on the edited design;
4. once timing is met, walk the design downsizing cells whose slack
   margin allows it (area recovery), re-running the sizer if recovery
   overshoots.

Synthesis *fails* (``SynthesisResult.met == False``) when the sizing
fixpoint still has negative slack — the signal the minimum-period
search of Table 1 looks for.

The synthesizer works on a :class:`~repro.sta.graph.CompiledDesign`
— the flow's, shared read-only by every synthesis of the flow — and
never on :class:`~repro.netlist.model.Netlist` objects.  Its working
state is an integer array: a cell id per instance of the design's
:class:`~repro.sta.graph.DesignArrays`, starting at every family's
weakest usable variant (:func:`~repro.synth.mapping.initial_mapping`);
its timing graph binds that array on the compiled design.  Every
sizing pass builds its queries by array gathers from the design's CSR
nets and the per-cell tables (:class:`~repro.sta.graph.CellTables`,
:class:`~repro.synth.mapping.VariantTables`), looks every stage delay
up in one batched kernel call, and writes the array;
:meth:`~repro.sta.graph.TimingGraph.remap` binds it.  Where a decision
reads an earlier decision of the same pass (a legalization driver
upsize, a TILOS penalty on a driver moved earlier, an area-recovery
sink check) a sequential loop walks the precomputed candidates in
netlist (or worst-slack) order.  Buffer insertion appends instances and
nets to the arrays (:class:`~repro.synth.buffering.BufferRound`) and
compiles the edited arrays; a :class:`Netlist` of the result is made
only when a caller asks for one (:attr:`SynthesisResult.netlist`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import SynthesisError
from repro.kernels.sta import worst_values
from repro.liberty.model import Library
from repro.netlist.model import Netlist
from repro.observe import get_tracer
from repro.observe.catalog import (
    SYNTH_BUFFER_INSTANCES,
    SYNTH_CALLS,
    SYNTH_SIZING_ITERATIONS,
)
from repro.sta.engine import TimingResult, analyze
from repro.sta.graph import CompiledDesign, StaConfig, TimingGraph, cell_tables
from repro.synth.buffering import BUFFER_PREFIX, BufferRound
from repro.synth.constraints import SynthesisConstraints
from repro.synth.mapping import VariantTables, initial_mapping

_EPS = 1e-9

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

    @property
    def n_instances(self) -> int:
        """Instances of the synthesized design, buffers included."""
        return len(self.timing.graph.design)

    def cell_histogram(self) -> Dict[str, int]:
        """Bound-cell usage (paper Fig. 9)."""
        return self.timing.graph.cell_usage()

    @property
    def netlist(self) -> Netlist:
        """The synthesized design as a :class:`Netlist`, made from the
        final graph's arrays and binding on first use."""
        return self.timing.graph.netlist


class Synthesizer:
    """Times-driven sizing engine; see the module docstring."""

    def __init__(
        self,
        design: Union[CompiledDesign, Netlist],
        library: Library,
        constraints: SynthesisConstraints,
        sta_config: Optional[StaConfig] = None,
    ):
        """``design`` is a compiled design (a flow's), or a netlist to
        compile under ``sta_config``; it is never modified."""
        if isinstance(design, Netlist):
            design = CompiledDesign.of(design, sta_config)
        elif sta_config not in (None, design.config):
            raise SynthesisError("a compiled design synthesizes under its own StaConfig")
        #: The design of the current graph (buffering replaces it).
        self.compiled = design
        self.library = library
        self.constraints = constraints
        self.sta_config = design.config
        self.variants = VariantTables(cell_tables(library), constraints)
        self.sizing_iterations = 0
        self.buffer_instances = 0
        self._graph: Optional[TimingGraph] = None
        #: The working binding: a cell id per instance of the current
        #: design.  Passes write it; the graph binds it.
        self.cells = np.zeros(0, dtype=np.intp)
        #: Nets no split can fix (net ids are stable across rounds:
        #: buffering only appends nets).
        self._fanout_stuck: Set[int] = set()
        #: Presizing utilization the last sizing loop reached.
        self._last_utilization = 1.0

    # ------------------------------------------------------------------

    def run(self) -> SynthesisResult:
        """Execute the full loop and return the final state."""
        tracer = get_tracer()
        with tracer.span("synth.map", instances=len(self.compiled.design)):
            self._map()
        with tracer.span("synth.size"):
            result = self._sizing_loop()
        with tracer.span("synth.buffer") as buffer_span:
            for _round in range(self.constraints.max_buffer_rounds):
                buffered = self._fix_fanout(result)
                if buffered == 0:
                    break
                self._bind()
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
        design = self.graph.design
        capacity = self.variants.max_load[self.cells] + 1e-6
        return int(
            np.count_nonzero(
                self.graph.loads[design.out_nets] > capacity[design.out_owner]
            )
        )

    # ------------------------------------------------------------------

    @property
    def graph(self) -> TimingGraph:
        """The current timing graph (rebuilt after structural changes)."""
        if self._graph is None:
            raise SynthesisError("timing graph requested before first build")
        return self._graph

    @property
    def netlist(self) -> Netlist:
        """The current graph's object view (see
        :attr:`TimingGraph.netlist <repro.sta.graph.TimingGraph.netlist>`)."""
        return self.graph.netlist

    def _map(self) -> None:
        """Bind every instance to its family's weakest usable variant."""
        self.cells = initial_mapping(self.compiled.design, self.variants)
        self._bind()

    def _bind(self) -> None:
        """Bind the working cells on the current design."""
        self._graph = TimingGraph(self.compiled, self.library, cell_ids=self.cells)

    def _analyze(self) -> TimingResult:
        return analyze(
            self.graph,
            clock_period=self.constraints.clock_period,
            guard_band=self.constraints.guard_band,
        )

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
        # later buffer rounds resume from the utilization the first
        # round reached instead of re-walking the whole descent
        utilization = min(self._UTIL_START, self._last_utilization)
        if presize_all:
            self._presize(utilization, critical_only=False, result=None)
        self.graph.remap(self.cells)
        result = self._analyze()
        self.sizing_iterations += 1
        while result.wns < -_EPS and utilization > self._UTIL_FLOOR:
            utilization *= self._UTIL_SHRINK
            changes = self._presize(utilization, critical_only=True, result=result)
            changes += self._legalize_once(result)
            if changes == 0:
                break
            self.graph.remap(self.cells)
            result = self._analyze()
            self.sizing_iterations += 1
        self._last_utilization = utilization
        for _iteration in range(self._FINE_ITERATIONS):
            changes = self._legalize_once(result)
            if result.wns < -_EPS:
                changes += self._upsize_critical(result)
            if changes == 0:
                return result
            self.graph.remap(self.cells)
            result = self._analyze()
            self.sizing_iterations += 1
        return result

    def _presize(
        self,
        utilization: float,
        critical_only: bool,
        result: Optional[TimingResult],
    ) -> int:
        """Bind cells to the weakest variant covering load/utilization.

        Never downsizes (monotone with the rest of the sizer); with
        ``critical_only`` the pass skips instances whose output slack
        is non-negative.  No decision reads another, so the pass is one
        vectorized step.
        """
        if critical_only and result is None:
            raise SynthesisError(
                "critical-only sizing pass needs a timing result"
            )
        design, variants, cells = self.graph.design, self.variants, self.cells
        loads = design.out_max(self.graph.loads)
        if critical_only:
            picked = np.flatnonzero(~(design.out_min(_slacks(result)) >= -_EPS))
        else:
            picked = np.arange(len(design))
        load = loads[picked]
        candidate = variants.smallest_for_load(
            design.families, design.family_ids[picked], load / utilization, load
        )
        upsized = variants.strength[candidate] > variants.strength[cells[picked]]
        cells[picked[upsized]] = candidate[upsized]
        return int(np.count_nonzero(upsized))

    def _legalize_once(self, result: TimingResult) -> int:
        """One pass of design-rule legalization by upsizing.

        Covers three rules: output load within the variant's (possibly
        window-restricted) capacity; the global ``max_transition``; and
        the tuning window's maximum *input* slew, fixed by upsizing the
        offending driver (once per offending sink pin).

        The rules are checked for every instance at once against the
        pass's cells.  A driver upsize changes a later instance's cell,
        so the flagged instances are then walked in netlist order,
        reading every cell live; an instance a driver upsize changes
        joins the walk if it comes later.
        """
        design, variants = self.graph.design, self.variants
        cells = self.cells
        max_transition = self.constraints.max_transition
        loads = design.out_max(self.graph.loads)
        transitions = design.out_max(result.slew)
        slews = result.slew
        flagged = (loads > variants.max_load[cells] + _EPS) | (
            transitions > max_transition + _EPS
        )
        slow = slews[design.in_nets] > (variants.max_slew[cells] + _EPS)[design.in_owner]
        flagged[design.in_owner[slow]] = True
        queue = np.flatnonzero(flagged).tolist()  # ascending: already a heap
        if not queue:
            return 0
        candidates = variants.smallest_for_load(
            design.families, design.family_ids, loads
        ).tolist()
        strength, max_load = variants.strength.tolist(), variants.max_load.tolist()
        max_slew, up_of = variants.max_slew.tolist(), variants.up.tolist()
        in_ptr, in_nets = design.in_ptr.tolist(), design.in_nets.tolist()
        driver, slew_of = design.driver.tolist(), slews.tolist()
        load_of, transition_of = loads.tolist(), transitions.tolist()
        live = cells.tolist()
        queued = set(queue)
        changes = 0
        while queue:
            position = heapq.heappop(queue)
            cell = live[position]
            if load_of[position] > max_load[cell] + _EPS:
                candidate = candidates[position]
                if strength[candidate] > strength[cell]:
                    cell = live[position] = candidate
                    changes += 1
            if transition_of[position] > max_transition + _EPS:
                up = up_of[cell]
                if up >= 0:
                    cell = live[position] = up
                    changes += 1
            limit = max_slew[cell]
            first, stop = in_ptr[position], in_ptr[position + 1]
            if first == stop or math.isinf(limit):
                continue
            for net_id in in_nets[first:stop]:
                if slew_of[net_id] > limit + _EPS:
                    upsized = driver[net_id]
                    if upsized < 0:
                        continue  # port-driven: ideal source
                    up = up_of[live[upsized]]
                    if up >= 0:
                        live[upsized] = up
                        changes += 1
                        if upsized > position and upsized not in queued:
                            queued.add(upsized)
                            heapq.heappush(queue, upsized)
        cells[:] = live
        return changes

    #: Fine-tuning moves evaluated per iteration (the worst-slack set).
    _FINE_CANDIDATES = 800

    def _upsize_critical(self, result: TimingResult) -> int:
        """Upsize negative-slack instances when it pays off.

        A move is accepted only when the instance's own stage-delay
        gain exceeds the delay penalty its larger input pins inflict on
        the driving stages — the classic TILOS sensitivity test, which
        keeps the sizer from drowning the design in capacitance.  Only
        the worst-slack candidates are evaluated per iteration, both
        for speed and to keep the moves focused on the critical region.

        Every lookup of the pass is batched up front
        (:meth:`_stage_values`, :meth:`_penalty_terms`); the loop then
        sums the precomputed penalty terms in pin order, reading whether
        each driver's own move was accepted earlier in the pass, with
        the same early exit.
        """
        instances, ups, benefits = self._critical_moves(result)
        term_ptr, drivers, at_current, at_upsized = self._penalty_terms(
            instances, ups, result
        )
        term_ptr, drivers = term_ptr.tolist(), drivers.tolist()
        at_current, at_upsized = at_current.tolist(), at_upsized.tolist()
        #: Positions, and indices into the moves, of the accepted moves.
        accepted: Set[int] = set()
        accepted_moves: List[int] = []
        for move, (position, benefit) in enumerate(
            zip(instances.tolist(), benefits.tolist())
        ):
            penalty = 0.0
            for term in range(term_ptr[move], term_ptr[move + 1]):
                # an earlier move of this pass may have upsized the driver
                if drivers[term] in accepted:
                    penalty += at_upsized[term]
                else:
                    penalty += at_current[term]
                if penalty >= benefit:
                    break
            if benefit > penalty:
                accepted.add(position)
                accepted_moves.append(move)
        self.cells[instances[accepted_moves]] = ups[accepted_moves]
        return len(accepted_moves)

    def _critical_moves(
        self, result: TimingResult
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(instances, upsized cells, stage-delay benefits)`` of every
        upsize of the pass with a positive benefit, worst slack first."""
        design, variants, cells = self.graph.design, self.variants, self.cells
        slacks = design.out_min(_slacks(result))
        negative = np.flatnonzero(slacks < -_EPS)
        negative = negative[np.argsort(slacks[negative], kind="stable")]
        negative = negative[: self._FINE_CANDIDATES]
        ups = variants.up[cells[negative]]
        negative, ups = negative[ups >= 0], ups[ups >= 0]
        loads = design.out_max(self.graph.loads)[negative]
        short = variants.max_load[ups] + _EPS < loads
        if short.any():
            stronger = variants.smallest_for_load(
                design.families, design.family_ids[negative[short]], loads[short]
            )
            gains = variants.strength[stronger] > variants.strength[cells[negative[short]]]
            ups[short] = np.where(gains, stronger, -1)
            negative, ups = negative[ups >= 0], ups[ups >= 0]
        # stage delays read only the pass's slews and loads: one batch
        delays, _, _ = self._stage_values(
            np.concatenate([negative, negative]),
            np.concatenate([cells[negative], ups]),
            result,
        )
        benefits = delays[: negative.size] - delays[negative.size:]
        paying = benefits > 0
        return negative[paying], ups[paying], benefits[paying]

    def _penalty_terms(
        self, instances: np.ndarray, ups: np.ndarray, result: TimingResult
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Penalty terms of the moves ``instances[m] -> ups[m]``.

        Per move ``m``, terms ``term_ptr[m]:term_ptr[m + 1]`` in
        input-pin order: one per timing-critical, instance-driven input
        net the move loads with extra capacitance, with that net's
        ``driver``.  A term is the driver's stage-delay increase — the
        worst delay over its arcs into the net, folded from 0, at
        ``load + extra`` minus at ``load`` — with the driver bound to
        its current cell (``at_current``) and, when the driver has a
        move of its own, to that move's cell (``at_upsized``, else
        ``nan``): the only cell it can change to within the pass.

        Slews and loads are fixed for the pass, so every arc of every
        term is looked up in one batched kernel call, bit-identical to
        ``TimingArc.worst_delay``.
        """
        graph, design, cells = self.graph, self.graph.design, self.cells
        pin_caps = graph.cells.pin_caps
        # every non-clock input pin of every move, in pin order
        entries = _expand(design.in_ptr[instances], design.in_ptr[instances + 1])
        move_of = np.repeat(np.arange(instances.size), _lengths(design.in_ptr, instances))
        nets, slots = design.in_nets[entries], design.in_slot[entries]
        extras = (
            pin_caps[ups[move_of], slots] - pin_caps[cells[instances][move_of], slots]
        )
        drivers = design.driver[nets]
        # only penalize drivers that are themselves timing-critical:
        # slowing a slack-rich side input cannot hurt the paths this
        # move is trying to fix; an ideal port source adds nothing
        kept = (extras > 0) & ~(_slacks(result)[nets] >= -_EPS) & (drivers >= 0)
        move_of, nets, extras, drivers = (
            move_of[kept], nets[kept], extras[kept], drivers[kept]
        )
        term_ptr = np.searchsorted(move_of, np.arange(instances.size + 1))
        if nets.size == 0:
            return term_ptr, drivers, extras, extras
        move_up = np.full(len(design), -1, dtype=np.intp)
        move_up[instances] = ups
        driver_ups = move_up[drivers]
        with_up = np.flatnonzero(driver_ups >= 0)
        # one query per (term, cell): every term at the driver's cell,
        # then the terms whose driver has a move at that move's cell
        terms = np.concatenate([np.arange(nets.size), with_up])
        bound = np.concatenate([cells[drivers], driver_ups[with_up]])
        arcs = _expand(design.arc_ptr[drivers[terms]], design.arc_ptr[drivers[terms] + 1])
        query_of = np.repeat(np.arange(terms.size), _lengths(design.arc_ptr, drivers[terms]))
        into = design.arc_dst[arcs] == nets[terms][query_of]
        arcs, query_of = arcs[into], query_of[into]
        starts = np.searchsorted(query_of, np.arange(terms.size))
        rows = graph.cells.arc_rows[bound[query_of], design.arc_slot[arcs]]
        # a clock pin's arc reads index -1: the ideal clock slew
        slews = np.append(result.slew, self.sta_config.clock_slew)[design.arc_src[arcs]]
        loads = graph.loads[nets[terms]][query_of]
        tables = graph.tables
        pairs = tables.delay[_checked_rows(rows)]
        values = worst_values(
            tables,
            np.concatenate([pairs, pairs]),
            np.concatenate([slews, slews]),
            np.concatenate([loads, loads + extras[terms][query_of]]),
        )
        worst_old = _run_maxima(values[: arcs.size], starts)
        worst_new = _run_maxima(values[arcs.size:], starts)
        deltas = worst_new - worst_old
        at_upsized = np.full(nets.size, np.nan)
        at_upsized[with_up] = deltas[nets.size:]
        return term_ptr, drivers, deltas[: nets.size], at_upsized

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------

    #: A critical net is buffered when its load exceeds this (pF).
    _TIMING_BUFFER_LOAD = 0.012
    #: Target capacitance per buffered branch (pF).
    _BRANCH_TARGET_LOAD = 0.006
    #: Minimum fanout before timing-driven buffering considers a net.
    _TIMING_BUFFER_FANOUT = 8

    def _split_net(self, edit: BufferRound, net: int, branch_load: float) -> List[int]:
        """Split one net into inverter-pair branches; returns new nets."""
        variants = self.variants
        inverter = variants.weakest("INV")
        sink_cap = edit.inverter_cap(inverter)
        load = edit.load(net)
        n_groups = max(1, math.ceil(load / max(branch_load, _EPS)))
        groups = edit.plan(net, n_groups)
        buffer_cell = variants.smallest_for_load(
            ["INV"], np.zeros(1, dtype=np.intp),
            np.array([load / max(len(groups), 1) + sink_cap]),
        )[0]
        created = edit.split(net, groups, int(buffer_cell))
        self.buffer_instances += len(created)
        # the nets the new inverters drive may themselves be heavy
        return created

    def _fix_fanout(self, result: TimingResult) -> int:
        """Split heavy nets with inverter pairs.

        Two triggers, both observed in the paper's tuned designs
        (Sec. VII.A): *legality* — no usable variant may drive the load
        (tuning windows shrink ``max_load``); and *timing* — a critical
        net's load is large enough that an inverter tree beats brute
        drive strength.  Newly created buffer nets re-enter the
        worklist, so a single round always converges to legal loads
        (buffer trees deepen as needed).  Loads are read live from the
        round's edits (the graph's go stale during splitting); a round
        that split compiles the edited arrays and extends the binding
        with the new inverters.
        """
        graph, design, variants = self.graph, self.graph.design, self.variants
        # family -> the max_load of its strongest usable variant
        capacity = {
            family: float(variants.max_load[variants.strongest(family)])
            for family in [*design.families, "INV"]
        }
        created = 0
        # (net, driver family, force) per output pin, in instance and
        # pin order — force marks timing-driven splits whose load is
        # legal but slow
        owners = design.out_owner
        families = design.family_ids[owners]
        strongest = np.array([capacity[family] for family in design.families])
        loads = graph.loads[design.out_nets]
        illegal = loads > strongest[families] + _EPS
        # never re-split a net a previous round created for timing
        # only: cascades explode the tree
        fresh = np.array(
            [not name.startswith(BUFFER_PREFIX) for name in design.names], dtype=bool
        )
        timing_heavy = (
            (_slacks(result)[design.out_nets] < -_EPS)
            & (loads > self._TIMING_BUFFER_LOAD)
            & (graph.fanouts[design.out_nets] >= self._TIMING_BUFFER_FANOUT)
            & fresh[owners]
        )
        split = illegal | timing_heavy
        worklist: List[Tuple[int, str, bool]] = [
            (net_id, design.families[family], force)
            for net_id, family, force in zip(
                design.out_nets[split].tolist(),
                families[split].tolist(),
                (~illegal[split]).tolist(),
            )
        ]

        edit = BufferRound(design, self.cells, graph.cells.pin_caps, self.sta_config)
        while worklist:
            net, family, force = worklist.pop()
            if net in self._fanout_stuck:
                continue
            load = edit.load(net)
            if not force and load <= capacity[family] + _EPS:
                continue  # a requeued buffer net that turned out legal
            if edit.movable(net) <= 1 and not force:
                # a single sink whose pin alone exceeds the cap cannot
                # be fixed by splitting; leave it to upsizing
                self._fanout_stuck.add(net)
                continue
            branch_load = min(capacity[family], self._BRANCH_TARGET_LOAD)
            try:
                new_nets = self._split_net(edit, net, branch_load)
            except SynthesisError:
                self._fanout_stuck.add(net)
                continue
            created += len(new_nets)
            for new_net in new_nets:
                if edit.load(new_net) > capacity["INV"] + _EPS:
                    worklist.append((new_net, "INV", False))
        if created:
            self.compiled = self.compiled.rebuilt(edit.design())
            self.cells = np.asarray(edit.cells, dtype=np.intp)
        return created

    # ------------------------------------------------------------------
    # Stage lookups (batched per pass) and area recovery
    # ------------------------------------------------------------------

    def _stage_values(
        self, instances: np.ndarray, cell_ids: np.ndarray, result: TimingResult
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per query ``q`` — instance ``instances[q]`` bound to cell
        ``cell_ids[q]``, at the result's slews and the graph's loads —
        the stage delay (worst arc delay), and the worst transition of
        each output pin: ``(delays, transitions, pin_ptr)``, query
        ``q``'s pins being ``transitions[pin_ptr[q]:pin_ptr[q + 1]]`` in
        ``output_pins`` order.

        Every arc's lookup runs in one batched kernel call, bit-identical
        to ``TimingArc.worst_delay`` / ``TimingArc.worst_transition``;
        the maxima equal the former fold from 0 over the arcs.
        """
        graph, design = self.graph, self.graph.design
        tables = graph.tables
        arcs = _expand(design.arc_ptr[instances], design.arc_ptr[instances + 1])
        arc_counts = _lengths(design.arc_ptr, instances)
        query_of = np.repeat(np.arange(instances.size), arc_counts)
        stage_starts = np.cumsum(arc_counts) - arc_counts
        pins = _expand(design.out_ptr[instances], design.out_ptr[instances + 1])
        pin_counts = _lengths(design.out_ptr, instances)
        pin_starts = (
            np.repeat(stage_starts, pin_counts) + design.pin_run[pins]
        )
        rows = _checked_rows(graph.cells.arc_rows[cell_ids[query_of], design.arc_slot[arcs]])
        # a clock pin's arc reads index -1: the ideal clock slew
        slews = np.append(result.slew, self.sta_config.clock_slew)[design.arc_src[arcs]]
        loads = graph.loads[design.arc_dst[arcs]]
        values = worst_values(
            tables,
            np.concatenate([tables.delay[rows], tables.transition[rows]]),
            np.concatenate([slews, slews]),
            np.concatenate([loads, loads]),
        )
        delays = _run_maxima(values[: arcs.size], stage_starts)
        transitions = _run_maxima(values[arcs.size:], pin_starts)
        pin_ptr = np.concatenate([[0], np.cumsum(pin_counts)])
        return delays, transitions, pin_ptr

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
            snapshot = self.cells.copy()
            changes = self._downsize_pass(result, margin)
            if changes == 0:
                break
            self.graph.remap(self.cells)
            result = self._analyze()
            if not result.met:
                self.cells = snapshot
                self.graph.remap(self.cells)
                result = self._analyze()
                break
        return result

    def _downsize_pass(self, result: TimingResult, margin: float) -> int:
        """One area-recovery pass: downsize every instance by one step
        where the pass's slews, loads and slacks allow it.

        A move must keep its load within the weaker variant's capacity,
        its input slews within the variant's window, its downsized
        output transitions under ``max_transition`` and under the window
        maximum input slew of every sink cell, and its slack minus the
        stage-delay increase at least ``margin``.  Only the sink check
        reads another decision of the pass (a sink downsized earlier has
        a new window), so everything else is decided for all instances
        at once and the sink check is redone live for the instances one
        of whose sinks moved earlier in the pass.
        """
        graph, design, variants = self.graph, self.graph.design, self.variants
        cells = self.cells
        movers = np.flatnonzero(variants.down[cells] >= 0)
        downs = variants.down[cells[movers]]
        # stage delays and downsized transitions read only the pass's
        # slews and loads: one batch for the whole pass
        delays, transitions, pin_ptr = self._stage_values(
            np.concatenate([movers, movers]),
            np.concatenate([cells[movers], downs]),
            result,
        )
        count = movers.size
        worst = transitions[pin_ptr[count]:]
        worst_ptr = pin_ptr[count:] - pin_ptr[count]
        in_slews = np.full(len(design), -np.inf)
        np.maximum.at(in_slews, design.in_owner, result.slew[design.in_nets])
        delta = delays[count:] - delays[:count]
        legal = (
            ~(design.out_max(graph.loads)[movers] > variants.max_load[downs] + _EPS)
            & ~(in_slews[movers] > variants.max_slew[downs] + _EPS)
            & ~(design.out_min(_slacks(result))[movers] - delta < margin)
        )
        pin_mover = np.repeat(np.arange(count), np.diff(worst_ptr))
        too_slow = worst > self.constraints.max_transition + _EPS
        # every (downsized pin, sink instance) pair, at the pass's cells
        pin_nets = design.out_nets[
            _expand(design.out_ptr[movers], design.out_ptr[movers + 1])
        ]
        sinks = _expand(design.sink_ptr[pin_nets], design.sink_ptr[pin_nets + 1])
        sink_pin = np.repeat(np.arange(pin_nets.size), _lengths(design.sink_ptr, pin_nets))
        sink_owners = design.sink_owner[sinks]
        too_slow_for_sink = worst[sink_pin] > variants.max_slew[cells[sink_owners]] + _EPS
        legal[pin_mover[too_slow]] = False
        sinks_accept = np.ones(count, dtype=bool)
        sinks_accept[pin_mover[sink_pin[too_slow_for_sink]]] = False

        max_slew = variants.max_slew.tolist()
        live = cells.tolist()
        worst_list, worst_ptr_list = worst.tolist(), worst_ptr.tolist()
        pin_net_list = pin_nets.tolist()
        sink_ptr, sink_owner = design.sink_ptr.tolist(), design.sink_owner.tolist()
        in_ptr, in_nets = design.in_ptr.tolist(), design.in_nets.tolist()
        clock_net, driver = design.clock_net.tolist(), design.driver.tolist()
        #: Instances with a sink downsized earlier in the pass.
        stale: Set[int] = set()
        changes = 0
        for mover in np.flatnonzero(legal).tolist():
            position = int(movers[mover])
            if position in stale:
                accept = all(
                    not worst_list[pin] > max_slew[live[sink_owner[sink]]] + _EPS
                    for pin in range(worst_ptr_list[mover], worst_ptr_list[mover + 1])
                    for sink in range(
                        sink_ptr[pin_net_list[pin]], sink_ptr[pin_net_list[pin] + 1]
                    )
                )
            else:
                accept = bool(sinks_accept[mover])
            if not accept:
                continue
            live[position] = int(downs[mover])
            changes += 1
            # the drivers this instance is a sink of see its new window
            for net_id in in_nets[in_ptr[position]:in_ptr[position + 1]]:
                stale.add(driver[net_id])
            if clock_net[position] >= 0:
                stale.add(driver[clock_net[position]])
        cells[:] = live
        return changes


def _slacks(result: TimingResult) -> np.ndarray:
    """Per net: required minus arrival time."""
    return result.required - result.arrival


def _lengths(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Length of each CSR row ``rows[k]`` of offsets ``ptr``."""
    return ptr[rows + 1] - ptr[rows]


def _expand(firsts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``firsts[k]:stops[k]``, in order."""
    lengths = stops - firsts
    total = int(lengths.sum())
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(firsts - offsets, lengths) + np.arange(total)


def _checked_rows(rows: np.ndarray) -> np.ndarray:
    """``rows``, after checking every bound cell has the arc."""
    if rows.size and rows.min() < 0:
        raise SynthesisError("a bound cell lacks a timing arc of its family")
    return rows


def _run_maxima(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``max(0, max(run))`` of each run of ``values``; run ``k`` spans
    ``starts[k]`` up to the next start, the last one to the end.

    Maxima are exact, so this equals a fold ``worst = max(worst, v)``
    from ``worst = 0.0`` over each run.
    """
    maxima = np.zeros(len(starts))
    bounds = np.append(np.asarray(starts, dtype=np.intp), values.size)
    filled = bounds[:-1] < bounds[1:]
    if filled.any():
        maxima[filled] = np.maximum(
            0.0, np.maximum.reduceat(values, bounds[:-1][filled])
        )
    return maxima


def synthesize(
    design: Union[CompiledDesign, Netlist],
    library: Library,
    constraints: SynthesisConstraints,
    sta_config: Optional[StaConfig] = None,
) -> SynthesisResult:
    """Map and size ``design`` (compiled, or a netlist to compile under
    ``sta_config``) against ``library`` under ``constraints``."""
    global _SYNTHESIS_CALLS
    _SYNTHESIS_CALLS += 1
    SYNTH_CALLS.inc()
    synthesizer = Synthesizer(design, library, constraints, sta_config)
    with get_tracer().span(
        "synth.run",
        period=constraints.clock_period,
        instances=len(synthesizer.compiled.design),
    ) as span:
        result = synthesizer.run()
        span.set(met=result.met, iterations=result.sizing_iterations)
        return result
