"""Every array sizing pass against the object-model reference.

The synthesizer's passes read and write an integer cell-id array.  The
replaying synthesizer below runs each pass of a synthesis twice from
the same binding: first the object-model reference of
:mod:`tests.synth.reference` on ``instance.cell``, then the production
pass on the array.  Both must make the same moves — the same number of
changes and the same resulting binding, instance by instance — in
presizing, legalization, TILOS upsizing and each area-recovery pass.
A recovery pass that breaks timing is rolled back wholesale; the last
tests force one and check the rollback restores the pass's snapshot
exactly, down to the bytes of the timing graph's remapped state.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import LibraryTuner
from repro.sta.graph import TimingGraph
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import Synthesizer
from tests.synth import reference
from tests.synth.test_penalty_properties import random_design


class ReplayedSynthesizer(Synthesizer):
    """Checks each pass against the reference before keeping it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Per pass name: how many replayed passes moved cells.
        self.moving = {}

    def _replay(self, name, run_reference, run_production):
        graph = self.graph
        before = self.cells.copy()
        graph.write_cells(before)
        expected_changes = run_reference()
        expected = graph.read_cells()
        graph.write_cells(before)
        changes = run_production()
        assert changes == expected_changes, name
        assert np.array_equal(self.cells, expected), name
        self.moving[name] = self.moving.get(name, 0) + bool(changes)
        return changes

    def _presize(self, utilization, critical_only, result):
        return self._replay(
            "presize",
            lambda: reference.presize(self, utilization, critical_only, result),
            lambda: super(ReplayedSynthesizer, self)._presize(
                utilization, critical_only, result
            ),
        )

    def _legalize_once(self, result):
        return self._replay(
            "legalize",
            lambda: reference.legalize_once(self, result),
            lambda: super(ReplayedSynthesizer, self)._legalize_once(result),
        )

    def _upsize_critical(self, result):
        return self._replay(
            "upsize_critical",
            lambda: reference.upsize_critical(self, result),
            lambda: super(ReplayedSynthesizer, self)._upsize_critical(result),
        )

    def _downsize_pass(self, result, margin):
        return self._replay(
            "recovery",
            lambda: reference.downsize_pass(self, result, margin),
            lambda: super(ReplayedSynthesizer, self)._downsize_pass(result, margin),
        )


#: Tunings whose windows the replays run under: the window max-slew
#: rules (driver upsizes, recovery's sink check) only fire when tuned.
TUNINGS = (("sigma_ceiling", 0.03), ("sigma_ceiling", 0.02), ("cell_strength_load_slope", 0.03))


@pytest.fixture(scope="module")
def windows(statistical_library):
    tuner = LibraryTuner(statistical_library)
    return [None] + [tuner.tune(method, value).windows for method, value in TUNINGS]


def shuffled(netlist, seed):
    """``netlist`` with its instances in a random order, so drivers
    often come after their sinks: the order the passes walk in, and
    the order their live decisions (a driver upsized before its own
    turn, a sink downsized before its driver's) depend on."""
    items = list(netlist.instances.items())
    random.Random(seed).shuffle(items)
    netlist.instances = dict(items)
    return netlist


def replay(netlist, library, period, **constraints):
    synth = ReplayedSynthesizer(
        netlist, library, SynthesisConstraints(clock_period=period, **constraints)
    )
    synth.run()
    return synth


@given(
    seed=st.integers(0, 10**6),
    n_gates=st.integers(20, 120),
    period=st.floats(0.4, 1.6),
    margin=st.sampled_from([0.0, 0.02]),
    tuning=st.integers(0, len(TUNINGS)),
    shuffle=st.booleans(),
)
@settings(
    max_examples=16,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_pass_equals_the_object_model_reference(
    statistical_library, windows, seed, n_gates, period, margin, tuning, shuffle
):
    netlist = random_design(seed, n_gates)
    if shuffle:
        netlist = shuffled(netlist, seed)
    replay(
        netlist, statistical_library, period,
        downsize_margin=margin, windows=windows[tuning],
    )


def test_replay_covers_every_pass(statistical_library, windows):
    synth = replay(random_design(7, 120), statistical_library, 0.6)
    relaxed = replay(random_design(7, 120), statistical_library, 2.0)
    for name in ("presize", "legalize", "upsize_critical"):
        assert synth.moving[name] > 0, name
    assert relaxed.moving["recovery"] > 0
    for tuned in windows[1:]:
        for period in (0.6, 2.0):
            replay(
                shuffled(random_design(7, 120), 7), statistical_library, period,
                windows=tuned,
            )
    # a recovery candidate whose sink was downsized earlier in the pass,
    # and whose live sink check then rejects the move
    replay(
        shuffled(random_design(0, 120), 0), statistical_library, 1.0,
        windows=windows[1],
    )


class RollbackProbe(Synthesizer):
    """Records the cells around the first area-recovery pass whose
    timing check fails (the pass recovery must roll back)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pass_cells = None
        self.overshoot = None

    def _downsize_pass(self, result, margin):
        start = self.cells.copy()
        changes = super()._downsize_pass(result, margin)
        self.pass_cells = (start, self.cells.copy())
        return changes

    def _analyze(self):
        result = super()._analyze()
        if self.pass_cells is not None and self.overshoot is None and not result.met:
            self.overshoot = self.pass_cells
        return result


def overshooting_run(netlist, library, period):
    synth = RollbackProbe(
        netlist, library, SynthesisConstraints(clock_period=period, downsize_margin=0.0)
    )
    synth.run()
    return synth


def assert_rolled_back(synth):
    start, moved = synth.overshoot
    assert not np.array_equal(start, moved)
    graph = synth.graph
    # every cell is back at the pass's snapshot, in the array, in the
    # bound graph and in the graph's netlist
    assert np.array_equal(synth.cells, start)
    assert np.array_equal(graph.cell_ids, start)
    assert np.array_equal(graph.read_cells(), start)
    # and the remap after the rollback left no trace of the pass
    fresh = TimingGraph(synth.netlist, synth.library, synth.sta_config)
    for name in ("loads", "arc_tables", "endpoint_setups", "launch_tables"):
        ours, theirs = getattr(graph, name), getattr(fresh, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name


@given(
    seed=st.integers(0, 10**6),
    n_gates=st.integers(40, 120),
    period=st.floats(0.9, 1.6),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_overshooting_recovery_rolls_back_to_its_snapshot(
    statistical_library, seed, n_gates, period
):
    synth = overshooting_run(random_design(seed, n_gates), statistical_library, period)
    assume(synth.overshoot is not None)
    assert_rolled_back(synth)


def test_a_zero_margin_recovery_overshoots(statistical_library):
    synth = overshooting_run(random_design(0, 80), statistical_library, 1.0)
    assert synth.overshoot is not None
    assert_rolled_back(synth)
