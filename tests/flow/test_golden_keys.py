"""Golden artifact keys: the fingerprints existing stores are keyed on.

Every stage artifact lives under a content fingerprint, so a change to
how any key is derived silently turns every existing cache cold.  This
module pins the hex keys of one tiny-scale evaluation point — the
statistical library, the design, one tuning, the baseline and tuned
synthesis runs and the minimum-period search — and checks
that a cold :meth:`~repro.flow.experiment.TuningFlow.compare` writes
exactly the artifacts :func:`repro.sweep.driver.point_keys` names.

A deliberate key change (an ``ARTIFACT_VERSION`` bump, a new
fingerprinted input) must update these constants in the same commit.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import pytest

from repro.core.methods import method_by_name
from repro.flow.experiment import FlowConfig, TuningFlow
from repro.flow.pipeline import minperiod_fingerprint
from repro.parallel.artifacts import ArtifactStore
from repro.sweep.driver import GridPoint, point_keys

POINT = GridPoint("microcontroller", "sigma_ceiling", 0.5, 3.0)

STATLIB = "56f3c3c9eda5e824c871c001aec0300825dae805c004ea3e5ac421fb6d329ee2"
DESIGN = "8b1db94de952e11b6b903dea66809c7537ae35b041ce0eff63ea436d4d3e8327"
TUNING = "674f21cfc5dff59770058fe79cb1037beccfc35562132687107efedd145a0e96"
TUNED = "72081be61b321e3372755ff0ae47fe671343b38a7c2cf925b391b90ac72199ec"
BASELINE = "6324b81e644a9971b81f36eea1ee385ab629cb563523b97489a709ff59c47d80"
MINPERIOD = "7d76e540450f8dd8d5f0fa641d81085a972a074493cb2126b4841c336009766d"


@pytest.fixture()
def flow(tmp_path, monkeypatch):
    """A serial tiny-scale flow on an empty store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return TuningFlow(replace(FlowConfig.tiny(), n_workers=1, backend="serial"))


def _point_keys(flow, point):
    """:func:`point_keys` of ``point`` under ``flow``.

    Accepts both call forms the helper has had — ``(flow, point)`` and
    ``(statlib_key, design_key, method, point, guard_band)`` — so this
    pin can also be checked against trees that predate the first.
    """
    if len(inspect.signature(point_keys).parameters) == 2:
        return point_keys(flow, point)
    return point_keys(
        flow.statlib_key,
        flow.design_key,
        method_by_name(point.method),
        point,
        flow.config.guard_band,
    )


class TestGoldenKeys:
    def test_stage_keys_are_pinned(self, flow):
        assert flow.statlib_key == STATLIB
        assert flow.design_key == DESIGN
        tuning, tuned, baseline = _point_keys(flow, POINT)
        assert tuning == TUNING
        assert tuned == TUNED
        assert baseline == BASELINE
        assert (
            minperiod_fingerprint(
                flow.statlib_key, flow.design_key, flow.config.guard_band, 0.05
            )
            == MINPERIOD
        )

    def test_cold_compare_stores_exactly_the_point_keys(self, flow):
        flow.compare(POINT.clock_period, POINT.method, POINT.parameter)
        store = ArtifactStore()
        tuning, tuned, baseline = _point_keys(flow, POINT)
        expected = {
            store.path_for("tuning", tuning).name,
            store.path_for("synth", tuned).name,
            store.path_for("synth", baseline).name,
        }
        stored = {
            path.name
            for path in store.directory.iterdir()
            if not path.name.startswith(("stat-", "ledger"))
        }
        assert stored == expected
        assert len(stored) == 3
