"""Pinned tuning output for every Table 2 (method, value) pair.

``golden_tunings_tiny.json`` holds, per pair, the extracted thresholds
and the sha256 of :meth:`TuningResult.to_payload` rendered as canonical
JSON, for the tiny-scale statistical library (full catalog, 10
samples, seed 0).  Any change to threshold extraction or LUT
restriction that moves a single window bound shows up here.

Regenerate (only for a deliberate change of results) with::

    PYTHONPATH=src python tests/core/test_golden_tunings.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.methods import TUNING_METHODS
from repro.core.tuner import LibraryTuner, TuningResult
from repro.flow.experiment import FlowConfig, TuningFlow

GOLDEN = Path(__file__).with_name("golden_tunings_tiny.json")


def payload_digest(result: TuningResult) -> str:
    """sha256 of the payload as canonical (sorted, compact) JSON."""
    text = json.dumps(result.to_payload(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table2_tunings(tuner: LibraryTuner) -> dict:
    """``"method=value"`` -> thresholds and payload digest, all 20 pairs."""
    pinned = {}
    for method in TUNING_METHODS.values():
        for value in method.sweep_values():
            result = tuner.tune(method, value)
            pinned[f"{method.name}={value!r}"] = {
                "thresholds": dict(sorted(result.thresholds.items())),
                "sha256": payload_digest(result),
            }
    return pinned


def tiny_library():
    return TuningFlow(FlowConfig.tiny()).statistical_library


@pytest.fixture(scope="module")
def tiny_tuner():
    return LibraryTuner(tiny_library())


def test_every_table2_tuning_matches_golden(tiny_tuner):
    golden = json.loads(GOLDEN.read_text())
    actual = table2_tunings(tiny_tuner)
    assert sorted(actual) == sorted(golden)
    differing = [pair for pair in golden if actual[pair] != golden[pair]]
    assert not differing, f"tuning output moved for {differing}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(table2_tunings(LibraryTuner(tiny_library())), indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
