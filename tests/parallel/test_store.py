"""The one artifact store under failure: torn entries, concurrent writers.

Both codecs — ``.npz`` arrays (the characterized libraries) and gzip
JSON (every other stage) — go through one atomic write path and one
self-heal path, so every case here runs on both.
"""

from __future__ import annotations

import gzip
import json
import multiprocessing

import numpy as np
import pytest

from repro.observe import MemorySink, Tracer, set_metrics_enabled, set_tracer
from repro.observe.catalog import STORE_ARTIFACT_EVENTS
from repro.parallel.artifacts import ARTIFACT_VERSION, ArtifactStore, fingerprint

#: Codec -> (stage, payload) of one representative entry.
ENTRIES = {
    "npz": ("stat", {"INV\tZN\tA\tcell_rise": np.arange(12.0).reshape(3, 4)}),
    "json": ("synth", {"met": True, "area": 12.5, "cells": {"INV_X1": 3}}),
}
CODECS = sorted(ENTRIES)

#: Stores per writer process in the concurrent-writer race.
WRITES = 50


def _same(payload, expected) -> bool:
    if isinstance(expected, dict) and all(
        isinstance(value, np.ndarray) for value in expected.values()
    ):
        return payload.keys() == expected.keys() and all(
            np.array_equal(payload[name], expected[name]) for name in expected
        )
    return payload == expected


def _events(event: str) -> float:
    return STORE_ARTIFACT_EVENTS.labels(event=event).value


@pytest.fixture(autouse=True)
def _metrics_on():
    previous = set_metrics_enabled(True)
    yield
    set_metrics_enabled(previous)


@pytest.fixture()
def tracer():
    tracer = Tracer(MemorySink())
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


@pytest.mark.parametrize("codec", CODECS)
def test_truncated_entry_heals_into_a_miss(tmp_path, tracer, codec):
    """A torn entry is deleted and counted ``healed`` (registry and
    tracer), a ``store.self_heal`` event names its stage, and the next
    load is a plain miss."""
    stage, payload = ENTRIES[codec]
    store = ArtifactStore(tmp_path)
    key = fingerprint({"codec": codec})
    path = store.store(stage, key, payload)
    assert _same(store.load(stage, key), payload)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    healed, misses = _events("healed"), _events("miss")
    with tracer.span("stage.under_test") as span:
        assert store.load(stage, key) is None
    assert not path.exists()
    assert store.load(stage, key) is None

    assert _events("healed") - healed == 1
    assert _events("miss") - misses == 1
    counters = tracer.counters()
    assert counters["store.artifact.healed"] == 1
    assert counters["store.artifact.miss"] == 1
    (event,) = span.events
    assert event["name"] == "store.self_heal"
    assert event["attrs"]["stage"] == stage


@pytest.mark.parametrize(
    "payload",
    [
        {
            "sigma": 0.1 + 0.2,
            "paths": [{"depth": 3, "step_sigmas": [1e-17, 2.5, -0.0]}],
            "name": "caf\u00e9 \"quoted\"",
            "met": True,
            "none": None,
        },
        [{"steps": [{"cell": "ND2_1", "slew": 0.5}], "depth": 1}, [], {}],
        {"b": [[1, [2, [3.0]]], (4, 5)], "a": {"z": {}, "y": [float("inf")]}},
        {2: "int keys", 1: "sort before they turn into strings"},
        [],
        "scalar",
    ],
)
def test_json_entry_holds_canonical_text(tmp_path, payload):
    """A JSON entry decompresses to exactly the canonical (sorted,
    compact) ``json.dumps`` of its envelope and payload — the text the
    stage keys and every reader have always seen."""
    stage = "stats"
    key = fingerprint({"canonical": stage})
    path = ArtifactStore(tmp_path).store(stage, key, payload)
    envelope = {"version": ARTIFACT_VERSION, "stage": stage, "key": key}
    expected = json.dumps(
        {**envelope, "payload": payload}, sort_keys=True, separators=(",", ":")
    )
    with gzip.open(path, "rt", encoding="utf-8") as stream:
        assert stream.read() == expected


def test_rejected_decode_heals(tmp_path, tracer):
    """A payload the caller's ``decode`` rejects heals like a torn file."""
    stage, payload = ENTRIES["npz"]
    store = ArtifactStore(tmp_path)
    key = fingerprint({"decode": "rejects"})
    path = store.store(stage, key, payload)

    def decode(arrays):
        raise KeyError("missing slot")

    assert store.load(stage, key, decode) is None
    assert not path.exists()
    assert tracer.counters()["store.artifact.healed"] == 1


def _hammer(directory: str, codec: str, key: str) -> None:
    stage, payload = ENTRIES[codec]
    store = ArtifactStore(directory)
    for _ in range(WRITES):
        store.store(stage, key, payload)


@pytest.mark.parametrize("codec", CODECS)
def test_concurrent_writers_leave_one_intact_entry(tmp_path, codec):
    """Two processes storing one ``(stage, key)`` over and over race
    only to replace identical bytes: the entry loads intact and no
    temp file is left behind."""
    stage, payload = ENTRIES[codec]
    key = fingerprint({"race": codec})
    context = multiprocessing.get_context("spawn")
    writers = [
        context.Process(target=_hammer, args=(str(tmp_path), codec, key))
        for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
        assert writer.exitcode == 0
    store = ArtifactStore(tmp_path)
    assert _same(store.load(stage, key), payload)
    assert not list(tmp_path.glob("*.tmp"))
    assert store.stats().by_stage == {stage: 1}
