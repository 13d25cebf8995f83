"""Bench: the tuning service under load — coalescing and warm latency.

Three bursts against a live :class:`~repro.serve.server.TuningServer`
on the tiny flow, with the process-wide synthesis counter asserting
what each one actually cost:

- **cold**: N identical never-seen requests coalesce to exactly one
  sweep-worker evaluation (one baseline + one tuned synthesis pass);
- **warm**: a large identical burst streams from the artifact store
  with zero synthesis;
- **mixed**: warm traffic interleaved with a fresh cold point — the
  cold group coalesces to one evaluation while the warm majority stays
  store-only.

Latency percentiles (p50/p95/p99) and throughput for every phase land
in ``BENCH_<runid>.json`` via the shared :func:`conftest.show` hook.
"""

from __future__ import annotations

import asyncio

from conftest import show

from repro.experiments.base import ExperimentResult
from repro.flow.experiment import FlowConfig
from repro.serve.handlers import TuningService
from repro.serve.loadgen import LoadReport, run_burst, tune_burst
from repro.serve.server import TuningServer
from repro.synth.synthesizer import (
    reset_synthesis_call_count,
    synthesis_call_count,
)

PERIOD = 2.0
METHOD = "sigma_ceiling"
COLD_PARAMETER = 0.03
MIXED_PARAMETER = 0.05
COLD_N = 32
WARM_N = 1000
MIXED_WARM_N = 150
MIXED_COLD_N = 50
CONCURRENCY = 100


def _burst(service: TuningService, requests, concurrency: int) -> LoadReport:
    """Run one burst against a fresh server around ``service``."""

    async def scenario() -> LoadReport:
        async with TuningServer(service=service, ledger=False) as server:
            return await run_burst(
                requests, port=server.port, concurrency=concurrency
            )

    return asyncio.run(scenario())


def _interleave(warm, cold):
    """Deterministically mix warm and cold requests (no RNG in benches)."""
    mixed = list(warm)
    stride = max(1, len(warm) // max(1, len(cold)))
    for index, request in enumerate(cold):
        mixed.insert(index * (stride + 1), request)
    return tuple(mixed)


def test_serve_coalescing_and_warm_latency(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    config = FlowConfig.from_env(scale="tiny", backend="serial", jobs=1)
    service = TuningService(config=config, max_pending=8)

    # cold: N identical requests -> exactly one synthesis pass
    reset_synthesis_call_count()
    cold = _burst(
        service,
        tune_burst(COLD_N, METHOD, COLD_PARAMETER, PERIOD),
        CONCURRENCY,
    )
    cold_synth = synthesis_call_count()
    print(f"\ncold  {cold.summary()}")
    assert cold.statuses == {200: COLD_N}
    assert cold.outcomes["computed"] == 1
    assert cold.outcomes["coalesced"] == COLD_N - 1
    assert cold_synth == 2  # one baseline + one tuned run, total

    # warm: a large identical burst is store-only (zero synthesis),
    # timed as the bench leg
    reset_synthesis_call_count()
    warm = benchmark.pedantic(
        _burst,
        args=(
            service,
            tune_burst(WARM_N, METHOD, COLD_PARAMETER, PERIOD),
            CONCURRENCY,
        ),
        rounds=1,
        iterations=1,
    )
    print(f"warm  {warm.summary()}")
    assert synthesis_call_count() == 0
    assert warm.statuses == {200: WARM_N}
    assert warm.outcomes == {"warm": WARM_N}

    # mixed: warm majority + one fresh cold group, interleaved
    reset_synthesis_call_count()
    mixed = _burst(
        service,
        _interleave(
            tune_burst(MIXED_WARM_N, METHOD, COLD_PARAMETER, PERIOD),
            tune_burst(MIXED_COLD_N, METHOD, MIXED_PARAMETER, PERIOD),
        ),
        CONCURRENCY,
    )
    print(f"mixed {mixed.summary()}")
    assert mixed.statuses == {200: MIXED_WARM_N + MIXED_COLD_N}
    assert mixed.outcomes["warm"] == MIXED_WARM_N
    assert mixed.outcomes["computed"] == 1
    assert mixed.outcomes["coalesced"] == MIXED_COLD_N - 1
    # the fresh point shares its baseline (same clock period) with the
    # first burst's stored artifact — only its tuned netlist synthesizes
    assert synthesis_call_count() == 1

    for report in (cold, warm, mixed):
        assert report.p50 <= report.p95 <= report.p99

    benchmark.extra_info["cold_p99_ms"] = round(cold.p99, 1)
    benchmark.extra_info["warm_p99_ms"] = round(warm.p99, 1)
    benchmark.extra_info["coalesced_cold"] = cold.outcomes["coalesced"]
    benchmark.extra_info["warm_rps"] = round(warm.throughput_rps, 1)

    show(
        ExperimentResult(
            "serve_load",
            "Tuning service under load: coalescing cold, store-only warm",
            rows=[
                cold.to_row("cold"),
                warm.to_row("warm"),
                mixed.to_row("mixed"),
            ],
            notes=(
                "cold burst of identical requests coalesces to one "
                "sweep-worker evaluation (2 synthesis runs); warm bursts "
                "perform zero synthesis"
            ),
        )
    )
