"""Service-core behaviour: config resolution, dispatch, status."""

from __future__ import annotations

import asyncio
from dataclasses import replace

import pytest

from repro.errors import ConfigError, TuningError
from repro.flow.experiment import FlowConfig
from repro.flow.metrics import TuningComparison
from repro.serve.handlers import TuningService
from repro.serve.schema import StatusRequest, SweepRequest, TuneRequest


def stub_comparison(point):
    """A comparison shaped like the flow's, without any synthesis."""
    clock, method, parameter = point
    return TuningComparison(
        method=method or "baseline",
        parameter=parameter,
        clock_period=clock,
        baseline_sigma=0.10,
        tuned_sigma=0.05,
        baseline_area=100.0,
        tuned_area=104.0,
    )


@pytest.fixture
def service():
    """A serial-backend service with a synthesis-free evaluator."""
    calls = []

    def evaluate(config, point):
        calls.append((config, point))
        return stub_comparison(point)

    config = FlowConfig.from_env(scale="tiny", backend="serial", jobs=1)
    built = TuningService(config=config, max_pending=2, evaluate=evaluate)
    built.test_calls = calls
    return built


class TestServiceConstruction:
    def test_cache_is_required(self):
        config = FlowConfig.from_env(scale="tiny", cache=False)
        with pytest.raises(ConfigError, match="cache"):
            TuningService(config=config)

    def test_max_pending_must_be_positive(self):
        config = FlowConfig.from_env(scale="tiny", backend="serial")
        with pytest.raises(ConfigError):
            TuningService(config=config, max_pending=0)


class TestRequestConfig:
    def test_server_config_applies_by_default(self, service):
        request = TuneRequest(
            method="cell_load_slope", parameter=0.2, clock_period=3.0
        )
        config = service.request_config(request)
        assert config.scale_name() == "tiny"
        assert config.backend == "serial"

    def test_request_scale_wins_over_server_scale(self, service):
        """Explicit request field > server config > environment."""
        request = TuneRequest(
            method="cell_load_slope",
            parameter=0.2,
            clock_period=3.0,
            scale="quick",
        )
        config = service.request_config(request)
        assert config.scale_name() == "quick"
        # execution knobs still come from the server, not the env
        assert config.backend == "serial"
        assert config.n_workers == 1

    def test_request_design_resolves_through_family(self, service):
        request = TuneRequest(
            method="cell_load_slope",
            parameter=0.2,
            clock_period=3.0,
            design="dsp",
        )
        config = service.request_config(request)
        assert config.design != service.config.design

    def test_unknown_design_raises_config_error(self, service):
        request = TuneRequest(
            method="cell_load_slope",
            parameter=0.2,
            clock_period=3.0,
            design="mainframe",
        )
        with pytest.raises(ConfigError, match="mainframe"):
            service.request_config(request)

    def test_bad_scale_raises_config_error(self, service):
        request = TuneRequest(
            method="cell_load_slope",
            parameter=0.2,
            clock_period=3.0,
            scale="tiyn",
        )
        with pytest.raises(ConfigError, match="tiyn"):
            service.request_config(request)

    def test_scaled_request_keeps_the_servers_metrics_off(self):
        """A request naming a scale must not turn the process-wide
        metrics registry back on: the server's ``metrics`` is carried
        through like its other execution knobs."""
        from repro.observe.metrics import get_metrics, set_metrics_enabled

        previous = set_metrics_enabled(True)
        try:
            service = TuningService(
                config=replace(FlowConfig.tiny(), backend="serial", metrics=False)
            )
            assert not get_metrics().enabled
            request = TuneRequest(
                method="cell_load_slope",
                parameter=0.2,
                clock_period=3.0,
                scale="tiny",
            )
            config = service.request_config(request)
            assert config.metrics is False
            service._flow(config)
            assert not get_metrics().enabled
        finally:
            set_metrics_enabled(previous)


class TestTuneHandler:
    def test_cold_burst_coalesces_to_one_evaluation(self):
        """N identical cold requests -> exactly one evaluation.

        The evaluator blocks on a gate until every request has reached
        the coalescer, so the leader/follower split is deterministic.
        """
        import threading

        gate = threading.Event()
        calls = []

        def evaluate(config, point):
            calls.append(point)
            assert gate.wait(timeout=30)
            return stub_comparison(point)

        config = FlowConfig.from_env(scale="tiny", backend="serial", jobs=1)
        service = TuningService(
            config=config, max_pending=8, evaluate=evaluate
        )

        async def scenario():
            request = TuneRequest(
                method="cell_load_slope", parameter=0.2, clock_period=3.0
            )
            tasks = [
                asyncio.ensure_future(service.handle(request, f"t{i}"))
                for i in range(6)
            ]
            # wait until every request probed the store and reached the
            # coalescer (inflight stays 1: one shared computation)
            for _ in range(2000):
                if service.coalescer.coalesced == 5:
                    break
                await asyncio.sleep(0.005)
            gate.set()
            responses = await asyncio.gather(*tasks)
            outcomes = sorted(r.outcome for r in responses)
            assert outcomes.count("computed") == 1
            assert outcomes.count("coalesced") == 5
            assert len(calls) == 1
            assert {r.trace_id for r in responses} == {
                f"t{i}" for i in range(6)
            }
            first = responses[0]
            assert first.sigma_reduction == pytest.approx(0.5)
            assert first.area_increase == pytest.approx(0.04)

        asyncio.run(scenario())

    def test_distinct_points_compute_independently(self, service):
        async def scenario():
            a = TuneRequest(
                method="cell_load_slope", parameter=0.1, clock_period=3.0
            )
            b = TuneRequest(
                method="cell_load_slope", parameter=0.3, clock_period=3.0
            )
            responses = await asyncio.gather(
                service.handle(a, "ta"), service.handle(b, "tb")
            )
            assert [r.outcome for r in responses] == ["computed", "computed"]
            assert len(service.test_calls) == 2

        asyncio.run(scenario())

    def test_unknown_method_raises_tuning_error(self, service):
        async def scenario():
            request = TuneRequest(
                method="does_not_exist", parameter=0.2, clock_period=3.0
            )
            with pytest.raises(TuningError, match="does_not_exist"):
                await service.handle(request, "t")

        asyncio.run(scenario())

    def test_status_counts_outcomes(self, service):
        async def scenario():
            request = TuneRequest(
                method="cell_load_slope", parameter=0.2, clock_period=3.0
            )
            await service.handle(request, "t1")
            response = await service.handle(StatusRequest(), "t2")
            status = response.status
            assert status["requests"]["computed"] == 1
            assert status["requests"]["status"] == 1
            assert status["backend"] == "serial"
            assert status["capacity"] == 2
            assert status["scale"] == "tiny"
            assert status["computations"] == 1

        asyncio.run(scenario())


class TestSweepHandler:
    def test_sweep_validates_grid_before_dispatch(self, service):
        async def scenario():
            request = SweepRequest(
                designs=("microcontroller",),
                methods=("bogus_method",),
                clock_periods=(3.0,),
            )
            with pytest.raises(TuningError, match="bogus_method"):
                await service.handle(request, "t")
            assert service.test_calls == []

        asyncio.run(scenario())
