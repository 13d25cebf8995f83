"""End-to-end HTTP contract: routing, errors, trace ids, backpressure."""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

import pytest

from repro.errors import ParallelError, ServerBusyError, TuningError
from repro.flow.experiment import FlowConfig
from repro.flow.metrics import TuningComparison
from repro.observe import MemorySink, Tracer
from repro.parallel.backends import ProcessBackend
from repro.serve.client import TuningClient, request_async
from repro.serve.handlers import TuningService
from repro.serve.loadgen import run_burst, tune_burst
from repro.serve.schema import ErrorResponse, TuneRequest
from repro.serve.server import TuningServer


def stub_evaluate(config, point):
    """A synthesis-free evaluation with the flow's result shape."""
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


def exit_worker(config, point, trace=None):
    """A process-backend task whose worker dies before returning."""
    os._exit(1)


def make_service(evaluate=stub_evaluate, max_pending=8, tracer=None):
    """A tiny serial-backend service around ``evaluate``."""
    config = FlowConfig.from_env(
        scale="tiny", backend="serial", jobs=1, tracer=tracer
    )
    return TuningService(
        config=config, max_pending=max_pending, evaluate=evaluate
    )


async def raw_http(port, payload_bytes, method=b"POST", target=b"/v1/request"):
    """One raw HTTP exchange; returns (status, parsed JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        method + b" " + target + b" HTTP/1.1\r\n"
        b"host: test\r\n"
        b"content-length: " + str(len(payload_bytes)).encode() + b"\r\n"
        b"connection: close\r\n\r\n"
    )
    writer.write(head + payload_bytes)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    status = int(raw.split(b" ", 2)[1])
    body = raw.partition(b"\r\n\r\n")[2]
    return status, json.loads(body)


class TestRouting:
    def test_healthz_and_status(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                status, body = await raw_http(
                    server.port, b"", method=b"GET", target=b"/healthz"
                )
                assert (status, body["ok"]) == (200, True)
                status, body = await raw_http(
                    server.port, b"", method=b"GET", target=b"/v1/status"
                )
                assert status == 200
                assert body["kind"] == "status.result"
                assert body["status"]["backend"] == "serial"

        asyncio.run(scenario())

    def test_unknown_path_is_404(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                status, body = await raw_http(
                    server.port, b"", method=b"GET", target=b"/v2/zap"
                )
                assert status == 404
                assert body["error"]["type"] == "RequestError"

        asyncio.run(scenario())

    def test_wrong_method_is_405_style_error(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                status, body = await raw_http(
                    server.port, b"", method=b"DELETE", target=b"/v1/status"
                )
                assert status == 400
                assert "GET" in body["error"]["message"]

        asyncio.run(scenario())

    def test_tune_over_client_echoes_trace_id(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                client = TuningClient(port=server.port)
                response = await asyncio.to_thread(
                    client.tune,
                    "cell_load_slope",
                    0.2,
                    3.0,
                    "microcontroller",
                    None,
                    "my-trace-42",
                )
                assert response.trace_id == "my-trace-42"
                assert response.outcome == "computed"
                assert response.sigma_reduction == pytest.approx(0.5)
                assert response.wall_ms > 0

        asyncio.run(scenario())


class TestErrorContract:
    """Invalid payloads return structured errors — never tracebacks."""

    def test_invalid_json_is_structured_400(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                status, body = await raw_http(server.port, b"{not json")
                assert status == 400
                assert body["error"]["type"] == "RequestError"
                assert "JSON" in body["error"]["message"]
                assert "Traceback" not in json.dumps(body)

        asyncio.run(scenario())

    def test_unknown_kind_is_structured_400(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                payload = json.dumps({"schema": 1, "kind": "zap"}).encode()
                status, body = await raw_http(server.port, payload)
                assert status == 400
                assert body["error"]["type"] == "RequestError"

        asyncio.run(scenario())

    def test_unknown_tuning_method_maps_to_tuning_error(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                client = TuningClient(port=server.port)
                with pytest.raises(TuningError, match="nope"):
                    await asyncio.to_thread(
                        client.tune, "nope", 0.2, 3.0
                    )

        asyncio.run(scenario())

    def test_oversized_body_is_413(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"POST /v1/request HTTP/1.1\r\n"
                    b"content-length: 99999999\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                await writer.wait_closed()
                assert b" 413 " in raw.split(b"\r\n", 1)[0]

        asyncio.run(scenario())

    def test_internal_error_is_opaque_500(self):
        def exploding(config, point):
            raise ValueError("database password is hunter2")

        async def scenario():
            async with TuningServer(
                service=make_service(evaluate=exploding), ledger=False
            ) as server:
                request = TuneRequest(
                    method="cell_load_slope", parameter=0.2, clock_period=3.0
                )
                status, response = await request_async(
                    request, port=server.port
                )
                assert status == 500
                assert isinstance(response, ErrorResponse)
                assert response.error_type == "InternalError"
                assert "Traceback" not in response.message

        asyncio.run(scenario())


class TestCoalescingOverHttp:
    def test_identical_burst_computes_once(self):
        gate = threading.Event()
        calls = []

        def gated(config, point):
            calls.append(point)
            assert gate.wait(timeout=30)
            return stub_evaluate(config, point)

        service = make_service(evaluate=gated)

        async def scenario():
            async with TuningServer(service=service, ledger=False) as server:
                requests = tune_burst(10, "cell_load_slope", 0.2, 3.0)
                burst = asyncio.ensure_future(
                    run_burst(requests, port=server.port, concurrency=10)
                )
                for _ in range(2000):
                    if service.coalescer.coalesced == 9:
                        break
                    await asyncio.sleep(0.005)
                gate.set()
                report = await burst
                assert report.statuses == {200: 10}
                assert report.outcomes["computed"] == 1
                assert report.outcomes["coalesced"] == 9
                assert len(calls) == 1
                assert len(report.latencies_ms) == 10
                assert report.p50 <= report.p95 <= report.p99

        asyncio.run(scenario())


    def test_worker_death_fails_every_coalesced_waiter(self):
        """Two identical cold requests share one computation whose
        worker process dies: both clients get a ``ParallelError`` (not
        a hang), nothing stays in flight, and the next request with a
        working evaluator computes fresh."""
        calls = []
        dies = [True]

        def evaluate(config, point):
            calls.append(point)
            if not dies[0]:
                return stub_evaluate(config, point)
            # hold the leader until the follower has joined it
            for _ in range(2000):
                if service.coalescer.coalesced == 1:
                    break
                time.sleep(0.005)
            return ProcessBackend(1).map_tasks(exit_worker, [(config, point)])[0]

        service = make_service(evaluate=evaluate)

        async def scenario():
            async with TuningServer(service=service, ledger=False) as server:
                client = TuningClient(port=server.port, timeout=60.0)

                def tune():
                    return asyncio.to_thread(
                        client.tune, "cell_load_slope", 0.2, 3.0
                    )

                results = await asyncio.wait_for(
                    asyncio.gather(tune(), tune(), return_exceptions=True),
                    timeout=90.0,
                )
                assert all(isinstance(r, ParallelError) for r in results), results
                assert len(calls) == 1
                assert service.coalescer.coalesced == 1
                assert service.coalescer.inflight == 0

                dies[0] = False
                response = await tune()
                assert response.outcome == "computed"
                assert len(calls) == 2

        asyncio.run(scenario())


class TestBackpressure:
    def test_full_queue_returns_429(self):
        gate = threading.Event()

        def gated(config, point):
            assert gate.wait(timeout=30)
            return stub_evaluate(config, point)

        service = make_service(evaluate=gated, max_pending=1)

        async def scenario():
            async with TuningServer(service=service, ledger=False) as server:
                first = TuneRequest(
                    method="cell_load_slope", parameter=0.1, clock_period=3.0
                )
                second = TuneRequest(
                    method="cell_load_slope", parameter=0.2, clock_period=3.0
                )
                leader = asyncio.ensure_future(
                    request_async(first, port=server.port)
                )
                for _ in range(2000):
                    if service.dispatcher.pending == 1:
                        break
                    await asyncio.sleep(0.005)
                status, response = await request_async(
                    second, port=server.port
                )
                assert status == 429
                assert isinstance(response, ErrorResponse)
                assert response.error_type == "ServerBusyError"
                gate.set()
                status, _ = await leader
                assert status == 200
                assert service.counters["rejected"] == 1

        asyncio.run(scenario())

    def test_client_raises_server_busy_error(self):
        gate = threading.Event()

        def gated(config, point):
            assert gate.wait(timeout=30)
            return stub_evaluate(config, point)

        service = make_service(evaluate=gated, max_pending=1)

        async def scenario():
            async with TuningServer(service=service, ledger=False) as server:
                leader = asyncio.ensure_future(
                    request_async(
                        TuneRequest(
                            method="cell_load_slope",
                            parameter=0.1,
                            clock_period=3.0,
                        ),
                        port=server.port,
                    )
                )
                for _ in range(2000):
                    if service.dispatcher.pending == 1:
                        break
                    await asyncio.sleep(0.005)
                client = TuningClient(port=server.port)
                with pytest.raises(ServerBusyError):
                    await asyncio.to_thread(
                        client.tune, "cell_load_slope", 0.9, 3.0
                    )
                gate.set()
                await leader

        asyncio.run(scenario())


async def raw_text_http(port, target=b"/metrics", method=b"GET"):
    """One raw HTTP exchange returning (status, content-type, text)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        method + b" " + target + b" HTTP/1.1\r\n"
        b"host: test\r\n"
        b"content-length: 0\r\n"
        b"connection: close\r\n\r\n"
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    content_type = b""
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-type":
            content_type = value.strip()
    return status, content_type.decode(), body.decode()


class TestMetricsEndpoint:
    def test_metrics_exposition_reflects_traffic(self):
        from repro.observe.metrics import get_metrics, parse_prometheus

        get_metrics().reset()
        service = make_service()

        async def scenario():
            async with TuningServer(service=service, ledger=False) as server:
                client = TuningClient(port=server.port)
                for _ in range(2):
                    await asyncio.to_thread(
                        client.tune, "cell_load_slope", 0.2, 3.0
                    )
                return await raw_text_http(server.port)

        status, content_type, text = asyncio.run(scenario())
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        snapshot = parse_prometheus(text)
        # The stub evaluator stores nothing, so both sequential tunes
        # take the cold leader path and count as computed.
        computed = snapshot.value(
            "repro_serve_requests_total", kind="tune", outcome="computed"
        )
        assert computed == 2
        latency = snapshot.value(
            "repro_serve_request_seconds", kind="tune", outcome="computed"
        )
        assert latency.count == 2
        # The scrape itself is the one request in flight when the
        # snapshot is rendered.
        assert snapshot.value("repro_serve_inflight_requests") == 1
        assert (
            snapshot.value("repro_serve_http_responses_total", **{"class": "2xx"})
            >= 2
        )
        assert (
            snapshot.value("repro_serve_coalesce_total", role="leader") >= 2
        )

    def test_metrics_endpoint_is_get_only(self):
        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=False
            ) as server:
                return await raw_http(
                    server.port, b"", method=b"POST", target=b"/metrics"
                )

        status, body = asyncio.run(scenario())
        assert status == 400
        assert "GET" in body["error"]["message"]

    def test_scrapes_stay_out_of_the_ledger(self, tmp_path):
        from repro.observe.ledger import RunLedger

        ledger = RunLedger(tmp_path / "ledger.jsonl")

        async def scenario():
            async with TuningServer(
                service=make_service(), ledger=ledger
            ) as server:
                for _ in range(3):
                    status, _, _ = await raw_text_http(server.port)
                    assert status == 200

        asyncio.run(scenario())
        assert ledger.read() == []


class TestLoadReportDegeneracy:
    def test_empty_latency_percentile_warns_not_crashes(self):
        from repro.serve.loadgen import LoadReport

        report = LoadReport(
            requests=0, wall_s=0.0, statuses={}, outcomes={}, latencies_ms=()
        )
        with pytest.warns(RuntimeWarning, match="empty latency"):
            assert report.percentile(99) == 0.0
        with pytest.warns(RuntimeWarning):
            assert report.p50 == 0.0
        assert report.throughput_rps == 0.0

    def test_out_of_range_quantile_clamps(self):
        from repro.serve.loadgen import LoadReport

        report = LoadReport(
            requests=2,
            wall_s=1.0,
            statuses={200: 2},
            outcomes={"warm": 2},
            latencies_ms=(1.0, 2.0),
        )
        assert report.percentile(100) == 2.0
        assert report.percentile(150) == 2.0  # clamped, not IndexError

    def test_all_failed_burst_warns(self):
        def exploding(config, point):
            raise ValueError("boom")

        async def scenario():
            async with TuningServer(
                service=make_service(evaluate=exploding), ledger=False
            ) as server:
                requests = tune_burst(2, "cell_load_slope", 0.2, 3.0)
                return await run_burst(
                    requests, port=server.port, concurrency=1
                )

        with pytest.warns(RuntimeWarning, match="no 200 responses"):
            report = asyncio.run(scenario())
        assert report.ok() == 0
        assert report.statuses == {500: 2}


class TestObservability:
    def test_requests_land_in_span_tree_and_ledger(self, tmp_path):
        from repro.observe.ledger import RunLedger

        tracer = Tracer(MemorySink())
        service = make_service(tracer=tracer)
        ledger = RunLedger(tmp_path / "ledger.jsonl")

        async def scenario():
            async with TuningServer(service=service, ledger=ledger) as server:
                client = TuningClient(port=server.port)
                await asyncio.to_thread(
                    client.tune,
                    "cell_load_slope",
                    0.2,
                    3.0,
                    "microcontroller",
                    None,
                    "trace-ledger-1",
                )
                await asyncio.to_thread(client.status)

        asyncio.run(scenario())
        spans = [s for s in tracer.spans if s.name == "serve.request"]
        assert len(spans) == 2
        tune_span = next(s for s in spans if s.attrs["kind"] == "tune")
        assert tune_span.attrs["outcome"] == "computed"
        assert tune_span.attrs["status"] == 200
        assert tune_span.attrs["request_trace"] == "trace-ledger-1"
        records = ledger.read()
        by_experiment = {r.experiment: r for r in records}
        assert set(by_experiment) == {"serve.tune", "serve.status"}
        tune_record = by_experiment["serve.tune"]
        assert tune_record.run_id == "trace-ledger-1"
        assert tune_record.counters["serve.status"] == 200.0
        assert tune_record.counters["serve.outcome.computed"] == 1.0
        assert tune_record.metrics["latency_ms"] > 0
        assert tune_record.scale == "tiny"
