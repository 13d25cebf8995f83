"""The asyncio HTTP front of the tuning service.

:class:`TuningServer` wraps a
:class:`~repro.serve.handlers.TuningService` in a small hand-rolled
HTTP/1.1 server (``asyncio.start_server`` — stdlib only, no web
framework).  Three routes:

* ``POST /v1/request`` — one versioned request envelope (see
  :mod:`repro.serve.schema`); the ``kind`` field dispatches.
* ``GET /v1/status`` — the service's health/load snapshot.
* ``GET /healthz`` — liveness only; never touches the pipeline.
* ``GET /metrics`` — the live metrics registry in Prometheus text
  format (see :mod:`repro.observe.metrics`); scrapes are counted but
  never written to the run ledger.

Every exchange carries a trace id: the client's ``x-repro-trace``
header if present, a fresh random id otherwise.  The id is echoed in
the response header *and* payload, recorded as a ``serve.request``
span on the active tracer, and used as the ``run_id`` of the request's
run-ledger record — one identity across client, span tree and ledger.

Failures map to structured JSON error responses, never tracebacks:
request validation (:class:`~repro.errors.RequestError`,
:class:`~repro.errors.ConfigError`,
:class:`~repro.errors.TuningError`) → 400, a full dispatch queue
(:class:`~repro.errors.ServerBusyError`) → 429, anything else → 500
with the exception folded into an opaque ``InternalError``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import (
    ConfigError,
    ReproError,
    RequestError,
    ServeError,
    ServerBusyError,
    TuningError,
)
from repro.flow.experiment import FlowConfig
from repro.observe.catalog import (
    SERVE_HTTP_RESPONSES,
    SERVE_INFLIGHT,
    SERVE_REQUEST_SECONDS,
    SERVE_REQUESTS,
)
from repro.observe.metrics import get_metrics, render_prometheus
from repro.serve.handlers import TuningService
from repro.serve.schema import (
    SCHEMA_VERSION,
    StatusRequest,
    error_response,
    parse_request,
)

#: Largest accepted request body; anything bigger is rejected with 413
#: before it is read.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def status_for_error(error: BaseException) -> int:
    """The HTTP status an exception maps to."""
    if isinstance(error, ServerBusyError):
        return 429
    if isinstance(error, (RequestError, ConfigError, TuningError)):
        return 400
    return 500


class RawBody:
    """A pre-serialized, non-JSON response body.

    The one route that is not JSON — ``GET /metrics`` — hands
    :meth:`TuningServer._write` one of these instead of a payload
    dict, carrying its own content type.
    """

    __slots__ = ("data", "content_type")

    def __init__(self, data: bytes, content_type: str):
        self.data = data
        self.content_type = content_type


class TuningServer:
    """Serve tuning requests over HTTP on an asyncio event loop.

    ``port=0`` binds an ephemeral port (the resolved port is published
    on :attr:`port` after :meth:`start` — what the tests use);
    ``ledger=False`` disables per-request ledger records, ``None``
    resolves the ledger from the environment (``REPRO_LEDGER``).
    An existing :class:`~repro.serve.handlers.TuningService` can be
    injected via ``service``; otherwise one is built from ``config``.
    """

    def __init__(
        self,
        config: Optional[FlowConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 8,
        service: Optional[TuningService] = None,
        ledger: Any = None,
    ):
        self.service = (
            service
            if service is not None
            else TuningService(config=config, max_pending=max_pending)
        )
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: "set[asyncio.StreamWriter]" = set()
        if ledger is False:
            self._ledger = None
        elif ledger is None:
            from repro.observe.ledger import resolve_ledger

            self._ledger = resolve_ledger()
        else:
            self._ledger = ledger

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> "TuningServer":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting connections and close the listener.

        Open keep-alive connections are closed too (their handler
        tasks see EOF and finish), so a server never leaks tasks into
        event-loop teardown.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        await asyncio.sleep(0)

    async def __aenter__(self) -> "TuningServer":
        """``async with TuningServer(...)`` starts the server."""
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        """Close the listener on scope exit."""
        await self.stop()

    def run(self) -> None:
        """Blocking entry point (the CLI's ``serve`` subcommand)."""

        async def _serve() -> None:
            await self.start()
            print(
                f"repro serve: listening on http://{self.host}:{self.port} "
                f"(scale={self.service.config.scale_name()}, "
                f"backend={self.service.backend.name}, "
                f"capacity={self.service.dispatcher.max_pending})",
                flush=True,
            )
            if self._server is None:  # pragma: no cover - start() sets it
                raise ServeError("server failed to start")
            async with self._server:
                await self._server.serve_forever()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass

    # -- connection handling ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (HTTP/1.1, keep-alive)."""
        self._writers.add(writer)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    payload = error_response(
                        RequestError("malformed HTTP request line")
                    ).to_payload()
                    await self._write(writer, 400, payload, "", close=True)
                    break
                method, target = parts[0].upper(), parts[1]
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                trace_id = headers.get("x-repro-trace") or os.urandom(8).hex()
                if length < 0:
                    payload = error_response(
                        RequestError("content-length is not an integer"),
                        trace_id,
                    ).to_payload()
                    await self._write(writer, 400, payload, trace_id, True)
                    break
                if length > MAX_BODY_BYTES:
                    payload = error_response(
                        RequestError(
                            f"request body of {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES} byte limit"
                        ),
                        trace_id,
                    ).to_payload()
                    await self._write(writer, 413, payload, trace_id, True)
                    break
                body = await reader.readexactly(length) if length else b""
                close = headers.get("connection", "").lower() == "close"
                status, payload = await self._route(
                    method, target, body, trace_id
                )
                await self._write(writer, status, payload, trace_id, close)
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):  # client went away mid-exchange; nothing to answer
            pass
        except asyncio.CancelledError:
            # Event-loop teardown cancelled an idle keep-alive handler;
            # the connection is being dropped either way, so finish
            # normally instead of leaking the cancellation into the
            # stream protocol's done-callback.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover - teardown races
                pass

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], RawBody],
        trace_id: str,
        close: bool,
    ) -> None:
        """Serialize and send one HTTP response."""
        if isinstance(payload, RawBody):
            data = payload.data
            content_type = payload.content_type
        else:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"content-type: {content_type}\r\n"
            f"content-length: {len(data)}\r\n"
            f"x-repro-trace: {trace_id}\r\n"
            f"connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # -- routing ------------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes, trace_id: str
    ) -> Tuple[int, Union[Dict[str, Any], RawBody]]:
        """Resolve one request to ``(status, payload)``; never raises."""
        start = time.perf_counter()
        kind = "http"
        SERVE_INFLIGHT.inc()
        try:
            return await self._dispatch_route(
                method, target, body, trace_id, start, kind
            )
        finally:
            SERVE_INFLIGHT.dec()

    async def _dispatch_route(
        self,
        method: str,
        target: str,
        body: bytes,
        trace_id: str,
        start: float,
        kind: str,
    ) -> Tuple[int, Union[Dict[str, Any], RawBody]]:
        """The actual routing logic behind the in-flight gauge."""
        payload: Union[Dict[str, Any], RawBody]
        try:
            if target == "/healthz":
                if method != "GET":
                    raise RequestError("/healthz only answers GET")
                return 200, {"schema": SCHEMA_VERSION, "ok": True}
            if target == "/metrics":
                kind = "metrics"
                if method != "GET":
                    raise RequestError("/metrics only answers GET")
                text = render_prometheus(get_metrics().snapshot())
                await self._observe(
                    kind, trace_id, "ok", 200,
                    time.perf_counter() - start, ledger=False,
                )
                return 200, RawBody(
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            if target == "/v1/status":
                if method != "GET":
                    raise RequestError("/v1/status only answers GET")
                request = StatusRequest()
            elif target == "/v1/request":
                if method != "POST":
                    raise RequestError("/v1/request only answers POST")
                try:
                    raw = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    raise RequestError(
                        f"request body is not valid JSON: {error}"
                    ) from None
                request = parse_request(raw)
            else:
                payload = error_response(
                    RequestError(f"no such path: {target}"), trace_id
                ).to_payload()
                await self._observe(
                    kind, trace_id, "error", 404,
                    time.perf_counter() - start,
                )
                return 404, payload
            kind = request.kind
            response = await self.service.handle(request, trace_id)
            outcome = getattr(response, "outcome", "ok")
            status = 200
            payload = response.to_payload()
        except Exception as error:  # noqa: BLE001 - boundary: map, log, reply
            status = status_for_error(error)
            outcome = "rejected" if status == 429 else "error"
            self.service._count(outcome)
            if status == 500 and not isinstance(error, ReproError):
                # An unexpected bug: keep the structured reply, but
                # note the class server-side so it is diagnosable.
                print(
                    f"repro serve: internal error on {kind} request "
                    f"{trace_id}: {type(error).__name__}: {error}",
                    flush=True,
                )
            payload = error_response(error, trace_id).to_payload()
        await self._observe(
            kind, trace_id, outcome, status, time.perf_counter() - start
        )
        return status, payload

    # -- observability ------------------------------------------------

    async def _observe(
        self,
        kind: str,
        trace_id: str,
        outcome: str,
        status: int,
        wall: float,
        ledger: bool = True,
    ) -> None:
        """Record one request: metrics, a span, and a run-ledger line.

        The metric bumps are in-memory and stay on the loop; the span
        sink and the run ledger write to disk, so that half runs in the
        default executor (only the bound method crosses the
        ``to_thread`` boundary, never a running call).
        """
        SERVE_REQUESTS.labels(kind=kind, outcome=outcome).inc()
        SERVE_REQUEST_SECONDS.labels(kind=kind, outcome=outcome).observe(wall)
        SERVE_HTTP_RESPONSES.labels(f"{status // 100}xx").inc()
        await asyncio.to_thread(
            self._persist_observation, kind, trace_id, outcome, status,
            wall, ledger,
        )

    def _persist_observation(
        self,
        kind: str,
        trace_id: str,
        outcome: str,
        status: int,
        wall: float,
        ledger: bool,
    ) -> None:
        """Span + ledger persistence (sync disk I/O; runs off-loop).

        Spans are recorded post-hoc (:meth:`Tracer.record_span`) —
        the tracer's live span stack is thread-local and the handlers
        hop threads, so entering a span context here would corrupt the
        tree.  Observability must never fail a served request, so
        ledger I/O errors are swallowed.  ``ledger=False`` keeps
        high-frequency scrape traffic (``/metrics``) out of the run
        ledger while still counting it.
        """
        from repro.observe import get_tracer

        tracer = self.service.config.tracer or get_tracer()
        tracer.record_span(
            "serve.request",
            wall,
            kind=kind,
            outcome=outcome,
            status=status,
            request_trace=trace_id,
        )
        if self._ledger is None or not ledger:
            return
        from repro.observe.ledger import capture_request

        record = capture_request(
            kind=kind,
            trace_id=trace_id,
            outcome=outcome,
            status=status,
            wall=wall,
            scale=self.service.config.scale_name(),
            metrics={"latency_ms": wall * 1e3},
        )
        try:
            self._ledger.append(record)
        except OSError:  # pragma: no cover - disk-full / perms
            pass
