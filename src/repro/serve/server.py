"""HTTP adapter: :class:`SimService` behind ``ThreadingHTTPServer``.

Stdlib only (:mod:`http.server`): one daemon thread per connection,
blocking handlers, ``HTTP/1.1`` with explicit ``Content-Length`` on
every response except the sweep stream, which uses chunked transfer
encoding to push one JSON line per finished point.  The handler layer
owns exactly four concerns and delegates the rest to the service:

* **Routing** — the six ``/v1`` endpoints, 404/405 for everything else.
* **Rate limiting** — the per-client token bucket runs here, before
  any request body is read; ``/v1/status`` and ``/v1/metrics`` are
  exempt so monitoring never gets throttled out of watching an
  overloaded server.
* **Request scoping** — every request executes under its own
  :func:`repro.runctx.scoped` context, so journals and telemetry get
  per-request run ids without touching the process environment (the
  one-run-per-process assumption does not survive a server).
* **Accounting** — wall latency and status of every response feed the
  per-endpoint histograms in :class:`~repro.serve.metrics.ServeMetrics`.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import runctx
from repro.obs import spans as obs_spans
from repro.serve.service import HttpError, ServeConfig, SimService

__all__ = ["ReproServer", "make_handler"]

#: Largest accepted request body (a sweep spec is a few KiB).
MAX_BODY_BYTES = 1 << 20

#: Endpoints the rate limiter never throttles — monitoring and the
#: live views must keep working against an overloaded server.
UNLIMITED_ENDPOINTS = ("status", "metrics", "events", "dashboard")


def make_handler(service: SimService):
    """Build the request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        # Headers and body go out in two writes: with Nagle's algorithm
        # the body would wait for the client's delayed ACK (~40 ms) on
        # every request of a keep-alive connection.
        disable_nagle_algorithm = True

        # -- plumbing ------------------------------------------------------

        def log_message(self, format: str, *args: Any) -> None:
            pass  # the metrics endpoint is the access log

        def _client_key(self) -> str:
            return self.headers.get("X-Repro-Client") \
                or self.client_address[0]

        def _read_json(self) -> Any:
            length = self.headers.get("Content-Length")
            if length is None:
                raise HttpError(411, "LengthRequired",
                                "POST requires Content-Length")
            try:
                size = int(length)
            except ValueError:
                size = -1
            if size < 0:
                raise HttpError(400, "BadRequest",
                                f"Content-Length must be a non-negative "
                                f"integer, got {length!r}")
            if size > MAX_BODY_BYTES:
                raise HttpError(413, "PayloadTooLarge",
                                f"body exceeds {MAX_BODY_BYTES} bytes")
            raw = self.rfile.read(size)
            self._body_unread = False
            try:
                return json.loads(raw.decode("utf-8") or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise HttpError(400, "BadJson",
                                f"request body is not JSON: {exc}") \
                    from None

        def _send_json(self, status: int, payload: Dict[str, Any],
                       retry_after: Optional[float] = None) -> None:
            body = json.dumps(payload, sort_keys=True,
                              default=repr).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                self.send_header("Retry-After",
                                 str(max(1, int(round(retry_after)))))
            if self._body_unread:
                # A refusal that leaves the body on the socket closes
                # the connection, or a keep-alive client's body would be
                # parsed as its next request line.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        @staticmethod
        def _query_number(query: Dict[str, Any], name: str, default: Any,
                          cast=float) -> Any:
            if name not in query:
                return default
            try:
                return cast(query[name][0])
            except ValueError:
                raise HttpError(
                    400, "BadRequest",
                    f"query parameter {name!r} is not a valid "
                    f"{cast.__name__}: {query[name][0]!r}") from None

        # -- chunked sweep stream ------------------------------------------

        def _start_stream(self) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()

        def _stream_line(self, record: Dict[str, Any]) -> None:
            data = (json.dumps(record, sort_keys=True, default=repr)
                    + "\n").encode("utf-8")
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data + b"\r\n")
            self.wfile.flush()

        def _end_stream(self) -> None:
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()

        def _send_html(self, status: int, body: str) -> None:
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        # -- dispatch ------------------------------------------------------

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def _route(self, method: str, path: str
                   ) -> Tuple[str, Tuple[str, ...]]:
            parts = tuple(part for part in path.split("/") if part)
            if len(parts) >= 2 and parts[0] == "v1":
                endpoint, rest = parts[1], parts[2:]
                allowed = {"run": "POST", "sweep": "POST",
                           "trace": "GET", "artifacts": "GET",
                           "status": "GET", "metrics": "GET",
                           "events": "GET", "dashboard": "GET"}
                if endpoint in allowed:
                    if allowed[endpoint] != method:
                        raise HttpError(
                            405, "MethodNotAllowed",
                            f"/v1/{endpoint} accepts "
                            f"{allowed[endpoint]} only")
                    return endpoint, rest
            raise HttpError(404, "NotFound",
                            f"no such endpoint: {method} {path}")

        def _dispatch(self, method: str) -> None:
            started = time.perf_counter()
            self._body_unread = method == "POST"
            url = urlparse(self.path)
            endpoint = "?"
            status = 500
            try:
                endpoint, rest = self._route(method, url.path)
                limiter = service.limiter
                if limiter.enabled and endpoint not in UNLIMITED_ENDPOINTS:
                    allowed, retry_after = limiter.allow(self._client_key())
                    if not allowed:
                        service.metrics.count("rate_limited")
                        raise HttpError(
                            429, "RateLimited",
                            "client token bucket is empty",
                            retry_after=retry_after)
                with runctx.scoped():
                    if obs_spans.spans_active():
                        with obs_spans.span("serve.request", cat="serve",
                                            endpoint=endpoint) as live:
                            status = self._handle(endpoint, rest, url)
                            live.note(status=status)
                    else:
                        status = self._handle(endpoint, rest, url)
            except HttpError as exc:
                status = exc.status
                try:
                    self._send_json(exc.status, exc.payload(),
                                    retry_after=exc.retry_after)
                except (BrokenPipeError, ConnectionResetError):
                    pass
            except (BrokenPipeError, ConnectionResetError):
                status = 499  # client went away mid-response
            except Exception as exc:  # never kill the connection thread
                status = 500
                try:
                    self._send_json(
                        500, {"error": {"type": type(exc).__name__,
                                        "cause": str(exc)}})
                except (BrokenPipeError, ConnectionResetError):
                    pass
            finally:
                service.metrics.observe(endpoint, status,
                                        time.perf_counter() - started)

        def _handle(self, endpoint: str, rest: Tuple[str, ...],
                    url) -> int:
            if endpoint == "run":
                status, payload = service.handle_run(self._read_json())
                self._send_json(status, payload)
                return status
            if endpoint == "sweep":
                body = self._read_json()
                self._start_stream()
                try:
                    status, payload = service.handle_sweep(
                        body, progress=self._stream_line)
                    self._stream_line({"event": "done",
                                       "result": payload})
                except HttpError as exc:
                    # Headers are out; the error travels in-band.
                    status = exc.status
                    self._stream_line({"event": "error",
                                       "status": exc.status,
                                       **exc.payload()})
                self._end_stream()
                return status
            if endpoint == "trace":
                if len(rest) != 1:
                    raise HttpError(404, "NotFound",
                                    "expected /v1/trace/<benchmark>")
                query = parse_qs(url.query)
                status, payload = service.handle_trace(
                    rest[0],
                    variant=query.get("variant", ["compiled"])[0],
                    buckets=self._query_number(query, "buckets", None, int))
                self._send_json(status, payload)
                return status
            if endpoint == "artifacts":
                if len(rest) != 1:
                    raise HttpError(404, "NotFound",
                                    "expected /v1/artifacts/<digest>")
                status, payload = service.handle_artifact(rest[0])
                self._send_json(status, payload)
                return status
            if endpoint == "events":
                query = parse_qs(url.query)
                status, payload = service.events_payload(
                    self._query_number(query, "cursor", 0, int),
                    timeout=self._query_number(query, "timeout", 0.0),
                    limit=self._query_number(query, "limit", 256, int))
                self._send_json(status, payload)
                return status
            if endpoint == "dashboard":
                status, page = service.dashboard_payload()
                self._send_html(status, page)
                return status
            if endpoint == "status":
                status, payload = service.status_payload()
            else:
                status, payload = service.metrics_payload()
            self._send_json(status, payload)
            return status

    return Handler


class ReproServer:
    """The running server: HTTP listener + service + drain choreography."""

    def __init__(self, config: ServeConfig) -> None:
        self.service = SimService(config)
        self.httpd = ThreadingHTTPServer(
            (config.host, config.port), make_handler(self.service))
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ReproServer":
        """Serve in a daemon thread (tests, perf harness, smoke)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True, name="repro-serve-http")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI foreground path)."""
        self.httpd.serve_forever(poll_interval=0.1)

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: 503 new work, finish in-flight requests,
        stop accepting connections, write the metrics snapshot."""
        self.service.begin_drain()
        clean = self.service.drain(timeout=timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return clean
