"""The HTTP transport: stdlib threading server + request routing.

Dependency-free by design (the container bakes in no web framework):
``http.server.ThreadingHTTPServer`` gives one thread per connection, which
is plenty — request handling only parses/encodes JSON and enqueues onto the
worker pools; the cleaning itself runs on the services' own threads.

Routing table::

    GET  /healthz                     liveness + drain state + queue saturation
    GET  /metrics                     JSON counters (jobs, cache, queues);
                                      ?format=prometheus (or Accept: text/plain)
                                      for Prometheus text exposition
    POST /v1/jobs                     submit a table, -> {"job_id": ...}
    GET  /v1/jobs/{id}                job lifecycle + ServiceStats
    GET  /v1/jobs/{id}/result         cleaned CSV + commented SQL script
    GET  /v1/jobs/{id}/trace          span tree of the job's execution
    GET  /v1/jobs/{id}/lineage        cell-level audit trail (409 until done);
                                      ?row=&column= for one cell's explain chain
    POST /v1/streams/{name}/batches   feed one micro-batch (429 on backpressure)
    GET  /v1/streams/{name}           per-stream counters
    GET  /v1/streams/{name}/result    cumulative cleaned CSV + stream stats
                                      (409 while batches are pending)

Every request carries an id: an incoming ``X-Request-Id`` header is honoured
(so callers can correlate), otherwise one is generated; the id is echoed on
the response and names the request's trace (``req-<id>``), which submitted
jobs link to as their parent span.

Error mapping: malformed payloads -> 400, unknown ids/paths -> 404, result
of an unfinished job -> 409, bounded-admission or stream backpressure ->
429 with a ``Retry-After`` header, handler crashes -> 500.
"""

from __future__ import annotations

import json
import re
import sys
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs import PROMETHEUS_CONTENT_TYPE, get_tracer
from repro.server.gateway import BadRequest, CleaningGateway, ResultNotReady
from repro.service.scheduler import ServiceSaturated
from repro.stream.service import StreamBackpressure

_JOB_PATH = re.compile(r"^/v1/jobs/(\d+)$")
_JOB_RESULT_PATH = re.compile(r"^/v1/jobs/(\d+)/result$")
_JOB_TRACE_PATH = re.compile(r"^/v1/jobs/(\d+)/trace$")
_JOB_LINEAGE_PATH = re.compile(r"^/v1/jobs/(\d+)/lineage$")
_STREAM_PATH = re.compile(r"^/v1/streams/([^/]+)$")
_STREAM_BATCHES_PATH = re.compile(r"^/v1/streams/([^/]+)/batches$")
_STREAM_RESULT_PATH = re.compile(r"^/v1/streams/([^/]+)/result$")

#: Request bodies above this size are refused outright (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024


class GatewayHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that owns a :class:`CleaningGateway`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], gateway: CleaningGateway, verbose: bool = False):
        super().__init__(address, GatewayRequestHandler)
        self.gateway = gateway
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]


class GatewayRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: GatewayHTTPServer

    # -- plumbing ---------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            sys.stderr.write("%s - %s\n" % (self.address_string(), format % args))

    def _send_json(
        self, status: int, payload: Dict[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send_bytes(status, json.dumps(payload).encode("utf-8"), "application/json", headers)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str, retry_after: Optional[float] = None) -> None:
        headers = {}
        if retry_after is not None:
            # Retry-After is defined in whole seconds; never advertise 0.
            headers["Retry-After"] = str(max(1, int(round(retry_after))))
        self._send_json(status, {"error": message}, headers)

    def _read_body(self) -> bytes:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # Where the body ends is unknown, so the connection cannot be reused.
            self.close_connection = True
            raise BadRequest(f"invalid Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit")
        self._body_consumed = True
        return self.rfile.read(length) if length else b""

    def _discard_unread_body(self) -> None:
        """Keep keep-alive connections in sync when a response skipped the body.

        Routes that answer before calling :meth:`_read_body` (404, 405, 503
        while draining, over-limit 400) leave the request body in the socket;
        the next pipelined request would then be parsed from those bytes.
        Small bodies are drained so the connection stays reusable; large ones
        force a close instead of burning time reading garbage.
        """
        if getattr(self, "_body_consumed", False):
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0:
            return
        if length <= 1 << 20:
            try:
                self.rfile.read(length)
            except OSError:
                self.close_connection = True
        else:
            self.close_connection = True

    def _payload(self) -> Dict[str, Any]:
        """Decode the request body into the gateway's payload dict.

        ``application/json`` bodies pass through; ``text/csv`` (or anything
        else non-JSON) is wrapped as ``{"csv": body}`` with the table name
        taken from the ``?name=`` query parameter.
        """
        raw = self._read_body()
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip().lower()
        if content_type == "application/json":
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise BadRequest(f"invalid JSON body: {exc}")
            if not isinstance(payload, dict):
                raise BadRequest("JSON body must be an object")
            return payload
        payload = {"csv": raw.decode("utf-8", errors="replace")}
        query = parse_qs(urlparse(self.path).query)
        if "name" in query:
            payload["name"] = query["name"][0]
        return payload

    # -- dispatch ------------------------------------------------------------------
    def _handle(self, method: str) -> None:
        gateway = self.server.gateway
        gateway.count("requests")
        path = urlparse(self.path).path
        self._body_consumed = False
        self._last_status = 0
        self._request_id = (self.headers.get("X-Request-Id") or "").strip() or uuid.uuid4().hex[:12]
        # The request root span: submitted jobs parent under it, so one trace
        # follows request -> job -> pipeline -> operators -> SQL plan nodes.
        with get_tracer().span(
            "server.request",
            force=gateway.tracing,
            trace_id=f"req-{self._request_id}",
            method=method,
            path=path,
        ) as sp:
            try:
                self._route(method, path, gateway)
            except BadRequest as exc:
                self._send_error_json(400, str(exc))
            except KeyError as exc:
                self._send_error_json(404, str(exc).strip("'\""))
            except ResultNotReady as exc:
                self._send_error_json(409, str(exc))
            except ServiceSaturated as exc:
                gateway.count("rejected_saturated")
                self._send_error_json(429, str(exc), retry_after=gateway.retry_after_seconds)
            except StreamBackpressure as exc:
                gateway.count("rejected_backpressure")
                self._send_error_json(429, str(exc), retry_after=gateway.retry_after_seconds)
            except Exception as exc:  # noqa: BLE001 - last-resort request boundary
                self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            finally:
                sp.annotate(status=self._last_status)
                self._discard_unread_body()

    def _route(self, method: str, path: str, gateway: CleaningGateway) -> None:
        if method == "GET" and path == "/healthz":
            doc = gateway.healthz()
            self._send_json(200 if doc["status"] == "ok" else 503, doc)
            return
        if method == "GET" and path == "/metrics":
            if self._wants_prometheus():
                self._send_text(200, gateway.metrics_text(), PROMETHEUS_CONTENT_TYPE)
            else:
                self._send_json(200, gateway.metrics())
            return
        if path == "/v1/jobs":
            if method != "POST":
                self._send_error_json(405, "use POST to submit a job")
                return
            if gateway.draining:
                self._send_error_json(503, "server is draining")
                return
            self._send_json(202, gateway.submit_job(self._payload()))
            return
        match = _JOB_PATH.match(path)
        if match:
            if method != "GET":
                self._send_error_json(405, "job status is read-only")
                return
            self._send_json(200, gateway.job_status(int(match.group(1))))
            return
        match = _JOB_RESULT_PATH.match(path)
        if match:
            if method != "GET":
                self._send_error_json(405, "job results are read-only")
                return
            self._send_json(200, gateway.job_result(int(match.group(1))))
            return
        match = _JOB_TRACE_PATH.match(path)
        if match:
            if method != "GET":
                self._send_error_json(405, "job traces are read-only")
                return
            self._send_json(200, gateway.job_trace(int(match.group(1))))
            return
        match = _JOB_LINEAGE_PATH.match(path)
        if match:
            if method != "GET":
                self._send_error_json(405, "job lineage is read-only")
                return
            query = parse_qs(urlparse(self.path).query)
            row: Optional[int] = None
            if "row" in query:
                try:
                    row = int(query["row"][0])
                except ValueError:
                    raise BadRequest(f"?row= must be an integer, got {query['row'][0]!r}")
            column = query["column"][0] if "column" in query else None
            if column is not None and row is None:
                raise BadRequest("?column= requires ?row=")
            self._send_json(200, gateway.job_lineage(int(match.group(1)), row=row, column=column))
            return
        match = _STREAM_BATCHES_PATH.match(path)
        if match:
            if method != "POST":
                self._send_error_json(405, "use POST to feed a batch")
                return
            if gateway.draining:
                self._send_error_json(503, "server is draining")
                return
            self._send_json(202, gateway.submit_stream_batch(match.group(1), self._payload()))
            return
        match = _STREAM_RESULT_PATH.match(path)
        if match:
            if method != "GET":
                self._send_error_json(405, "stream results are read-only")
                return
            self._send_json(200, gateway.stream_result(match.group(1)))
            return
        match = _STREAM_PATH.match(path)
        if match:
            if method != "GET":
                self._send_error_json(405, "stream status is read-only")
                return
            self._send_json(200, gateway.stream_status(match.group(1)))
            return
        self._send_error_json(404, f"no route for {method} {path}")

    def _wants_prometheus(self) -> bool:
        """Prometheus text when asked via ``?format=prometheus`` or Accept.

        JSON stays the default (and wins ties) so existing dashboards keep
        working; a scraper advertising ``text/plain`` without also accepting
        JSON gets the exposition format.
        """
        query = parse_qs(urlparse(self.path).query)
        fmt = (query.get("format") or [""])[0].strip().lower()
        if fmt:
            return fmt in ("prometheus", "text")
        accept = (self.headers.get("Accept") or "").lower()
        return "text/plain" in accept and "application/json" not in accept

    # -- verbs -------------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST")


def make_server(
    gateway: CleaningGateway,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
) -> GatewayHTTPServer:
    """Bind the gateway to an address (``port=0`` picks an ephemeral port)."""
    gateway.start()
    return GatewayHTTPServer((host, port), gateway, verbose=verbose)
