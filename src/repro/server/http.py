"""Zero-dependency HTTP/JSON front-end over :class:`DiscoveryService`.

Stdlib only — :class:`http.server.ThreadingHTTPServer` with one handler
thread per connection — because the repo's rule is that the serving
stack must run anywhere the library does.  The handler is a thin
translation layer: parse, call the service, serialize; every semantic
decision (admission, fairness, lifecycle) lives in
:mod:`repro.server.service` where tests reach it without a socket.

Routes (all payloads are versioned wire envelopes, see
:mod:`repro.api.wire`)::

    POST   /v1/sessions            open a session  {tenant, catalog?}
    GET    /v1/sessions/{id}       describe a session
    DELETE /v1/sessions/{id}       close a session
    POST   /v1/runs                submit  {session, request, priority?}
    GET    /v1/runs/{id}           status / terminal run record
    DELETE /v1/runs/{id}           cooperative cancel
    GET    /v1/runs/{id}/events    typed event stream as SSE
    GET    /metrics                Prometheus exposition (per-tenant labels)
    GET    /healthz                liveness probe

Failures are typed :class:`~repro.api.errors.ReproError`\\ s; the
handler maps ``http_status`` onto the response line, serializes the
error envelope as the body, and adds ``Retry-After`` for
:class:`~repro.api.errors.Overloaded` — one taxonomy, one mapping.

SSE frames follow the eventsource contract: ``event:`` carries the
event's ``kind``, ``data:`` its wire JSON, ``id:`` its sequence number.
The stream ends after the terminal ``run-completed`` event.  A client
that disconnects mid-stream tears down only its own handler thread —
the run is never cancelled by a lost subscriber; only an explicit
``DELETE`` does that.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api.errors import InvalidRequest, NotFound, Overloaded, ReproError
from repro.api.wire import (
    dumps,
    envelope,
    error_to_wire,
    event_to_wire,
    loads,
    open_envelope,
)
from repro.obs.logcfg import get_logger
from repro.server.service import DiscoveryService

_log = get_logger("server.http")

#: Largest request body the server will read (a request is a small JSON
#: description; anything bigger is a mistake or an attack).
MAX_BODY_BYTES = 1 << 20


class DiscoveryHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`DiscoveryService`."""

    daemon_threads = True

    def __init__(self, address, service: DiscoveryService):
        super().__init__(address, _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def drain(self, timeout: float = None) -> bool:
        """Graceful shutdown: stop accepting, drain the service.

        Returns the service's drain verdict (``True`` = every run
        reached a terminal state in time).
        """
        self.shutdown()
        clean = self.service.shutdown(timeout=timeout)
        self.server_close()
        return clean


def serve(
    service: DiscoveryService, host: str = "127.0.0.1", port: int = 0
) -> DiscoveryHTTPServer:
    """Bind and start serving on a daemon thread; returns the server
    (``server.url`` has the bound address — ``port=0`` picks a free
    one).  Call ``server.drain()`` to stop."""
    server = DiscoveryHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    thread.start()
    _log.info("serving", url=server.url)
    return server


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-discovery"

    # -- routing -------------------------------------------------------
    def do_GET(self):  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self):  # noqa: N802
        self._route("POST")

    def do_DELETE(self):  # noqa: N802
        self._route("DELETE")

    def _route(self, method: str) -> None:
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]
        try:
            if parts == ["healthz"] and method == "GET":
                self._send_json(200, envelope({"status": "ok"}))
            elif parts == ["metrics"] and method == "GET":
                self._send_text(200, service.metrics_prometheus())
            elif parts == ["v1", "sessions"] and method == "POST":
                body = open_envelope(self._read_body())
                session = service.create_session(
                    body.get("tenant"), body.get("catalog")
                )
                self._send_json(201, envelope({"session": session}))
            elif len(parts) == 3 and parts[:2] == ["v1", "sessions"]:
                if method == "GET":
                    session = service.get_session(parts[2])
                    self._send_json(200, envelope({"session": session}))
                elif method == "DELETE":
                    session = service.close_session(parts[2])
                    self._send_json(200, envelope({"session": session}))
                else:
                    raise InvalidRequest(f"{method} not supported here")
            elif parts == ["v1", "runs"] and method == "POST":
                body = open_envelope(self._read_body())
                request = body.get("request")
                if not isinstance(request, dict):
                    raise InvalidRequest(
                        "submission must carry its discovery request "
                        "(field 'request')",
                        details={"field": "request"},
                    )
                run = service.submit(
                    str(body.get("session", "")),
                    request,
                    priority=body.get("priority", 0),
                )
                self._send_json(202, envelope({"run": run}))
            elif len(parts) == 3 and parts[:2] == ["v1", "runs"]:
                if method == "GET":
                    self._send_json(
                        200, envelope({"run": service.status(parts[2])})
                    )
                elif method == "DELETE":
                    self._send_json(
                        200, envelope({"run": service.cancel(parts[2])})
                    )
                else:
                    raise InvalidRequest(f"{method} not supported here")
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "runs"]
                and parts[3] == "events"
                and method == "GET"
            ):
                self._stream_events(parts[2])
            else:
                raise NotFound(f"no route for {method} {path}")
        except ReproError as error:
            self._send_error(error)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-response; its runs are untouched.
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 - boundary: 500, not a crash
            _log.error("unhandled", path=path, error=repr(error))
            self._send_error(error)

    # -- SSE -----------------------------------------------------------
    def _stream_events(self, run_id: str) -> None:
        service = self.server.service
        # Fail before committing to the stream: an unknown run must be a
        # clean 404 JSON error, not a broken event stream.
        service.status(run_id)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        # No Content-Length: the stream ends when the connection closes.
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        sequence = 0
        try:
            for event in service.events(run_id):
                frame = (
                    f"event: {event.kind}\n"
                    f"id: {sequence}\n"
                    f"data: {dumps(event_to_wire(event)).decode('utf-8')}\n\n"
                )
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                sequence += 1
        except (BrokenPipeError, ConnectionResetError):
            # Disconnect mid-stream: drop this subscriber, nothing else.
            _log.info("sse subscriber dropped", run_id=run_id)

    # -- plumbing ------------------------------------------------------
    def _read_body(self):
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            # The body's extent is unknown, so the connection cannot
            # carry another request after this one.
            self.close_connection = True
            raise InvalidRequest(
                f"invalid Content-Length header {header!r}",
                details={"field": "Content-Length"},
            ) from None
        if length <= 0:
            raise InvalidRequest("request body required")
        if length > MAX_BODY_BYTES:
            raise InvalidRequest(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        return loads(self.rfile.read(length))

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_bytes(status, dumps(payload), "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send_bytes(
            status, text.encode("utf-8"), "text/plain; version=0.0.4"
        )

    def _send_error(self, error: BaseException) -> None:
        wired = error_to_wire(error)
        status = wired["error"]["http_status"]
        extra = {}
        if isinstance(error, Overloaded):
            extra["Retry-After"] = f"{max(0.0, error.retry_after):.3f}"
        self._send_bytes(status, dumps(wired), "application/json", extra)

    def _send_bytes(
        self, status: int, body: bytes, content_type: str, extra: dict = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        # Route access logs through the structured logger instead of
        # raw stderr writes.
        _log.debug("http", detail=format % args)
