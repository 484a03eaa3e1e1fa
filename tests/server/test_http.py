"""HTTP front-end semantics: routes, status codes, error mapping, SSE.

These tests go through a real socket (``serve`` on an ephemeral port)
with stdlib ``http.client`` so the SSE cases can read the stream
incrementally and drop connections mid-stream.
"""

import http.client
import json

import pytest

from repro.server import ServiceConfig, serve


class Client:
    """Tiny JSON-over-HTTP client against one test server."""

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.host = host
        self.port = port

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            content_type = response.headers.get("Content-Type", "")
            data = (
                json.loads(raw)
                if raw and content_type.startswith("application/json")
                else raw
            )
            return response.status, data, dict(response.headers)
        finally:
            conn.close()

    def stream(self, path):
        """Open an SSE stream; caller reads frames and closes the conn."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        assert response.headers["Content-Type"] == "text/event-stream"
        return conn, response


def read_frame(response):
    """Parse one SSE frame off the wire; ``None`` at end of stream."""
    frame = {}
    while True:
        line = response.readline()
        if not line:  # EOF: server closed the stream
            return frame or None
        line = line.decode("utf-8").rstrip("\n")
        if not line:  # blank line terminates a frame
            if frame:
                return frame
            continue
        field, _, value = line.partition(":")
        value = value.lstrip(" ")
        frame[field] = json.loads(value) if field == "data" else value


def read_all_frames(response):
    frames = []
    while True:
        frame = read_frame(response)
        if frame is None:
            return frames
        frames.append(frame)


@pytest.fixture
def served(harness):
    server = serve(harness.service)
    yield harness, Client(server)
    server.shutdown()
    server.server_close()


@pytest.fixture
def make_served(make_harness):
    servers = []

    def _make(**kwargs):
        h = make_harness(**kwargs)
        server = serve(h.service)
        servers.append(server)
        return h, Client(server)

    yield _make
    for server in servers:
        server.shutdown()
        server.server_close()


def open_session(client, tenant="acme"):
    status, body, _ = client.request(
        "POST", "/v1/sessions", {"tenant": tenant}
    )
    assert status == 201
    return body["session"]["session_id"]


def submit(client, sid, payload, priority=None):
    body = {"session": sid, "request": payload}
    if priority is not None:
        body["priority"] = priority
    status, out, headers = client.request("POST", "/v1/runs", body)
    return status, out, headers


class TestRoutes:
    def test_healthz(self, served):
        _, client = served
        status, body, _ = client.request("GET", "/healthz")
        assert status == 200
        assert body == {"schema_version": 1, "status": "ok"}

    def test_session_lifecycle(self, served):
        _, client = served
        status, body, _ = client.request(
            "POST", "/v1/sessions", {"schema_version": 1, "tenant": "acme"}
        )
        assert status == 201
        sid = body["session"]["session_id"]
        assert body["session"]["tenant"] == "acme"

        status, body, _ = client.request("GET", f"/v1/sessions/{sid}")
        assert status == 200
        assert body["session"]["session_id"] == sid

        status, body, _ = client.request("DELETE", f"/v1/sessions/{sid}")
        assert status == 200

        status, body, _ = client.request("GET", f"/v1/sessions/{sid}")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_submit_and_poll_to_completion(self, served):
        harness, client = served
        sid = open_session(client)
        status, body, _ = submit(client, sid, harness.payload(queries=2))
        assert status == 202
        run_id = body["run"]["run_id"]
        assert body["run"]["state"] in ("queued", "running")

        harness.wait_terminal(run_id)
        status, body, _ = client.request("GET", f"/v1/runs/{run_id}")
        assert status == 200
        run = body["run"]
        assert run["state"] == "completed"
        assert run["record"]["status"] == "completed"
        assert run["record"]["result"]["utility"] == pytest.approx(0.9)

    def test_delete_cancels_run(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(hold="g", queries=4))
        run_id = body["run"]["run_id"]
        harness.wait_started("g")
        status, body, _ = client.request("DELETE", f"/v1/runs/{run_id}")
        assert status == 200
        harness.release("g")
        assert harness.wait_terminal(run_id)["state"] == "cancelled"

    def test_metrics_exposition_has_tenant_labels(self, served):
        harness, client = served
        sid = open_session(client, tenant="acme")
        _, body, _ = submit(client, sid, harness.payload())
        harness.wait_terminal(body["run"]["run_id"])
        status, text, headers = client.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        exposition = text.decode("utf-8")
        assert 'repro_server_requests_total{tenant="acme",outcome="accepted"}' in exposition
        assert 'repro_server_runs_total{tenant="acme",status="completed"}' in exposition
        # Engine families share the registry: one scrape, both layers.
        assert "repro_engine_runs_total" in exposition


class TestErrorMapping:
    def test_unknown_run_is_404(self, served):
        _, client = served
        status, body, _ = client.request("GET", "/v1/runs/run-424242")
        assert status == 404
        assert body["error"]["code"] == "not-found"
        assert body["error"]["http_status"] == 404

    def test_unknown_route_is_404(self, served):
        _, client = served
        status, body, _ = client.request("GET", "/v2/everything")
        assert status == 404

    def test_bad_request_is_400(self, served):
        harness, client = served
        sid = open_session(client)
        status, body, _ = submit(
            client, sid, {"base": "no-such-table", "task": "stub-task"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-request"

    def test_missing_request_field_is_400(self, served):
        _, client = served
        sid = open_session(client)
        status, body, _ = client.request("POST", "/v1/runs", {"session": sid})
        assert status == 400
        assert "request" in body["error"]["message"]

    def test_wrong_schema_version_is_400(self, served):
        _, client = served
        status, body, _ = client.request(
            "POST", "/v1/sessions", {"schema_version": 99, "tenant": "acme"}
        )
        assert status == 400
        assert "schema_version" in body["error"]["message"]

    def test_empty_body_is_400(self, served):
        _, client = served
        status, body, _ = client.request("POST", "/v1/sessions")
        assert status == 400

    def test_malformed_content_length_is_400(self, served):
        _, client = served
        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/sessions")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "invalid-request"
        assert "Content-Length" in body["error"]["message"]

    def test_unsupported_method_is_400(self, served):
        _, client = served
        sid = open_session(client)
        status, _, _ = client.request("POST", f"/v1/sessions/{sid}", {})
        assert status == 400

    def test_quota_exceeded_is_429_with_retry_after(self, make_served):
        harness, client = make_served(
            config=ServiceConfig(tenant_rate=0.0, tenant_burst=1.0)
        )
        sid = open_session(client)
        status, _, _ = submit(client, sid, harness.payload())
        assert status == 202
        status, body, headers = submit(client, sid, harness.payload(seed=1))
        assert status == 429
        assert body["error"]["code"] == "overloaded"
        assert float(headers["Retry-After"]) >= 0.0

    def test_draining_is_429(self, served):
        harness, client = served
        sid = open_session(client)
        harness.service.shutdown(timeout=5)
        status, body, _ = submit(client, sid, harness.payload())
        assert status == 429
        assert body["error"]["code"] == "overloaded"


class TestSSE:
    """Satellite 4: the event-stream contract, over a real socket."""

    def test_events_arrive_in_order(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(queries=3))
        run_id = body["run"]["run_id"]
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        try:
            frames = read_all_frames(response)
        finally:
            conn.close()
        kinds = [f["event"] for f in frames]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-completed"
        assert kinds.count("query-issued") == 3
        # Sequence ids are contiguous and frame data matches the kind.
        assert [int(f["id"]) for f in frames] == list(range(len(frames)))
        assert all(f["data"]["kind"] == f["event"] for f in frames)
        indexes = [
            f["data"]["query_index"]
            for f in frames
            if f["event"] == "query-issued"
        ]
        assert indexes == sorted(indexes)

    def test_stream_closes_after_completion(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload())
        run_id = body["run"]["run_id"]
        harness.wait_terminal(run_id)
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        try:
            frames = read_all_frames(response)
            assert frames[-1]["event"] == "run-completed"
            # EOF, not a hang: the server closed the stream.
            assert response.read() == b""
        finally:
            conn.close()

    def test_disconnect_cancels_nothing(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(hold="g", queries=2))
        run_id = body["run"]["run_id"]
        harness.wait_started("g")
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        first = read_frame(response)
        assert first["event"] == "run-started"
        conn.close()  # subscriber walks away mid-run
        harness.release("g")
        assert harness.wait_terminal(run_id)["state"] == "completed"

    def test_delete_mid_stream_ends_with_cancelled_event(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(hold="g", queries=5))
        run_id = body["run"]["run_id"]
        harness.wait_started("g")
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        try:
            assert read_frame(response)["event"] == "run-started"
            status, _, _ = client.request("DELETE", f"/v1/runs/{run_id}")
            assert status == 200
            harness.release("g")
            frames = read_all_frames(response)
            assert frames, "stream must end with a terminal event"
            assert frames[-1]["event"] == "run-completed"
            assert frames[-1]["data"]["status"] == "cancelled"
        finally:
            conn.close()

    def test_stream_for_unknown_run_is_clean_404(self, served):
        _, client = served
        status, body, _ = client.request("GET", "/v1/runs/run-424242/events")
        assert status == 404
        assert body["error"]["code"] == "not-found"
