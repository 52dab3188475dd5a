"""HTTP transport tests: a real ReproServer on an ephemeral port driven
through the real client.

These cover only what the socket adds on top of the service — routing,
status-code mapping, body limits, the shutdown handshake.  Verification
semantics (parity, sharding, persistence) are tested socket-free in
test_service.py / test_persistence.py.
"""

import http.client
import io
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.log import EventLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.serve.client import (
    ServerError,
    normalize_url,
    recent_requests,
    request,
    request_trace,
    server_metrics,
    server_status,
    shutdown_server,
)
from repro.serve.server import MAX_BODY, ReproServer
from repro.serve.service import PROTOCOL, VerificationService


@pytest.fixture
def server():
    """A live daemon on an ephemeral localhost port."""
    srv = ReproServer(("127.0.0.1", 0), VerificationService(), quiet=True)
    thread = threading.Thread(target=srv.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        srv.close()


@pytest.fixture
def registry():
    """A live daemon-style metrics registry (as run_server installs)."""
    reg = MetricsRegistry()
    obs.enable(tracer=NULL_TRACER, registry=reg)
    yield reg
    obs.disable()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _get_raw(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


def _post_spec(url, spec):
    req = urllib.request.Request(
        url + "/v1/run", data=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=60) as resp:
        return dict(resp.headers), json.loads(resp.read().decode("utf-8"))


_AUDIT = {"command": "audit", "scenario": "enterprise", "size": 2,
          "stable": True}


class TestNormalizeUrl:
    def test_accepted_spellings(self):
        assert normalize_url("8642") == "http://127.0.0.1:8642"
        assert normalize_url(":8642") == "http://127.0.0.1:8642"
        assert normalize_url("box:8642") == "http://box:8642"
        assert normalize_url("http://box:8642/") == "http://box:8642"


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body == {"ok": True, "protocol": PROTOCOL}

    def test_status_roundtrip(self, server):
        body = server_status(server.url)
        assert body["ok"] and body["protocol"] == PROTOCOL
        assert body["requests"] == 0 and body["shards"] == {}

    def test_unknown_path_404(self, server):
        with pytest.raises(ServerError) as exc:
            server_status(server.url + "/nope")
        assert exc.value.status == 404

    def test_run_audit_over_http(self, server):
        envelope = request(server.url, {
            "command": "audit", "scenario": "enterprise", "size": 2,
            "stable": True,
        })
        assert envelope["ok"] and envelope["protocol"] == PROTOCOL
        payload = envelope["payload"]
        assert payload["command"] == "audit"
        assert payload["checks"]
        assert envelope["exit_code"] in (0, 1)
        assert server_status(server.url)["requests"] == 1

    def test_bad_spec_maps_to_400(self, server):
        with pytest.raises(ServerError) as exc:
            request(server.url, {"command": "explode", "scenario": "isp"})
        assert exc.value.status == 400
        # The daemon stays up and healthy afterwards.
        assert _get(server.url + "/healthz")[0] == 200

    def test_malformed_json_maps_to_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/run", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_oversized_body_maps_to_413(self, server):
        req = urllib.request.Request(
            server.url + "/v1/run", data=b"x",
            headers={"Content-Type": "application/json",
                     "Content-Length": str(MAX_BODY + 1)}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 413

    def test_checkpoint_endpoint(self, server):
        req = urllib.request.Request(server.url + "/v1/checkpoint",
                                     data=b"{}", method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            body = json.loads(resp.read().decode("utf-8"))
        assert body == {"ok": True, "shards": []}


def _exchange(server, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection and return everything the
    server writes until it closes (5 s without a byte fails)."""
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestRefusedBodies:
    """A request refused before its body was read: answered at once,
    and the connection closed so the unread bytes are never parsed as a
    second request."""

    SMUGGLED = b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n"

    def _refused(self, server, content_length: str, status: int):
        reply = _exchange(
            server,
            b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + content_length.encode() + b"\r\n\r\n" + self.SMUGGLED)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert reply.count(b"HTTP/1.1 ") == 1  # the body was not served
        assert b"Connection: close" in reply
        assert json.loads(reply.partition(b"\r\n\r\n")[2])["ok"] is False

    def test_negative_content_length_is_400_not_a_blocked_read(self, server):
        self._refused(server, "-1", 400)

    def test_non_numeric_content_length_is_400(self, server):
        self._refused(server, "lots", 400)

    def test_oversized_body_is_413_and_closes(self, server):
        self._refused(server, str(MAX_BODY + 1), 413)

    def test_unread_control_body_does_not_poison_keep_alive(self, server):
        """/v1/checkpoint takes no spec and never reads a body; a
        keep-alive client that sent one must still get its next reply."""
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=10)
        try:
            conn.request("POST", "/v1/checkpoint", body=b"{}")
            first = conn.getresponse()
            assert first.status == 200 and json.loads(first.read())["ok"]
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read()) == {"ok": True,
                                                 "protocol": PROTOCOL}
        finally:
            conn.close()

    def test_replies_are_compact_json(self, server):
        reply = _exchange(server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                                  b"Connection: close\r\n\r\n")
        assert reply.endswith(b'\r\n\r\n{"ok":true,"protocol":"%s"}\n'
                              % PROTOCOL.encode())


class TestStatusSchema:
    def test_status_carries_the_observability_surface(self, server):
        request(server.url, _AUDIT)
        body = server_status(server.url)
        assert body["requests"] == 1
        assert body["stalls"] == 0
        assert body["waiting"] == 0
        assert body["inflight"] == []
        assert body["trace_requests"] is True
        assert body["soft_deadline_seconds"] == 60.0
        recorder = body["recorder"]
        assert recorder["recorded"] == 1
        assert recorder["entries"] == 1
        assert recorder["capacity"] == 256
        (shard,) = body["shards"].values()
        assert shard["scenario"].startswith("enterprise")
        assert "cache_hit_rate" in shard
        assert "idle_seconds" in shard


class TestMetricsEndpoint:
    def test_metrics_are_prometheus_text(self, server, registry):
        request(server.url, _AUDIT)
        status, headers, text = _get_raw(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert '# TYPE repro_serve_requests_total counter' in text
        assert 'repro_serve_requests_total{command="audit"} 1' in text
        assert 'repro_serve_request_seconds_count{command="audit"} 1' in text
        # Percentile gauges (satellite: p50/p95/p99 exposition).
        for part in ("p50", "p95", "p99"):
            assert f'repro_serve_request_seconds_{part}' in text
        assert text == server_metrics(server.url)  # the client helper

    def test_metrics_without_a_registry_are_empty(self, server):
        status, headers, text = _get_raw(server.url + "/metrics")
        assert status == 200
        assert text == ""

    def test_concurrent_requests_all_count(self, server, registry):
        errors = []

        def fire():
            try:
                request(server.url, _AUDIT, timeout=60)
            except Exception as err:  # pragma: no cover - diagnostic
                errors.append(err)

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []
        counter = registry.counter("repro_serve_requests_total")
        assert counter.value(command="audit") == 4
        hist = registry.histogram("repro_serve_request_seconds")
        assert hist.summary(command="audit")["count"] == 4
        assert server_status(server.url)["requests"] == 4


class TestRequestIntrospection:
    def test_request_id_is_echoed_in_header_and_envelope(self, server):
        headers, envelope = _post_spec(server.url, _AUDIT)
        assert envelope["request_id"].startswith("r")
        assert headers["X-Repro-Request-Id"] == envelope["request_id"]

    def test_recent_requests_lists_newest_first(self, server):
        ids = [request(server.url, _AUDIT)["request_id"] for _ in range(3)]
        body = recent_requests(server.url)
        assert [r["request_id"] for r in body["requests"]] == ids[::-1]
        assert body["recorder"]["recorded"] == 3
        capped = recent_requests(server.url, n=2)
        assert len(capped["requests"]) == 2

    def test_request_detail_and_unknown_id(self, server):
        envelope = request(server.url, _AUDIT)
        rid = envelope["request_id"]
        status, body = _get(server.url + f"/v1/requests/{rid}")
        assert status == 200
        assert body["request"]["request_id"] == rid
        assert body["request"]["exit_code"] == envelope["exit_code"]
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/v1/requests/r-nope",
                                   timeout=10)
        assert exc.value.code == 404

    def test_fast_requests_retain_no_trace(self, server):
        rid = request(server.url, _AUDIT)["request_id"]
        # Default slow threshold is 5s; a size-2 audit never crosses it.
        with pytest.raises(ServerError) as exc:
            request_trace(server.url, rid)
        assert exc.value.status == 404
        assert "slow" in str(exc.value)

    def test_bad_n_query_maps_to_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/v1/requests?n=wat",
                                   timeout=10)
        assert exc.value.code == 400


class TestAccessLogging:
    """--quiet governs the stderr echo threshold of the structured
    logger; the JSONL file keeps access events in both modes."""

    def _serve_one(self, logger, quiet):
        srv = ReproServer(("127.0.0.1", 0), VerificationService(),
                          quiet=quiet, logger=logger)
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            assert _get(srv.url + "/healthz")[0] == 200
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.close()

    def test_verbose_mode_echoes_access_events(self, tmp_path):
        echo = io.StringIO()
        logger = EventLogger(path=str(tmp_path / "events.jsonl"),
                             stream=echo, level="info",
                             stream_level="info")
        self._serve_one(logger, quiet=False)
        logger.close()
        echoed = [json.loads(line) for line in
                  echo.getvalue().splitlines()]
        assert any(e["event"] == "http-access" and e["path"] == "/healthz"
                   and e["status"] == 200 for e in echoed)

    def test_quiet_mode_keeps_the_file_but_not_stderr(self, tmp_path):
        path = tmp_path / "events.jsonl"
        echo = io.StringIO()
        logger = EventLogger(path=str(path), stream=echo, level="info",
                             stream_level="warning")  # --quiet wiring
        self._serve_one(logger, quiet=True)
        logger.close()
        assert echo.getvalue() == ""  # nothing below warning echoed
        filed = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert any(e["event"] == "http-access" for e in filed)

    def test_legacy_fallback_without_a_logger(self, capsys):
        self._serve_one(None, quiet=False)
        err = capsys.readouterr().err
        assert "GET /healthz" in err or "/healthz" in err

    def test_legacy_quiet_is_silent(self, capsys):
        self._serve_one(None, quiet=True)
        assert capsys.readouterr().err == ""


class TestClientErrors:
    def test_unreachable_server_raises_not_falls_back(self):
        """--server must never silently degrade to a cold in-process
        run; an unreachable daemon is an error (CLI exit 2)."""
        with pytest.raises(ServerError) as exc:
            request("127.0.0.1:1", {"command": "audit", "scenario": "isp"},
                    timeout=2)
        assert "cannot reach" in str(exc.value)


class TestShutdown:
    def test_shutdown_stops_the_loop(self):
        srv = ReproServer(("127.0.0.1", 0), VerificationService(),
                          quiet=True)
        done = threading.Event()

        def serve():
            srv.serve_forever(poll_interval=0.05)
            done.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert shutdown_server(srv.url)["ok"]
        assert done.wait(timeout=10)
        thread.join(timeout=10)
        srv.close()

    def test_shutdown_does_not_wait_for_the_poll_interval(self):
        """The stop wakes the loop itself: with a 30 s poll interval it
        still ends at once (it used to take one interval unless the
        handler thread happened to win a race with the loop)."""
        srv = ReproServer(("127.0.0.1", 0), VerificationService(),
                          quiet=True)
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 30.0}, daemon=True)
        thread.start()
        assert shutdown_server(srv.url)["ok"]
        thread.join(timeout=5)
        assert not thread.is_alive()
        srv.close()
