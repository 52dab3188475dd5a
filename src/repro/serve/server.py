"""The stdlib HTTP daemon behind ``repro serve start``.

One :class:`repro.serve.service.VerificationService` instance wrapped
in a :class:`http.server.ThreadingHTTPServer` bound to localhost.  The
transport layer is deliberately thin — every routing decision that
matters (sharding, admission, checkpointing) lives in the service, so
tests can drive it without sockets.

Endpoints::

    GET  /healthz            liveness probe: {"ok": true, "protocol": ...}
    GET  /status             service + per-shard + flight-recorder stats
    GET  /metrics            Prometheus text (repro_serve_* + solver metrics)
    GET  /v1/requests        recent request summaries (?n= caps the count)
    GET  /v1/requests/<id>   one summary from the flight recorder
    GET  /v1/requests/<id>/trace   retained slow-request span trace
    POST /v1/run             body: a request spec; 200 -> response envelope
                             {"ok": true, "protocol", "request_id",
                              "payload", "exit_code"}; the id is echoed in
                             the ``X-Repro-Request-Id`` header.
                             400 bad spec | 503 admission queue full
    POST /v1/blame           like /v1/run with the command forced to
                             "blame" — the verdict-explanation endpoint
    POST /v1/checkpoint      flush every shard's store to disk now
    POST /v1/shutdown        checkpoint, then stop serving

Observability: the daemon keeps the *global* tracer off — a
process-lifetime tracer would accumulate spans for as long as the
daemon lives — and instead the service runs every admitted request
under its own bounded request-scoped tracer (see
:meth:`VerificationService.handle`).  The metrics registry stays
enabled for the whole lifetime (aggregates are cheap and bounded), and
every event — HTTP access lines included — goes through one structured
:class:`repro.obs.log.EventLogger`: JSONL to ``<store>/events.jsonl``,
echoed to stderr at ``info`` (or only ``warning`` and up under
``--quiet``).
"""

from __future__ import annotations

import json
import os
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..obs.log import EventLogger
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER
from .service import (
    PROTOCOL,
    BadRequest,
    ServiceBusy,
    VerificationService,
)

__all__ = ["ReproServer", "run_server"]

#: Cap request bodies well above any real spec (a spec is a flat dict
#: of scalars) but low enough that a misdirected upload can't balloon.
MAX_BODY = 1 << 20

_REQUEST_PATH = re.compile(r"^/v1/requests/(?P<id>[\w.-]+)(?P<trace>/trace)?$")


class ReproServer(ThreadingHTTPServer):
    """HTTP front end owning one :class:`VerificationService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: VerificationService, quiet: bool = True,
                 logger=None):
        self.service = service
        self.quiet = quiet
        self.log = logger if logger is not None else service.log
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_soon(self) -> None:
        """Stop the serve loop from a handler thread (``shutdown()``
        deadlocks when called from the thread the loop is feeding).

        The loop looks at its stop flag only when ``select()`` returns,
        so a connection to ourselves makes that now rather than at the
        end of a poll interval (else a stop takes 4 ms or 100 ms by how
        two threads happened to interleave)."""
        stopper = threading.Thread(target=self.shutdown, daemon=True)
        stopper.start()
        while stopper.is_alive():
            try:
                socket.create_connection(self.server_address[:2], 1.0).close()
            except OSError:  # the listening socket is already closed
                break
            stopper.join(0.005)

    def close(self) -> None:
        self.service.close()
        self.server_close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Replies go out whole and at once (see _send): with Nagle's
    # algorithm on, whatever follows a reply's first segment waits for
    # the peer's ACK of it, and a peer that has nothing to send back
    # delays that ACK by ~40 ms — longer than a warm hit takes to serve.
    disable_nagle_algorithm = True
    #: True from the start of a POST until its body has been read.  A
    #: reply sent meanwhile also ends the connection (see _send): the
    #: unread bytes would otherwise be parsed as the next request.
    _body_unread = False

    # -- logging -------------------------------------------------------
    # Access lines are *events*, not print statements: they go through
    # the server's structured logger, whose stderr threshold is what
    # --quiet actually controls (the JSONL file always gets them).
    # Without a logger, fall back to the legacy behavior: stderr lines
    # unless quiet.
    def log_request(self, code="-", size="-"):  # noqa: N802 (stdlib name)
        log = self.server.log
        seconds = (
            round(time.perf_counter() - self._started, 4)
            if getattr(self, "_started", None) is not None else None
        )
        if log.enabled:
            fields = {"method": self.command, "path": self.path,
                      "status": int(code), "seconds": seconds}
            request_id = getattr(self, "_request_id", None)
            if request_id is not None:
                fields["request_id"] = request_id
            log.info("http-access", **fields)
        elif not self.server.quiet:
            sys.stderr.write(
                "serve: %s %s %s\n" % (self.command, self.path, code)
            )

    def log_error(self, fmt, *args):  # noqa: N802 (stdlib name)
        log = self.server.log
        if log.enabled:
            log.warning("http-error", path=getattr(self, "path", None),
                        detail=fmt % args)
        elif not self.server.quiet:
            sys.stderr.write("serve: %s\n" % (fmt % args))

    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        log = self.server.log
        if log.enabled:
            log.info("http", detail=fmt % args)
        elif not self.server.quiet:
            sys.stderr.write("serve: %s\n" % (fmt % args))

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, content_type: str, body: bytes,
              headers: Optional[dict] = None) -> None:
        """Status line, headers and body in **one** write, hence one
        TCP segment train with nothing held back."""
        self.log_request(status, len(body))
        head = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        head += [f"{key}: {value}" for key, value in (headers or {}).items()]
        if self._body_unread:
            self.close_connection = True
            head.append("Connection: close")
        head += ["", ""]
        self.wfile.write("\r\n".join(head).encode("latin-1") + body)

    def _send_json(self, status: int, obj: dict,
                   headers: Optional[dict] = None) -> None:
        # Compact: both clients re-render, and without ``indent`` the C
        # encoder does the work.
        body = (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")
        self._send(status, "application/json", body, headers)

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, "text/plain; charset=utf-8", text.encode("utf-8"))

    def _read_spec(self) -> Optional[dict]:
        """The request body as a spec dict, or ``None`` after answering
        why not."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(400, {"ok": False, "error": "bad Content-Length"})
            return None
        if length > MAX_BODY:
            self._send_json(413, {"ok": False,
                                  "error": f"body over {MAX_BODY} bytes"})
            return None
        raw = self.rfile.read(length) if length else b"{}"
        self._body_unread = False
        try:
            spec = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            self._send_json(400, {"ok": False, "error": f"bad JSON: {err}"})
            return None
        if not isinstance(spec, dict):
            self._send_json(400, {"ok": False,
                                  "error": "request body must be an object"})
            return None
        return spec

    # -- routes --------------------------------------------------------
    def _get_requests(self, query: str) -> None:
        try:
            n = int(parse_qs(query).get("n", ["0"])[0]) or None
        except ValueError:
            self._send_json(400, {"ok": False, "error": "n must be an int"})
            return
        recorder = self.server.service.recorder
        self._send_json(200, {
            "ok": True,
            "requests": recorder.recent(n),
            "recorder": recorder.stats(),
        })

    def _get_request_detail(self, request_id: str, want_trace: bool) -> None:
        recorder = self.server.service.recorder
        if want_trace:
            path = recorder.trace_path(request_id)
            if path is None:
                self._send_json(404, {
                    "ok": False,
                    "error": f"no retained trace for {request_id!r} "
                             "(only slow requests keep one)",
                })
                return
            with open(path) as fh:
                self._send_json(200, json.load(fh))
            return
        entry = recorder.entry(request_id)
        if entry is None:
            self._send_json(404, {"ok": False,
                                  "error": f"unknown request {request_id!r}"})
        else:
            self._send_json(200, {"ok": True, "request": entry})

    def do_GET(self):  # noqa: N802 (stdlib name)
        self._started = time.perf_counter()
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            self._send_json(200, {"ok": True, "protocol": PROTOCOL})
        elif parts.path == "/status":
            self._send_json(200, {"ok": True, **self.server.service.status()})
        elif parts.path == "/metrics":
            self._send_text(200, obs.get_registry().to_prometheus())
        elif parts.path == "/v1/requests":
            self._get_requests(parts.query)
        else:
            match = _REQUEST_PATH.match(parts.path)
            if match is not None:
                self._get_request_detail(match.group("id"),
                                         bool(match.group("trace")))
            else:
                self._send_json(404, {"ok": False,
                                      "error": f"no such path {self.path!r}"})

    def _post_run(self, force_command: Optional[str] = None) -> None:
        spec = self._read_spec()
        if spec is None:
            return
        if force_command is not None:
            spec["command"] = force_command
        try:
            envelope = self.server.service.handle(spec)
        except BadRequest as err:
            self._send_json(400, {"ok": False, "error": str(err)})
        except ServiceBusy as err:
            self._send_json(503, {"ok": False, "error": str(err)})
        except Exception as err:  # verification bug — report, stay up
            self._send_json(500, {"ok": False,
                                  "error": f"{type(err).__name__}: {err}"})
        else:
            self._request_id = envelope.get("request_id")
            self._send_json(200, {"ok": True, **envelope},
                            headers={"X-Repro-Request-Id":
                                     self._request_id or "-"})

    def do_POST(self):  # noqa: N802 (stdlib name)
        self._started = time.perf_counter()
        self._body_unread = True
        if self.path == "/v1/run":
            self._post_run()
        elif self.path == "/v1/blame":
            self._post_run(force_command="blame")
        elif self.path == "/v1/checkpoint":
            self._send_json(200, {"ok": True,
                                  "shards": self.server.service.checkpoint()})
        elif self.path == "/v1/shutdown":
            self._send_json(200, {"ok": True})
            self.server.shutdown_soon()
        else:
            self._send_json(404, {"ok": False,
                                  "error": f"no such path {self.path!r}"})


def run_server(
    host: str = "127.0.0.1",
    port: int = 8642,
    store_dir: Optional[str] = None,
    cache_entries: int = 4096,
    max_shards: int = 8,
    max_inflight: int = 2,
    queue_depth: int = 16,
    quiet: bool = False,
    ready: Optional[threading.Event] = None,
    trace_requests: bool = True,
    slow_trace_seconds: float = 5.0,
    soft_deadline_seconds: float = 60.0,
    recorder_capacity: int = 256,
    max_retained_traces: int = 16,
    log_file: Optional[str] = None,
    log_max_bytes: int = 4 << 20,
) -> int:
    """Bind, serve until shutdown, checkpoint on the way out.

    ``port=0`` binds an ephemeral port (printed on stdout so scripts
    can scrape it).  ``ready`` is set once the socket is listening —
    in-process tests use it instead of polling /healthz.

    Events stream as JSONL to ``log_file`` (default
    ``<store_dir>/events.jsonl`` when a store directory is configured)
    and echo to stderr; ``quiet`` raises the stderr threshold to
    ``warning`` without touching the file log.  ``log_max_bytes``
    bounds *both* on-disk JSONL streams — the event log and the flight
    recorder's ``requests.jsonl`` — via size rotation (current file
    plus one ``.1`` backup), so a long-lived daemon's logs stay capped.
    """
    log_path = log_file
    if log_path is None and store_dir is not None:
        log_path = os.path.join(store_dir, "events.jsonl")
    logger = EventLogger(
        path=log_path,
        stream=sys.stderr,
        level="info",
        stream_level="warning" if quiet else "info",
        max_bytes=log_max_bytes,
    )
    service = VerificationService(
        store_dir=store_dir,
        cache_entries=cache_entries,
        max_shards=max_shards,
        max_inflight=max_inflight,
        queue_depth=queue_depth,
        trace_requests=trace_requests,
        slow_trace_seconds=slow_trace_seconds,
        soft_deadline_seconds=soft_deadline_seconds,
        recorder_capacity=recorder_capacity,
        max_retained_traces=max_retained_traces,
        logger=logger,
        log_max_bytes=log_max_bytes,
    )
    server = ReproServer((host, port), service, quiet=quiet, logger=logger)
    obs.enable(tracer=NULL_TRACER, registry=MetricsRegistry())
    previous_logger = obs.set_logger(logger)
    try:
        print(f"serving on {server.url}"
              + (f" (store: {store_dir})" if store_dir else ""),
              flush=True)
        logger.info("serve-start", url=server.url, pid=os.getpid(),
                    store_dir=store_dir, quiet=quiet,
                    trace_requests=trace_requests,
                    slow_trace_seconds=slow_trace_seconds,
                    soft_deadline_seconds=soft_deadline_seconds)
        if ready is not None:
            ready.set()
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:
            pass
        return 0
    finally:
        logger.info("serve-stop", requests=service.requests,
                    errors=service.errors, rejected=service.rejected)
        server.close()
        obs.set_logger(previous_logger)
        obs.disable()
        logger.close()
