"""Thin client for the resident daemon (the ``--server`` flag).

The client never post-processes verdicts: it POSTs the same request
spec the in-process path would execute, gets back the *full* payload
(timings, cache flags and all), and the CLI renders it with the very
same code — JSON stripping for ``--stable-json`` happens client-side.
That is what makes server parity a byte-for-byte property instead of a
semantic one.

An unreachable or misbehaving server raises :class:`ServerError`; the
CLI maps it to exit code 2.  There is no silent fallback to in-process
execution — if you asked for the server, you get the server's warm
state or an error, never an unannounced cold run.
"""

from __future__ import annotations

import json
from typing import Optional
from urllib.parse import urlsplit

__all__ = [
    "ServerError",
    "request",
    "server_status",
    "server_metrics",
    "recent_requests",
    "request_trace",
    "shutdown_server",
]

DEFAULT_PORT = 8642
DEFAULT_TIMEOUT = 600.0


class ServerError(Exception):
    """The daemon is unreachable, rejected the request, or failed."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


def normalize_url(server: str) -> str:
    """Accept ``http://host:port``, ``host:port``, ``:port``, or a bare
    port number."""
    server = server.strip().rstrip("/")
    if server.isdigit():
        server = f"127.0.0.1:{server}"
    elif server.startswith(":"):
        server = f"127.0.0.1{server}"
    if "://" not in server:
        server = f"http://{server}"
    return server


def _fetch(server: str, path: str, body: Optional[dict], timeout: float,
           accept: str = "application/json") -> bytes:
    """The body of a 200 reply to one request (POST when ``body`` is
    given, else GET) on a fresh connection; anything else raises
    :class:`ServerError`."""
    # Imported on first request, not with this module: the CLI imports
    # the module for every command, and http.client (with ssl behind
    # it) is most of what `repro list` or `repro stats` would load.
    import http.client

    url = normalize_url(server) + path
    parts = urlsplit(url)
    data = None
    headers = {"Accept": accept}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    if parts.scheme != "http" or not parts.hostname:
        raise ServerError(f"not an http://host:port address: {url}")
    try:
        conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                          timeout=timeout)
        try:
            conn.request("POST" if body is not None else "GET",
                         parts.path + (f"?{parts.query}" if parts.query else ""),
                         body=data, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
    except (OSError, ValueError, http.client.HTTPException) as err:
        raise ServerError(
            f"cannot reach server {url}: {err} "
            "(is `repro serve start` running?)"
        ) from err
    if resp.status != 200:
        try:
            detail = json.loads(raw.decode("utf-8")).get("error", "")
        except (UnicodeDecodeError, ValueError, AttributeError):
            detail = raw.decode("utf-8", "replace")[:200]
        raise ServerError(
            f"server {url} answered {resp.status}: {detail or resp.reason}",
            status=resp.status,
        )
    return raw


def _fetch_json(server: str, path: str, body: Optional[dict],
                timeout: float) -> dict:
    raw = _fetch(server, path, body, timeout)
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ServerError(
            f"server {normalize_url(server)} sent non-JSON: {err}") from err


def _call(server: str, path: str, body: Optional[dict],
          timeout: float) -> dict:
    payload = _fetch_json(server, path, body, timeout)
    if not isinstance(payload, dict) or not payload.get("ok", False):
        raise ServerError(
            f"server {normalize_url(server)} error: {payload!r}")
    return payload


def request(server: str, spec: dict,
            timeout: float = DEFAULT_TIMEOUT) -> dict:
    """Execute one request spec on the daemon.

    Returns the response envelope ``{"protocol", "payload",
    "exit_code", ...}``; the payload inside is exactly what the
    in-process runner for ``spec`` would have produced."""
    return _call(server, "/v1/run", spec, timeout)


def server_status(server: str, timeout: float = 10.0) -> dict:
    """GET /status — daemon + per-shard statistics."""
    return _call(server, "/status", None, timeout)


def server_metrics(server: str, timeout: float = 10.0) -> str:
    """GET /metrics — the raw Prometheus text exposition."""
    raw = _fetch(server, "/metrics", None, timeout, accept="text/plain")
    return raw.decode("utf-8", "replace")


def recent_requests(server: str, n: Optional[int] = None,
                    timeout: float = 10.0) -> dict:
    """GET /v1/requests — flight-recorder summaries, newest first."""
    path = "/v1/requests" + (f"?n={n}" if n else "")
    return _call(server, path, None, timeout)


def request_trace(server: str, request_id: str,
                  timeout: float = 10.0) -> dict:
    """GET /v1/requests/<id>/trace — a retained slow-request trace
    (the same run-record JSON ``repro stats`` loads)."""
    return _fetch_json(server, f"/v1/requests/{request_id}/trace", None,
                       timeout)


def shutdown_server(server: str, timeout: float = 10.0) -> dict:
    """POST /v1/shutdown — checkpoint stores and stop serving."""
    return _call(server, "/v1/shutdown", {}, timeout)
