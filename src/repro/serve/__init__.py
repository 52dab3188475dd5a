"""The resident verification service (``repro serve``).

Three layers:

* :mod:`repro.serve.service` — the transport-independent core: request
  specs, the spec runners every execution path shares (in-process CLI,
  daemon, tests), and :class:`VerificationService` — per-network shards
  of warm verification state with admission control.
* :mod:`repro.serve.server` — the stdlib HTTP daemon wrapping one
  service instance (``repro serve start``).
* :mod:`repro.serve.client` — the thin client the ``--server`` flag of
  ``audit``/``prove``/``watch``/``repair`` dispatches through.

The contract that makes the thin clients trustworthy is **verdict
parity**: a server-mediated command and a cold in-process run of the
same request spec emit byte-identical ``--stable-json`` output (the
stable mode strips exactly the warm-state-dependent fields: wall-clock
timings, cache-hit flags, solver-effort counters, and proof-search
artifacts like which portfolio engine won).
"""

from .._lazy import lazy_exports

__all__ = [
    "VerificationService",
    "run_audit",
    "run_watch",
    "run_repair",
    "payload_exit_code",
    "request",
    "server_status",
    "shutdown_server",
    "ServerError",
]

# Loaded on first use: a ``--server`` client imports ``.client`` (stdlib
# only) and must not drag in ``.service`` and the verifier behind it.
__getattr__, __dir__ = lazy_exports(globals(), {
    "VerificationService": ".service",
    "run_audit": ".service",
    "run_watch": ".service",
    "run_repair": ".service",
    "payload_exit_code": ".service",
    "request": ".client",
    "server_status": ".client",
    "shutdown_server": ".client",
    "ServerError": ".client",
})
