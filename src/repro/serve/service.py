"""Transport-independent core of the resident verification service.

**Request specs** are plain JSON dicts — ``{"command": "audit",
"scenario": "enterprise", "size": 3, "seed": 0, ...}`` — normalized by
:func:`normalize_spec`.  The CLI builds one from its flags; the HTTP
daemon receives one as a POST body.  Both hand it to the same runner
(:func:`run_audit` / :func:`run_watch` / :func:`run_repair` /
:func:`run_blame` / :func:`run_history`), which
returns the full JSON payload the command emits, so a server-mediated
run and an in-process run produce the same bytes by construction.

**Prepared audits**: :func:`run_audit` is :func:`prepare_audit` (pure
in the normalised spec: scenario, collapse, slices, fingerprints, shape
keys) then *execute* (all that reads a shard).  The service memoises
the first half per spec (LRU over the fields an audit reads, at most
``cache_entries`` jobs in all): a repeated request is a lookup plus one
cache ``get`` per check.  ``watch`` / ``repair`` mutate their topology,
so their bundle is built per request.

**Shards** (:class:`VerificationService`) are the resident warm state:
one per network version, keyed by the exact structural
:func:`repro.netmodel.canon.network_fingerprint` of the request's
baseline topology + steering.  A shard owns an LRU-bounded
:class:`repro.core.engine.ResultCache`, a warm
:class:`repro.netmodel.bmc.SolverPool`, and (when the service was
given a store directory) a :class:`repro.store.VerdictStore` persisted
per shard — preloaded when the shard is created, checkpointed after
every request that touched it.  Requests for the same network reuse the
shard's live solvers and verdicts; requests for different networks
cannot alias (the fingerprint is exact, not canonical-up-to-renaming).

**Admission**: at most ``max_inflight`` requests verify concurrently
(per-shard locks additionally serialize same-network requests, since
warm solvers are single-threaded); up to ``queue_depth`` more may wait.
Beyond that the service answers *busy* immediately — the HTTP layer
maps it to 503 — instead of stacking unbounded work behind a slow
solver run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..core.engine import ResultCache, SolverPool, default_workers, execute_jobs
from ..netmodel.bmc import SOLVER_COUNTERS, VIOLATED
from ..netmodel.canon import network_fingerprint
from ..obs.log import NULL_LOGGER
from ..obs.trace import NULL_TRACER, Tracer
from ..scenarios import (
    DEFAULT_SIZES, SCENARIOS, ScenarioError, build_scenario,
)
from ..store import VerdictStore
from .recorder import FlightRecorder, summarize_payload

__all__ = [
    "ServiceBusy",
    "BadRequest",
    "normalize_spec",
    "run_audit",
    "run_watch",
    "run_repair",
    "run_blame",
    "run_history",
    "RUNNERS",
    "payload_exit_code",
    "VerificationService",
]

#: Protocol version of the request/response schema; bumped on breaking
#: payload changes so mismatched client/daemon pairs fail loudly.
PROTOCOL = "repro-serve/1"


class ServiceBusy(Exception):
    """Admission queue full — retry later (HTTP 503)."""


class BadRequest(Exception):
    """Malformed or unserviceable request spec (HTTP 400)."""


# ----------------------------------------------------------------------
# Request specs
# ----------------------------------------------------------------------
_SPEC_DEFAULTS = {
    "size": None,
    "misconfig": False,
    "seed": 0,
    "no_slicing": False,
    "no_cache": False,
    "jobs": 1,
    "stable": False,
    # prove
    "budget": None,
    "max_checks": None,
    # watch
    "deltas": 10,
    "prove": False,
    # repair + blame
    "fault": None,
    "max_edits": 3,
    "max_candidates": 32,
    # blame
    "only": None,
    # history
    "label": None,
}

_COMMANDS = ("audit", "prove", "watch", "repair", "blame", "history")


def normalize_spec(spec: dict) -> dict:
    """A complete, defaulted copy of a request spec.

    Raises :class:`BadRequest` on a missing/unknown command or scenario
    so transports can answer 400 without running anything.
    """
    if not isinstance(spec, dict):
        raise BadRequest("request spec must be a JSON object")
    command = spec.get("command")
    if command not in _COMMANDS:
        raise BadRequest(f"unknown command {command!r} (one of {_COMMANDS})")
    if not spec.get("scenario"):
        raise BadRequest("request spec needs a scenario")
    out = dict(_SPEC_DEFAULTS)
    out.update({k: spec[k] for k in spec if k in _SPEC_DEFAULTS})
    out["command"] = command
    out["scenario"] = str(spec["scenario"])
    return out


#: What an ``audit`` / ``prove`` reads of its spec.
_AUDIT_FIELDS = ("command", "scenario", "size", "misconfig", "seed",
                 "no_slicing", "no_cache", "jobs", "stable", "budget",
                 "max_checks")


def _audit_spec(spec: dict) -> dict:
    """Those fields of a normalised spec, the default size spelled out:
    all a prepared audit keeps of it, hence the service's memo key."""
    out = {name: spec[name] for name in _AUDIT_FIELDS}
    if out["size"] is None:
        out["size"] = DEFAULT_SIZES.get(out["scenario"])
    return out


def _bundle_for(spec: dict):
    try:
        return build_scenario(
            spec["scenario"], size=spec["size"],
            misconfig=spec["misconfig"], seed=spec["seed"],
        )
    except ScenarioError as err:
        raise BadRequest(str(err)) from err


# ----------------------------------------------------------------------
# Row helpers (shared with the CLI's text renderers)
# ----------------------------------------------------------------------
def solver_row(result) -> Optional[dict]:
    """Solver statistics of one check, or ``None`` for pre-solver-era
    cached results that carry no counters."""
    stats = result.stats
    if not all(key in stats for key in SOLVER_COUNTERS):
        return None
    row = {key: stats[key] for key in SOLVER_COUNTERS}
    row.update(
        vars=stats.get("vars"),
        clauses=stats.get("clauses"),
        learnts=stats.get("learnts"),
        warm=bool(stats.get("warm")),
        cumulative=stats.get("cumulative"),
    )
    return row


def certificate_row(stats) -> Optional[dict]:
    """Compact certificate summary for ``prove --json`` rows."""
    cert = stats.get("certificate")
    if cert is None:
        return None
    row = {"kind": cert.kind, "summary": cert.summary()}
    if cert.kind == "kinduction":
        row["k"] = cert.k
    else:
        row["n_clauses"] = len(cert.clauses)
        row["n_literals"] = sum(len(c) for c in cert.clauses)
        shrink = stats.get("certificate_minimized")
        if shrink is not None:
            row["minimized"] = shrink
    return row


def report_row(report) -> dict:
    """One ``repro watch`` version row."""
    return {
        "version": report.version,
        "delta": report.delta,
        "n_checks": len(report),
        "carried": report.carried,
        "cache_hits": report.cache_hits,
        "solver_runs": report.solver_runs,
        "certificates_reused": report.certificates_reused,
        "mismatches": report.mismatches,
        "metrics": report.metrics,
        "retired": [c.describe() for c in report.retired],
        "added": report.added,
        "seconds": round(report.seconds, 3),
        "summary": report.summary(),
        "drift": [
            {"label": o.check.describe(), "status": o.status,
             "expected": o.check.expected}
            for o in report if o.ok is False
        ],
        "checks": {o.check.describe(): o.status for o in report},
        "provenance": {
            o.check.describe(): o.result.stats.get("provenance")
            for o in report
        },
    }


# ----------------------------------------------------------------------
# Spec runners — one per command, shared by every execution path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PreparedAudit:
    """What no warm state can change about an ``audit`` / ``prove``
    spec: a pure function of its audit fields (all ``spec`` keeps),
    read-only once built, so one object serves every repeat.
    ``network`` is the shard key."""

    spec: dict
    bundle: object
    jobs: tuple
    policy_classes: int
    network: str


def prepare_audit(spec: dict) -> PreparedAudit:
    """Scenario, collapse, policy classes, slices, fingerprints and
    shape keys of one spec — the half of :func:`run_audit` that reads
    neither a cache nor a solver."""
    spec = _audit_spec(normalize_spec(spec))
    prove = "portfolio" if spec["command"] == "prove" else None
    bundle = _bundle_for(spec)
    # The VMN's own (never used) pool is what makes it key the jobs.
    vmn = bundle.vmn(use_slicing=not spec["no_slicing"], use_cache=False)
    bmc_kwargs = {}
    if prove and spec["budget"]:
        bmc_kwargs["max_conflicts"] = spec["budget"]
    if prove and spec["max_checks"]:
        bmc_kwargs["max_checks"] = spec["max_checks"]
    if spec["stable"]:
        # Lex-minimal counterexample extraction is what makes traces
        # byte-identical across warm/cold solver states — the parity
        # guarantee stable mode advertises.
        bmc_kwargs["canonical_trace"] = True
    jobs = tuple(
        vmn.job_for(check.invariant, index=i, prove=prove,
                    with_fingerprint=not spec["no_cache"], **bmc_kwargs)
        for i, check in enumerate(bundle.checks)
    )
    return PreparedAudit(
        spec, bundle, jobs, vmn.policy_classes.count,
        network_fingerprint(bundle.topology, bundle.steering),
    )


def run_audit(
    spec: dict,
    cache: Optional[ResultCache] = None,
    solver_pool: Optional[SolverPool] = None,
    prepared: Optional[PreparedAudit] = None,
) -> dict:
    """Run an ``audit`` (or ``prove``) spec and return its payload:
    :func:`prepare_audit`, unless the caller kept the ``prepared`` half
    of this very spec, then **execute** — cache lookups, solver runs,
    rows, totals: paid per request, so cost fields stay truthful.

    ``cache``/``solver_pool`` supply a shard's resident warm state; the
    cold in-process path leaves them ``None`` and gets a per-run
    pool.  Warmth changes cost fields only (``cached``,
    solver counters, timings) — exactly the fields ``--stable-json``
    strips — never verdicts.
    """
    prepared = prepared or prepare_audit(spec)
    spec, bundle, job_list = prepared.spec, prepared.bundle, prepared.jobs
    started = time.perf_counter()  # execute only, whoever prepared
    prove = "portfolio" if spec["command"] == "prove" else None
    # ``no_cache`` jobs carry no fingerprint and never consult ``cache``;
    # without one, symmetric jobs of the batch still share a verdict.
    results = execute_jobs(
        job_list, workers=spec["jobs"] if spec["jobs"] > 0 else None,
        cache=cache,
        solver_pool=solver_pool if solver_pool is not None else SolverPool(),
    )
    elapsed = time.perf_counter() - started

    mismatches = 0
    violated = 0
    rows = []
    solver_totals = {k: 0 for k in SOLVER_COUNTERS}
    guarantees = {"unbounded": 0, "bounded": 0}
    shrink_totals = {"clauses_before": 0, "clauses_after": 0}
    for check, job, result in zip(bundle.checks, job_list, results):
        ok = result.status == check.expected
        mismatches += 0 if ok else 1
        violated += 1 if result.status == VIOLATED else 0
        solver = solver_row(result)
        if solver is not None and not result.cache_hit:
            for key in SOLVER_COUNTERS:
                solver_totals[key] += solver[key]
        row = {
            "label": check.label,
            "invariant": check.invariant.describe(),
            "status": result.status,
            "expected": check.expected,
            "ok": ok,
            "slice_size": job.slice_size,
            "cached": result.cache_hit,
            "solve_seconds": round(result.solve_seconds, 4),
            "solver": solver,
            "trace": str(result.trace) if result.trace is not None else None,
            "provenance": result.stats.get("provenance"),
        }
        if prove:
            stats = result.stats
            guarantee = stats.get("guarantee", "bounded")
            guarantees[guarantee] = guarantees.get(guarantee, 0) + 1
            shrunk = stats.get("certificate_minimized")
            if shrunk is not None and not result.cache_hit:
                shrink_totals["clauses_before"] += shrunk["clauses_before"]
                shrink_totals["clauses_after"] += shrunk["clauses_after"]
            row.update({
                "guarantee": guarantee,
                "engine": stats.get("proof_engine"),
                "note": stats.get("proof_note"),
                "certificate": certificate_row(stats),
                "recheck_ok": stats.get("recheck_ok"),
                "solver_checks": stats.get("solver_checks"),
            })
        rows.append(row)

    payload = {
        "command": spec["command"],
        "scenario": bundle.name,
        "seed": spec["seed"],
        "topology": bundle.topology.describe(),
        "policy_classes": prepared.policy_classes,
        "n_checks": len(rows),
        "mismatches": mismatches,
        "violated": violated,
        "elapsed_seconds": round(elapsed, 3),
        "solver_totals": solver_totals,
        "checks": rows,
    }
    if prove:
        payload["guarantees"] = guarantees
        payload["certificate_shrink"] = {
            **shrink_totals,
            "ratio": (
                round(
                    shrink_totals["clauses_before"]
                    / shrink_totals["clauses_after"],
                    2,
                )
                if shrink_totals["clauses_after"]
                else None
            ),
        }
    return payload


def run_watch(
    spec: dict,
    cache: Optional[ResultCache] = None,
    solver_pool: Optional[SolverPool] = None,
    store: Optional[VerdictStore] = None,
    bundle=None,
) -> dict:
    """Replay a churn stream (over ``bundle``, which the session
    mutates, when the caller built one); the ``repro watch`` payload.

    ``spec["prove"]`` keeps every tracked check continuously *proven*
    (portfolio mode): holds-verdicts carry certificates, and with a
    ``store`` those certificates persist — a later process re-validates
    them (three solver queries) instead of re-running proof searches,
    surfacing as ``certificates_reused`` in the per-version rows.
    """
    from ..incremental import IncrementalSession
    from ..scenarios import CHURN_GENERATORS

    spec = normalize_spec(spec)
    if bundle is None:
        bundle = _bundle_for(spec)  # unknown scenarios report as such first
    generator = CHURN_GENERATORS.get(spec["scenario"])
    if generator is None:
        raise BadRequest(
            f"no churn generator for {spec['scenario']!r}; watchable: "
            + ", ".join(sorted(CHURN_GENERATORS))
        )
    events = generator(bundle, n_events=spec["deltas"], seed=spec["seed"])

    session = IncrementalSession.from_bundle(
        bundle,
        jobs=spec["jobs"] if spec["jobs"] > 0 else default_workers(),
        use_cache=not spec["no_cache"],
        cache=cache if not spec["no_cache"] else None,
        solver_pool=solver_pool,
        store=store,
        prove="portfolio" if spec["prove"] else None,
    )
    reports = [session.baseline()]
    for event in events:
        reports.append(session.apply(event.delta, new_checks=event.new_checks))
    session.checkpoint()

    churn = reports[1:]
    totals = {
        "deltas": len(churn),
        "checks_reverified": sum(r.invalidated for r in churn),
        "checks_carried": sum(r.carried for r in churn),
        "cache_hits": sum(r.cache_hits for r in churn),
        "solver_runs": sum(r.solver_runs for r in churn),
        "certificates_reused": sum(r.certificates_reused for r in churn),
        "seconds": round(sum(r.seconds for r in churn), 3),
        "full_audit_equivalent_checks": sum(len(r) for r in churn),
    }
    return {
        "command": "watch",
        "scenario": bundle.name,
        "seed": spec["seed"],
        "baseline": report_row(reports[0]),
        "versions": [report_row(r) for r in churn],
        "totals": totals,
    }


def run_repair(
    spec: dict,
    cache: Optional[ResultCache] = None,
    solver_pool: Optional[SolverPool] = None,
    store: Optional[VerdictStore] = None,
) -> dict:
    """Synthesize a certified patch; returns the ``repro repair`` payload."""
    from ..incremental import IncrementalSession
    from ..scenarios.faults import FAULTS, build_fault, fault_names

    spec = normalize_spec(spec)
    scenario = spec["scenario"]
    if scenario not in SCENARIOS:
        raise BadRequest(
            f"unknown scenario {scenario!r}; see `python -m repro list`"
        )
    if not fault_names(scenario):
        repairable = sorted({name.split("/", 1)[0] for name in FAULTS})
        raise BadRequest(
            f"no faults registered for {scenario!r}; repairable: "
            + ", ".join(repairable)
        )
    try:
        fault = build_fault(scenario, spec["fault"], spec["size"], spec["seed"])
    except KeyError as err:
        raise BadRequest(str(err.args[0])) from err
    bundle = fault.bundle

    # Canonical (lex-minimal) counterexamples make hint extraction —
    # and therefore the candidate stream and the accepted patch —
    # reproducible across runs, not just the verdicts.
    bmc_kwargs = {"canonical_trace": True}
    if spec["budget"]:
        bmc_kwargs["max_conflicts"] = spec["budget"]
    session = IncrementalSession.from_bundle(
        bundle,
        jobs=spec["jobs"] if spec["jobs"] > 0 else default_workers(),
        use_cache=not spec["no_cache"],
        cache=cache if not spec["no_cache"] else None,
        solver_pool=solver_pool,
        store=store,
        bmc_kwargs=bmc_kwargs,
    )
    result = session.repair(
        max_edits=spec["max_edits"],
        max_candidates=spec["max_candidates"],
    )
    session.checkpoint()
    final_mismatches = sum(1 for o in session.outcomes if o.ok is False)
    return {
        "command": "repair",
        "scenario": bundle.name,
        "fault": {
            "name": fault.name,
            "description": fault.description,
            "deltas": [fault.fault.describe()],
        },
        "seed": spec["seed"],
        **result.to_json(),
        "final_audit": {
            "n_checks": len(session.outcomes),
            "mismatches": final_mismatches,
        },
    }


def run_blame(
    spec: dict,
    cache: Optional[ResultCache] = None,
    solver_pool: Optional[SolverPool] = None,
    store: Optional[VerdictStore] = None,
    bundle=None,
) -> dict:
    """Blame every check's verdict on named configuration units.

    Blame probes are **cold by construction** — the warm shard state
    (``cache``/``solver_pool``/``store``) is deliberately ignored, which
    is what makes in-process and server-mediated blame byte-identical.
    ``spec["fault"]`` injects a labeled fault and the payload then also
    carries the clean-vs-faulted ``delta`` (fault localization);
    ``spec["misconfig"]`` likewise diffs against the well-configured
    baseline.  ``spec["only"]`` restricts probing to checks mentioning
    the given node names; ``bundle``, the spec's scenario if the
    caller already built it.
    """
    from ..provenance import blame_bundle, blame_delta

    spec = normalize_spec(spec)
    only = spec["only"]
    use_slicing = not spec["no_slicing"]
    baseline = None
    if spec["fault"]:
        from ..scenarios.faults import build_fault

        try:
            fault = build_fault(
                spec["scenario"], spec["fault"], spec["size"], spec["seed"]
            )
        except (KeyError, ScenarioError) as err:
            raise BadRequest(str(err.args[0] if err.args else err)) from err
        bundle = fault.bundle
        baseline = _bundle_for({**spec, "misconfig": False})
        fault_info = {
            "name": fault.name,
            "description": fault.description,
            "deltas": [fault.fault.describe()],
        }
    else:
        bundle = bundle or _bundle_for(spec)
        fault_info = None
        if spec["misconfig"]:
            baseline = _bundle_for({**spec, "misconfig": False})

    started = time.perf_counter()
    payload = blame_bundle(bundle, only=only, use_slicing=use_slicing)
    payload.update(
        command="blame",
        seed=spec["seed"],
        elapsed_seconds=round(time.perf_counter() - started, 3),
    )
    if fault_info is not None:
        payload["fault"] = fault_info
    if baseline is not None:
        clean = blame_bundle(baseline, only=only, use_slicing=use_slicing)
        payload["delta"] = blame_delta(clean, payload)
    return payload


def run_history(
    spec: dict,
    cache: Optional[ResultCache] = None,
    solver_pool: Optional[SolverPool] = None,
    store: Optional[VerdictStore] = None,
) -> dict:
    """Render the store's per-invariant verdict timelines.

    Reads the drift history :class:`repro.incremental.IncrementalSession`
    appends on every verdict flip or network change.  ``spec["label"]``
    filters timelines by case-insensitive substring of the check label.
    """
    spec = normalize_spec(spec)
    if store is None:
        raise BadRequest(
            "history needs a persistent store "
            "(--store-dir, or a daemon started with one)"
        )
    wanted = (spec["label"] or "").lower()
    timelines = []
    for key in sorted(store.history):
        entries = store.history_for(key)
        if not entries:
            continue
        label = next(
            (e["label"] for e in reversed(entries) if e.get("label")), ""
        )
        if wanted and wanted not in label.lower():
            continue
        timelines.append({
            "key": hashlib.sha256(key.encode("utf-8")).hexdigest()[:16],
            "label": label,
            "n_entries": len(entries),
            "current": entries[-1].get("status"),
            "flips": sum(
                1
                for prev, cur in zip(entries, entries[1:])
                if prev.get("status") != cur.get("status")
            ),
            "entries": entries,
        })
    return {
        "command": "history",
        "scenario": spec["scenario"],
        "seed": spec["seed"],
        "store": store.path,
        "n_invariants": len(timelines),
        "timelines": timelines,
    }


#: command -> runner; what every execution path dispatches through.
RUNNERS = {
    "audit": run_audit,
    "prove": run_audit,
    "watch": run_watch,
    "repair": run_repair,
    "blame": run_blame,
    "history": run_history,
}


def payload_exit_code(payload: dict) -> int:
    """The process exit code a payload implies, shared by the local and
    server-mediated paths: 0 all clean, 1 when any invariant is
    violated or any verdict mismatches its expectation (``watch``
    judges the stream's *final* version; earlier churn may transiently
    violate and heal).  Transport/usage errors exit 2 before a payload
    exists, so they never reach here."""
    command = payload.get("command")
    if command in ("audit", "prove"):
        if payload.get("mismatches") or payload.get("violated"):
            return 1
        if any(row["status"] == VIOLATED for row in payload.get("checks", ())):
            return 1
        return 0
    if command == "watch":
        versions = payload.get("versions") or []
        last = versions[-1] if versions else payload.get("baseline") or {}
        if last.get("drift"):
            return 1
        if any(s == VIOLATED for s in last.get("checks", {}).values()):
            return 1
        return 0
    if command == "repair":
        ok = payload.get("ok") and not payload.get("final_audit", {}).get(
            "mismatches"
        )
        return 0 if ok else 1
    # blame/history are diagnosis commands: explaining a violation is a
    # success, so they exit 0 whenever a payload exists at all.
    return 0


# ----------------------------------------------------------------------
# The resident service
# ----------------------------------------------------------------------
@dataclass
class _Shard:
    """Warm verification state for one exact network version — what
    a request *executes* against; nothing of a prepared audit is here."""

    scenario: str
    cache: ResultCache
    pool: SolverPool
    store: Optional[VerdictStore]
    digest: str = ""
    lock: threading.Lock = field(default_factory=threading.Lock)
    created: float = field(default_factory=time.time)
    last_used: float = field(default_factory=time.time)
    last_checkpoint: Optional[float] = None
    requests: int = 0

    def stats(self) -> dict:
        lookups = self.cache.hits + self.cache.misses
        row = {
            "scenario": self.scenario,
            "requests": self.requests,
            "cache_entries": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_hit_rate": (
                round(self.cache.hits / lookups, 4) if lookups else None
            ),
            "cache_evictions": self.cache.evictions,
            "warm_solvers": len(self.pool),
            "solver_leases": {
                "hit": self.pool.hits,
                "shared": self.pool.shared,
                "miss": self.pool.misses,
            },
            "uptime_seconds": round(time.time() - self.created, 1),
            "idle_seconds": round(time.time() - self.last_used, 1),
            "checkpoint_age_seconds": (
                round(time.time() - self.last_checkpoint, 1)
                if self.last_checkpoint is not None else None
            ),
        }
        if self.store is not None:
            row["store"] = self.store.stats()
        return row


class VerificationService:
    """Sharded warm verification state behind an admission gate, plus
    a memo of prepared audits (:meth:`_prepared_for`) so that a repeated
    ``audit`` / ``prove`` request pays for execution only."""

    def __init__(
        self,
        store_dir: Optional[str] = None,
        cache_entries: int = 4096,
        max_shards: int = 8,
        max_inflight: int = 2,
        queue_depth: int = 16,
        trace_requests: bool = True,
        slow_trace_seconds: float = 5.0,
        soft_deadline_seconds: float = 60.0,
        recorder_capacity: int = 256,
        max_retained_traces: int = 16,
        logger=None,
        watchdog_interval: Optional[float] = None,
        log_max_bytes: int = 4 << 20,
    ):
        self.store_dir = store_dir
        self.cache_entries = cache_entries
        self.max_shards = max_shards
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.trace_requests = trace_requests
        self.soft_deadline_seconds = soft_deadline_seconds
        self.log = logger if logger is not None else NULL_LOGGER
        self.started = time.time()
        self.requests = 0
        self.rejected = 0
        self.errors = 0
        self.stalls = 0
        self._shards: "OrderedDict[str, _Shard]" = OrderedDict()
        #: canonical JSON of a normalised audit/prove spec -> prepared half
        self._prepared: "OrderedDict[str, PreparedAudit]" = OrderedDict()
        self._prepared_counts = {"hits": 0, "misses": 0}
        self._prepare_lock = threading.Lock()
        self._lock = threading.Lock()
        self._waiting = 0
        self._slots = threading.Semaphore(max_inflight)
        if store_dir is not None:
            os.makedirs(store_dir, exist_ok=True)
        # Request ids are server-generated: a per-boot nonce plus a
        # monotone sequence, so ids from a restarted daemon never
        # collide with retained traces of the previous one.
        self._boot = os.urandom(2).hex()
        self._req_seq = itertools.count(1)
        self._inflight: Dict[str, dict] = {}
        self.recorder = FlightRecorder(
            capacity=recorder_capacity,
            jsonl_path=(
                os.path.join(store_dir, "requests.jsonl")
                if store_dir else None
            ),
            trace_dir=(
                os.path.join(store_dir, "traces") if store_dir else None
            ),
            slow_seconds=slow_trace_seconds,
            max_retained_traces=max_retained_traces,
            max_bytes=log_max_bytes,
        )
        self._stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if soft_deadline_seconds and watchdog_interval != 0:
            if watchdog_interval is None:
                watchdog_interval = min(
                    max(soft_deadline_seconds / 4.0, 0.05), 1.0
                )
            self._watchdog = threading.Thread(
                target=self._watch_loop, args=(watchdog_interval,),
                name="repro-serve-watchdog", daemon=True,
            )
            self._watchdog.start()

    # -- sharding ------------------------------------------------------
    def _store_path(self, key: str) -> Optional[str]:
        if self.store_dir is None:
            return None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        return os.path.join(self.store_dir, f"shard-{digest}.store")

    def shard_for(self, key: str, scenario: str) -> _Shard:
        """The shard of the network with :func:`network_fingerprint`
        ``key`` (created as ``scenario`` — and its persisted store loaded —
        on first use; LRU-evicted past ``max_shards``, checkpointing)."""
        created = None
        with self._lock:
            shard = self._shards.get(key)
            if shard is None:
                store = None
                path = self._store_path(key)
                if path is not None:
                    store = VerdictStore.open(path)
                shard = _Shard(
                    scenario=scenario,
                    cache=ResultCache(max_entries=self.cache_entries),
                    pool=SolverPool(),
                    store=store,
                    digest=hashlib.sha256(
                        key.encode("utf-8")
                    ).hexdigest()[:12],
                )
                if store is not None:
                    store.preload_cache(shard.cache)
                self._shards[key] = shard
                created = shard
            self._shards.move_to_end(key)
            evicted = []
            while len(self._shards) > self.max_shards:
                _, old = self._shards.popitem(last=False)
                evicted.append(old)
        log = self._log()
        if created is not None:
            log.info(
                "shard-created", shard=created.digest,
                scenario=created.scenario,
                persisted=created.store is not None,
                preloaded=len(created.cache),
            )
        for old in evicted:
            with old.lock:  # let an in-flight request finish first
                self._checkpoint_shard(old)
            log.info(
                "shard-evicted", shard=old.digest, scenario=old.scenario,
                requests=old.requests,
            )
        return shard

    def _memo(self, key: str, built=None) -> Optional[PreparedAudit]:
        with self._lock:
            prepared = built or self._prepared.get(key)
            if prepared is not None:
                self._prepared[key] = prepared
                self._prepared.move_to_end(key)
                self._prepared_counts["misses" if built else "hits"] += 1
            if built:
                # An entry weighs what its jobs do (8-36 KB each at sizes
                # 2-64): keep as many as one shard may cache verdicts.
                jobs = sum(len(p.jobs) for p in self._prepared.values())
                while jobs > self.cache_entries and len(self._prepared) > 1:
                    jobs -= len(self._prepared.popitem(last=False)[1].jobs)
            return prepared

    def _prepared_for(self, spec: dict) -> PreparedAudit:
        """The memoised :func:`prepare_audit` of a normalised spec.
        Misses are serialised and re-check the memo — one build per
        spec, whichever thread asks first; a hit only takes ``_lock``."""
        key = json.dumps(_audit_spec(spec), sort_keys=True)
        with obs.get_tracer().span("prepare", cat="serve") as span:
            prepared, outcome = self._memo(key), "hit"
            if prepared is None:
                with self._prepare_lock:
                    prepared = self._memo(key)
                    if prepared is None:
                        outcome = "miss"
                        prepared = self._memo(key, prepare_audit(spec))
            span.tag(outcome=outcome)
        obs.get_registry().counter(
            "repro_serve_prepared_total",
            "audit/prove requests by whether their prepared half was kept",
        ).inc(outcome=outcome)
        return prepared

    def _checkpoint_shard(self, shard: _Shard) -> None:
        if shard.store is not None:
            shard.store.absorb_cache(shard.cache)
            shard.store.flush()
            shard.last_checkpoint = time.time()
            self._log().debug(
                "store-checkpoint", shard=shard.digest,
                entries=len(shard.cache),
            )

    def _log(self):
        """The active event logger: the request-scoped one when a
        request is being served on this thread, else the service's."""
        scoped = obs.get_logger()
        return scoped if scoped.enabled else self.log

    # -- admission -----------------------------------------------------
    def _admit(self, log=None) -> None:
        with self._lock:
            if self._waiting >= self.queue_depth:
                self.rejected += 1
                (log or self.log).warning(
                    "admission-rejected", waiting=self._waiting,
                    queue_depth=self.queue_depth,
                    max_inflight=self.max_inflight,
                )
                raise ServiceBusy(
                    f"admission queue full ({self.queue_depth} waiting)"
                )
            self._waiting += 1
        self._slots.acquire()
        with self._lock:
            self._waiting -= 1

    def _release(self) -> None:
        self._slots.release()

    # -- request handling ----------------------------------------------
    def _new_request_id(self) -> str:
        return f"r{self._boot}-{next(self._req_seq):06d}"

    def handle(self, spec: dict) -> dict:
        """Serve one request spec; returns the response envelope
        ``{"protocol", "request_id", "payload", "exit_code"}``.  Raises
        :class:`BadRequest` / :class:`ServiceBusy` for the transport to
        map onto status codes.

        Each admitted request runs under its own bounded-lifetime
        :class:`~repro.obs.trace.Tracer` and a logger bound to the
        server-generated request id, installed thread-locally via
        :func:`repro.obs.request_scope` — concurrent requests never
        share a span tree, and the daemon's global tracer stays inert,
        so span memory cannot grow with uptime."""
        spec = normalize_spec(spec)
        runner = RUNNERS[spec["command"]]
        registry = obs.get_registry()
        request_id = self._new_request_id()
        tracer = (
            Tracer(meta={"request_id": request_id,
                         "command": spec["command"],
                         "scenario": spec["scenario"]})
            if self.trace_requests else NULL_TRACER
        )
        base = self.log if self.log.enabled else obs.get_logger()
        log = base.bind(request_id=request_id)
        self._admit(log)
        started = time.perf_counter()
        info = {
            "request_id": request_id,
            "command": spec["command"],
            "scenario": spec["scenario"],
            "started": started,
            "wall_started": time.time(),
            "shard": None,
            "stalled": False,
        }
        with self._lock:
            self._inflight[request_id] = info
        payload = None
        error: Optional[BaseException] = None
        try:
            with obs.request_scope(tracer=tracer, logger=log):
                with tracer.span(
                    spec["command"], cat="serve",
                    request_id=request_id, scenario=spec["scenario"],
                ) as span:
                    if runner is run_audit:
                        prepared = self._prepared_for(spec)
                        bundle, key = prepared.bundle, prepared.network
                    else:
                        # Private to this request: a session mutates it.
                        prepared, bundle = None, _bundle_for(spec)
                        key = network_fingerprint(
                            bundle.topology, bundle.steering)
                    shard = self.shard_for(key, bundle.name)
                    info["shard"] = shard.digest
                    span.tag(shard=shard.digest)
                    extra = ({"prepared": prepared} if prepared
                             else {"store": shard.store})
                    if runner in (run_watch, run_blame):
                        extra["bundle"] = bundle
                    with shard.lock:
                        shard.requests += 1
                        shard.last_used = time.time()
                        payload = runner(
                            spec, cache=shard.cache, solver_pool=shard.pool,
                            **extra,
                        )
                        self._checkpoint_shard(shard)
            with self._lock:
                self.requests += 1
            if registry.enabled:
                registry.counter(
                    "repro_serve_requests_total",
                    "requests served by the resident verification service",
                ).inc(command=spec["command"])
                registry.histogram(
                    "repro_serve_request_seconds",
                    "request service time",
                ).observe(time.perf_counter() - started,
                          command=spec["command"])
                registry.gauge(
                    "repro_serve_shards", "resident warm shards"
                ).set(len(self._shards))
            return {
                "protocol": PROTOCOL,
                "request_id": request_id,
                "payload": payload,
                "exit_code": payload_exit_code(payload),
            }
        except (BadRequest, ServiceBusy) as err:
            error = err
            raise
        except Exception as err:
            with self._lock:
                self.errors += 1
            error = err
            raise
        finally:
            with self._lock:
                self._inflight.pop(request_id, None)
            self._release()
            seconds = time.perf_counter() - started
            summary = {
                "request_id": request_id,
                "command": spec["command"],
                "scenario": spec["scenario"],
                "seed": spec["seed"],
                "shard": info["shard"],
                "seconds": round(seconds, 4),
                "stalled": info["stalled"],
                "ts": round(info["wall_started"], 6),
            }
            if payload is not None:
                summary.update(summarize_payload(payload))
                summary["exit_code"] = payload_exit_code(payload)
            else:
                summary["error"] = f"{type(error).__name__}: {error}"
                summary["exit_code"] = 2
            summary = self.recorder.record(summary, tracer)
            if error is None:
                log.info(
                    "request", command=spec["command"],
                    scenario=spec["scenario"], shard=info["shard"],
                    seconds=summary["seconds"],
                    exit_code=summary["exit_code"],
                    slow=summary["slow"],
                )
            else:
                log.error(
                    "request-failed", command=spec["command"],
                    scenario=spec["scenario"], shard=info["shard"],
                    seconds=summary["seconds"], error=summary["error"],
                )

    # -- watchdog ------------------------------------------------------
    def _watch_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self.check_stalls()

    def check_stalls(self, now: Optional[float] = None) -> List[dict]:
        """Flag in-flight requests past the soft deadline (once each):
        a ``request-stall`` warning event plus the
        ``repro_serve_slow_requests_total`` counter.  The background
        watchdog thread calls this periodically; tests call it directly
        with a synthetic ``now``."""
        if not self.soft_deadline_seconds:
            return []
        if now is None:
            now = time.perf_counter()
        stalled = []
        with self._lock:
            for info in self._inflight.values():
                age = now - info["started"]
                if not info["stalled"] and age >= self.soft_deadline_seconds:
                    info["stalled"] = True
                    self.stalls += 1
                    stalled.append(dict(info, seconds=round(age, 3)))
        registry = obs.get_registry()
        for info in stalled:
            self.log.warning(
                "request-stall", request_id=info["request_id"],
                command=info["command"], scenario=info["scenario"],
                shard=info["shard"], seconds=info["seconds"],
                soft_deadline_seconds=self.soft_deadline_seconds,
            )
            if registry.enabled:
                registry.counter(
                    "repro_serve_slow_requests_total",
                    "requests that exceeded the soft deadline",
                ).inc(command=info["command"])
        return stalled

    def inflight(self) -> List[dict]:
        """Currently-executing requests, oldest first."""
        now = time.perf_counter()
        with self._lock:
            rows = [
                {
                    "request_id": info["request_id"],
                    "command": info["command"],
                    "scenario": info["scenario"],
                    "shard": info["shard"],
                    "seconds": round(now - info["started"], 3),
                    "stalled": info["stalled"],
                }
                for info in self._inflight.values()
            ]
        rows.sort(key=lambda r: -r["seconds"])
        return rows

    # -- lifecycle -----------------------------------------------------
    def checkpoint(self) -> List[dict]:
        """Flush every shard's store; returns their stats."""
        with self._lock:
            shards = list(self._shards.values())
        out = []
        for shard in shards:
            with shard.lock:
                self._checkpoint_shard(shard)
                out.append(shard.stats())
        return out

    def status(self) -> dict:
        with self._lock:
            # Fingerprints share a long repr prefix; key the report by
            # digest so distinct shards never collapse into one row.
            shards = {s.digest: s.stats() for s in self._shards.values()}
            status = {
                "protocol": PROTOCOL,
                "pid": os.getpid(),
                "uptime_seconds": round(time.time() - self.started, 1),
                "requests": self.requests,
                "rejected": self.rejected,
                "errors": self.errors,
                "stalls": self.stalls,
                "waiting": self._waiting,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "trace_requests": self.trace_requests,
                "soft_deadline_seconds": self.soft_deadline_seconds,
                "store_dir": self.store_dir,
                "shards": shards,
                "prepared": {"entries": len(self._prepared),
                             **self._prepared_counts},
            }
        status["inflight"] = self.inflight()
        status["recorder"] = self.recorder.stats()
        return status

    def close(self) -> None:
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)
            self._watchdog = None
        self.checkpoint()
        self.recorder.close()
