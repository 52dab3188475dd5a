"""Command-line interface: audit the paper's scenarios from a shell.

::

    python -m repro list
    python -m repro audit enterprise --size 3
    python -m repro audit datacenter --size 3 --misconfig --seed 7
    python -m repro audit isp --size 3 --misconfig --show-traces
    python -m repro prove isp --size 3 --json
    python -m repro watch enterprise --deltas 10
    python -m repro blame enterprise --fault enterprise/deny-dropped
    python -m repro history enterprise --store-dir ~/.repro-store
    python -m repro audit enterprise --json > verdicts.json
    python -m repro audit enterprise --trace run.json --metrics
    python -m repro stats run.json --top 15
    python -m repro serve start --port 8642 --store-dir ~/.repro-store
    python -m repro audit enterprise --server :8642
    python -m repro top --server :8642
    python -m repro tail --server :8642 --follow

``audit`` builds the scenario (optionally with its §5.1/§5.2
misconfiguration injected), verifies every invariant in its check list,
and compares against the expected verdicts.  ``prove`` is ``audit``
with the unbounded proof portfolio (:mod:`repro.proof`): every check
runs BMC-for-bugs alongside k-induction and IC3/PDR, and each row
reports its guarantee strength.  ``watch`` replays a churn stream (a
generated sequence of network deltas) through an incremental
re-verification session and reports what each delta cost to absorb.
``blame`` explains verdicts — the minimal set of named configuration
units (deny rules, whitelist policies, steering paths) each
holds-verdict rests on, via an assumption-level unsat core over a
guarded encoding; with ``--fault``/``--misconfig`` it also diffs
against the clean baseline, localizing the injected fault.  ``history``
renders the per-invariant verdict timelines drift detection appends to
the persistent store.

**Exit codes** (audit / prove / watch / repair): ``0`` — every verdict
matches its expectation and nothing is violated; ``1`` — at least one
invariant is violated or a verdict mismatches its expectation (for
``watch``: judged on the churn stream's final version; for ``repair``:
no certified patch, or mismatches remain after it); ``2`` — usage or
transport errors (unknown scenario, unreachable ``--server``, bad
flags).  Scripts and CI can gate on the exit code alone.

Every verification command takes ``--json`` (machine-readable verdicts
and timings on stdout) and ``--server URL`` (execute on a resident
``repro serve`` daemon, reusing its warm caches, solvers, and persisted
certificate store — verdict-identical to running in-process, and
byte-identical under ``--stable-json``).  Without ``--server`` the
command runs in-process, exactly as before the daemon existed.

``audit``/``prove``/``watch``/``repair`` also take ``--stable-json``:
like ``--json`` but with wall-clock timings and warm-state-dependent
fields (cache-hit flags, solver-effort counters, proof-search
artifacts) stripped, making the output byte-reproducible for a fixed
``--seed`` across process invocations *and* across warm/cold execution
paths.

Every verification command also takes ``--trace OUT.json`` (record a
hierarchical span trace — the file loads directly in
``chrome://tracing``/Perfetto and doubles as the stable run record) and
``--metrics [OUT.prom]`` (dump the Prometheus-style metrics text; to
stderr when no path is given, so ``--json`` stdout stays clean).
``repro stats OUT.json`` renders the exclusive-time cost breakdown of
a recorded trace.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import contextmanager

# Module level imports only what every command needs: argparse, the
# telemetry package and the (stdlib-only) daemon client.  The
# verification stack — `repro.scenarios`, `repro.serve.service` and all
# they pull in — loads on the first *in-process* verification, so
# `list`/`stats`/`top`/`tail`/`serve status` and every `--server` run
# never pay for it (tests/test_cli.py holds that structurally).
from . import obs
from .serve.client import (
    DEFAULT_PORT,
    ServerError,
    normalize_url,
    recent_requests,
    request as _server_request,
    server_metrics,
    server_status,
    shutdown_server,
)

__all__ = ["main"]


class _UsageError(Exception):
    """The command cannot run as asked (bad spec, unknown scenario,
    unreachable daemon): ``main`` prints the text and returns 2."""


def _add_obs_flags(parser) -> None:
    """``--trace`` / ``--metrics`` on every verification subcommand."""
    parser.add_argument("--trace", default=None, metavar="OUT.json",
                        help="record a span trace + run record to OUT.json "
                             "(Chrome-trace compatible; see `repro stats`)")
    parser.add_argument("--metrics", nargs="?", const="-", default=None,
                        metavar="OUT.prom",
                        help="dump Prometheus-style metrics text (to stderr "
                             "when no path is given, keeping --json stdout "
                             "clean)")


def _add_server_flag(parser) -> None:
    parser.add_argument("--server", default=None, metavar="URL",
                        help="execute on a resident `repro serve` daemon "
                             "(e.g. http://127.0.0.1:8642 or just :8642), "
                             "reusing its warm caches and persisted store; "
                             "verdicts are identical to in-process runs and "
                             "--stable-json output is byte-identical. "
                             "An unreachable server is an error (exit 2), "
                             "never a silent cold fallback")


@contextmanager
def _observability(args):
    """Enable tracing/metrics around one CLI command when ``--trace`` or
    ``--metrics`` was given; write the outputs on exit.

    The root span is named after the command and opened *before* the
    scenario is built, so the recorded tree attributes (nearly) all of
    the command's wall time — ``repro stats`` reports the coverage.
    """
    trace_out = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics", None)
    if trace_out is None and metrics_out is None:
        yield
        return
    meta = {"command": args.command, "scenario": getattr(args, "scenario", None),
            "seed": getattr(args, "seed", None)}
    started = time.perf_counter()
    with obs.observe(meta=dict(meta)) as (tracer, registry):
        try:
            with tracer.span(args.command, cat="cli",
                             scenario=meta["scenario"]):
                yield
        finally:
            meta["wall_seconds"] = round(time.perf_counter() - started, 6)
            if trace_out is not None:
                obs.write_run_record(trace_out, tracer, registry, meta=meta)
            if metrics_out is not None:
                text = registry.to_prometheus()
                if metrics_out == "-":
                    sys.stderr.write(text)
                else:
                    with open(metrics_out, "w", encoding="utf-8") as fh:
                        fh.write(text)


def _cmd_stats(args) -> int:
    try:
        payload = obs.load_trace(args.trace)
    except (OSError, ValueError) as err:
        print(f"cannot load trace {args.trace!r}: {err}")
        return 2
    print(obs.render_stats(payload, top=args.top, by=args.by))
    return 0


#: What `repro list` prints: scenario -> (paper section, has a churn
#: stream).  A copy of the registry's names, so that listing them does
#: not import the scenarios; tests/test_cli.py holds it to
#: ``repro.scenarios.SCENARIOS`` and ``CHURN_GENERATORS``.
_SCENARIO_NOTES = {
    "datacenter": ("Fig 1, §5.1 Rules", False),
    "datacenter-redundancy": ("§5.1 Redundancy (primary firewall down)", False),
    "datacenter-traversal": ("§5.1 Traversal (IDPS bypass)", False),
    "datacenter-caches": ("§5.2 data isolation", False),
    "enterprise": ("Fig 6, §5.3.1", True),
    "multitenant": ("§5.3.2 EC2 security groups", True),
    "isp": ("Fig 9a, §5.3.3 scrubbing", False),
}


def _cmd_list(_args) -> int:
    print("available scenarios (paper section in parentheses):")
    for name, (note, watchable) in _SCENARIO_NOTES.items():
        churn = "  [watchable]" if watchable else ""
        print(f"  {name:24s} {note}{churn}")
    return 0


# ----------------------------------------------------------------------
# Request specs + dispatch (in-process or --server)
# ----------------------------------------------------------------------
def _spec_from_args(args, command: str) -> dict:
    """The request spec for one CLI invocation — the exact dict a
    ``--server`` run POSTs to the daemon, so both paths verify the
    same problem by construction."""
    return {
        "command": command,
        "scenario": args.scenario,
        "size": getattr(args, "size", None),
        "misconfig": getattr(args, "misconfig", False),
        "seed": args.seed,
        "no_slicing": getattr(args, "no_slicing", False),
        "no_cache": getattr(args, "no_cache", False),
        "jobs": getattr(args, "jobs", 1),
        "stable": getattr(args, "stable_json", False),
        "budget": getattr(args, "budget", None),
        "max_checks": getattr(args, "max_checks", None),
        "deltas": getattr(args, "deltas", 10),
        "prove": getattr(args, "prove", False),
        "fault": getattr(args, "fault", None),
        "max_edits": getattr(args, "max_edits", 3),
        "max_candidates": getattr(args, "max_candidates", 32),
        "only": getattr(args, "only", None),
        "label": getattr(args, "label", None),
    }


def _execute_spec(spec: dict, args, **state):
    """``(payload, exit code)`` for ``spec`` — from the daemon when
    ``--server`` was given, in-process otherwise (``state`` is warm
    state for the in-process runner: ``store=``).  The server returns
    the *full* payload (timings and all); any ``--stable-json``
    stripping happens here on the client, with the same code either
    way.  The exit code is ``payload_exit_code`` of the payload on both
    paths: the daemon computes it into the envelope."""
    server = getattr(args, "server", None)
    if server:
        try:
            envelope = _server_request(server, spec)
        except ServerError as err:
            raise _UsageError(str(err)) from err
        return envelope["payload"], envelope["exit_code"]
    from .serve import service

    try:
        payload = service.RUNNERS[spec["command"]](spec, **state)
    except service.BadRequest as err:
        raise _UsageError(str(err)) from err
    return payload, service.payload_exit_code(payload)


#: Keys dropped by ``--stable-json``: wall-clock fields, plus solver-
#: *internal* artifacts (clause counts of learned certificates, shrink
#: statistics, proof-engine identity) whose exact values depend on the
#: process's memory layout (term interning keys hash object ids, so
#: search tie-breaking varies run to run).
_UNSTABLE_KEYS = frozenset({
    "seconds", "solve_seconds", "elapsed_seconds", "encode_seconds",
    "timing",
    "summary", "minimized", "solver_checks", "engine",
    # Per-delta registry deltas include timing histograms and solver
    # effort counters — faithful, but not byte-stable across runs.
    "metrics",
})

#: Also dropped by ``--stable-json``: fields that depend on *warm
#: state* — whether a verdict came from the cache, how much solver
#: effort it took, whether a persisted certificate was revalidated.
#: A warm ``--server`` run and a cold in-process run legitimately
#: differ here while agreeing on every verdict; stripping them is what
#: upgrades the parity guarantee from "same verdicts" to "same bytes".
_WARM_STATE_KEYS = frozenset({
    "cached", "solver", "solver_totals",
    "cache_hits", "solver_runs", "certificates_reused",
    "certificate", "recheck_ok", "certificate_shrink", "note",
    # Provenance lineage says *where* a verdict came from (fresh vs
    # cache vs reused certificate) — the definition of warm state.  The
    # rest of a provenance record (fingerprint, config_hash, guarantee)
    # is identical warm or cold and stays.
    "lineage",
})

_STABLE_DROPPED = _UNSTABLE_KEYS | _WARM_STATE_KEYS


def _strip_unstable(payload):
    """A copy of a JSON payload with every unstable field removed."""
    if isinstance(payload, dict):
        return {
            k: _strip_unstable(v)
            for k, v in payload.items()
            if k not in _STABLE_DROPPED
        }
    if isinstance(payload, list):
        return [_strip_unstable(v) for v in payload]
    return payload


def _emit_json(payload, stable: bool) -> None:
    if stable:
        payload = _strip_unstable(payload)
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ----------------------------------------------------------------------
# Text renderers (consume the same payloads --json emits)
# ----------------------------------------------------------------------
def _render_audit_text(payload: dict, show_traces: bool, prove: bool) -> None:
    print(f"{payload['scenario']}: {payload['topology']}")
    print(f"policy equivalence classes: {payload['policy_classes']}")
    for row in payload["checks"]:
        where = (f"slice={row['slice_size']}" if row["slice_size"]
                 else "whole-net")
        cached = ", cached" if row["cached"] else ""
        strength = ""
        if prove:
            strength = (
                f" [{row['guarantee']}"
                + (f" via {row['engine']}" if row["engine"] else "")
                + "]"
            )
        expected = "" if row["ok"] else f"  EXPECTED {row['expected']}"
        print(f"  {row['label']:30s} {row['status']:9s}{strength} "
              f"({where}, {row['solve_seconds']:.2f}s{cached}){expected}")
        if show_traces and row["trace"] is not None:
            for line in row["trace"].splitlines()[1:]:
                print("     ", line)
    tail = ""
    if prove:
        guarantees = payload["guarantees"]
        tail = (f"; {guarantees['unbounded']} unbounded / "
                f"{guarantees['bounded']} bounded guarantees")
    print(f"{payload['n_checks']} invariants in "
          f"{payload['elapsed_seconds']:.1f}s; "
          f"{payload['mismatches']} unexpected verdicts{tail}")


def _render_watch_text(payload: dict) -> None:
    versions = payload["versions"]
    print(f"{payload['scenario']}: watching {len(versions)} deltas "
          f"over {payload['baseline']['n_checks']} checks")
    print("  " + payload["baseline"]["summary"])
    for row in versions:
        drift = f"; DRIFT: {len(row['drift'])}" if row["drift"] else ""
        print("  " + row["summary"] + drift)
    totals = payload["totals"]
    print(f"absorbed {totals['deltas']} deltas with "
          f"{totals['solver_runs']} solver runs "
          f"(vs {totals['full_audit_equivalent_checks']} checks across "
          f"full re-audits); {totals['cache_hits']} cache hits, "
          f"{totals['checks_carried']} verdicts carried, "
          f"{totals['seconds']}s total")


def _render_repair_text(payload: dict) -> None:
    fault = payload["fault"]
    print(f"{payload['scenario']}: {fault['description']}")
    print(f"  injected: {fault['deltas'][0]}")
    tried = payload["candidates"]["tried"]
    if payload["ok"]:
        summary = (f"repaired {len(payload['targets'])} check(s) with "
                   f"{len(payload['patch'])} edit(s) "
                   f"(cost {payload['patch_cost']}) "
                   f"after {tried} candidate(s)")
    else:
        summary = (f"no certified patch for {len(payload['targets'])} "
                   f"check(s) after {tried} candidate(s): {payload['note']}")
    print(f"  {summary}")
    for desc in payload["patch"] or ():
        print(f"    patch: {desc}")
    for label, row in payload["certificates"].items():
        print(f"    certified: {label} [{row['summary']}]")
    best = payload.get("best_effort")
    if best and not payload["ok"]:
        print(f"    best effort: {best['label']} "
              f"({best['mismatches']} mismatch(es) left)")
    final = payload["final_audit"]
    print(f"  {final['n_checks']} checks after repair; "
          f"{final['mismatches']} mismatches; "
          f"{tried} candidates screened in "
          f"{payload['timing']['seconds']:.1f}s")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_verify(args, command: str, render, **state) -> int:
    """audit / prove / watch / repair / blame / history: run the spec,
    print the payload as JSON or through ``render``."""
    payload, code = _execute_spec(_spec_from_args(args, command), args,
                                  **state)
    if args.json or args.stable_json:
        _emit_json(payload, args.stable_json)
    else:
        render(payload)
    return code


def _cmd_audit(args, prove: bool = False) -> int:
    def render(payload):
        _render_audit_text(payload, show_traces=args.show_traces, prove=prove)

    return _cmd_verify(args, "prove" if prove else "audit", render)


def _render_blame_text(payload: dict) -> None:
    print(f"{payload['scenario']}: blame over {payload['n_checks']} check(s)")
    fault = payload.get("fault")
    if fault:
        print(f"  injected fault: {fault['deltas'][0]}")
    for row in payload["checks"]:
        kind = row["kind"] or "inconclusive"
        print(f"  {row['label']:30s} {row['status']:9s} "
              f"[{kind}: {len(row['blame'])} unit(s), "
              f"{row['n_guards']} guards probed]")
        for entry in row["blame"]:
            print(f"      {entry}")
    delta = payload.get("delta")
    if delta is not None:
        if not delta:
            print("no blame drift vs the clean baseline")
            return
        print(f"blame drift vs the clean baseline ({len(delta)} check(s); "
              f"'-' = protection the fault removed):")
        for row in delta:
            flip = ""
            if row["status_clean"] != row["status_faulted"]:
                flip = f"  [{row['status_clean']} -> {row['status_faulted']}]"
            print(f"  {row['label']}{flip}")
            for entry in row["only_clean"]:
                print(f"      -{entry}")
            for entry in row["only_faulted"]:
                print(f"      +{entry}")


def _render_history_text(payload: dict) -> None:
    print(f"verdict history — {payload['store']} "
          f"({payload['n_invariants']} tracked invariant(s))")
    for timeline in payload["timelines"]:
        print(f"  {timeline['label'] or timeline['key']}: "
              f"current={timeline['current']} "
              f"entries={timeline['n_entries']} flips={timeline['flips']}")
        for entry in timeline["entries"]:
            lineage = entry.get("lineage") or "?"
            engine = entry.get("engine") or "?"
            print(f"      v{entry.get('version', '?'):<4} "
                  f"{entry.get('status', '?'):9s} "
                  f"network={entry.get('network', '?')}  "
                  f"{lineage}/{engine}")


def _history_store(args):
    """The store `repro history` reads in-process: the file named by
    ``--store``, or the shard file a daemon over ``--store-dir`` would
    use for the scenario's baseline network — same shard-path
    derivation as
    :meth:`repro.serve.service.VerificationService._store_path`."""
    from .store import VerdictStore

    if args.store:
        return VerdictStore.open(args.store)
    if not args.store_dir:
        raise _UsageError("history needs --store-dir DIR, --store FILE, "
                          "or --server URL (timelines live in the store)")
    import hashlib

    from .netmodel.canon import network_fingerprint
    from .scenarios import ScenarioError, build_scenario

    try:
        bundle = build_scenario(args.scenario, size=args.size,
                                misconfig=args.misconfig, seed=args.seed)
    except ScenarioError as err:
        raise _UsageError(str(err)) from err
    key = network_fingerprint(bundle.topology, bundle.steering)
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
    return VerdictStore.open(
        os.path.join(args.store_dir, f"shard-{digest}.store"))


def _cmd_history(args) -> int:
    state = {} if args.server else {"store": _history_store(args)}
    return _cmd_verify(args, "history", _render_history_text, **state)


def _cmd_serve(args) -> int:
    if args.serve_command == "start":
        from .serve.server import run_server

        return run_server(
            host=args.host,
            port=args.port,
            store_dir=args.store_dir,
            cache_entries=args.cache_entries,
            max_shards=args.max_shards,
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            quiet=args.quiet,
            trace_requests=not args.no_request_traces,
            slow_trace_seconds=args.slow_trace,
            soft_deadline_seconds=args.soft_deadline,
            recorder_capacity=args.recorder_capacity,
            max_retained_traces=args.retained_traces,
            log_file=args.log_file,
            log_max_bytes=args.log_max_bytes,
        )
    server = args.server or f"127.0.0.1:{DEFAULT_PORT}"
    try:
        if args.serve_command == "stop":
            shutdown_server(server)
            print(f"stopped {server}")
            return 0
        status = server_status(server)
    except ServerError as err:
        print(str(err))
        return 2
    json.dump(status, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# ----------------------------------------------------------------------
# Live introspection: `repro top` / `repro tail`
# ----------------------------------------------------------------------
def _parse_prom(text: str) -> dict:
    """Series name (labels included) -> value, from Prometheus text."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            name, value = line.rsplit(None, 1)
            series[name] = float(value)
        except ValueError:
            continue
    return series


_PROM_LATENCY = re.compile(
    r'^repro_serve_request_seconds_(?P<part>p50|p95|p99)'
    r'\{command="(?P<command>[^"]+)"\}$'
)


def _render_top(server: str, status: dict, prom: dict,
                prev_requests=None) -> None:
    requests = status.get("requests", 0)
    delta = "" if prev_requests is None else f" (+{requests - prev_requests})"
    inflight = status.get("inflight") or []
    print(f"repro top — {normalize_url(server)}  "
          f"uptime {status.get('uptime_seconds', 0):.0f}s  "
          f"pid {status.get('pid', '?')}")
    print(f"requests {requests}{delta}  errors {status.get('errors', 0)}  "
          f"rejected {status.get('rejected', 0)}  "
          f"stalls {status.get('stalls', 0)}  "
          f"inflight {len(inflight)}/{status.get('max_inflight', '?')}  "
          f"waiting {status.get('waiting', 0)}")
    recorder = status.get("recorder") or {}
    if recorder:
        print(f"flight recorder: {recorder.get('entries', 0)}"
              f"/{recorder.get('capacity', 0)} entries "
              f"({recorder.get('recorded', 0)} recorded), "
              f"{recorder.get('retained_traces', 0)} slow traces retained")
    latency = {}
    for key, value in prom.items():
        match = _PROM_LATENCY.match(key)
        if match is not None:
            latency.setdefault(match.group("command"), {})[
                match.group("part")] = value
    if latency:
        print("request seconds (bucket-estimated):")
        for command in sorted(latency):
            parts = latency[command]
            count = prom.get(
                f'repro_serve_request_seconds_count{{command="{command}"}}',
                0,
            )
            print(f"  {command:8s} n={int(count):<6d} "
                  f"p50 {parts.get('p50', 0.0):8.3f}s  "
                  f"p95 {parts.get('p95', 0.0):8.3f}s  "
                  f"p99 {parts.get('p99', 0.0):8.3f}s")
    shards = status.get("shards") or {}
    print(f"shards ({len(shards)} resident):")
    for digest, row in shards.items():
        rate = row.get("cache_hit_rate")
        rate_text = f"{rate:.1%}" if isinstance(rate, (int, float)) else "-"
        age = row.get("checkpoint_age_seconds")
        age_text = f"  ckpt {age:.0f}s ago" if age is not None else ""
        print(f"  {digest}  {row.get('scenario', '?'):16s} "
              f"requests {row.get('requests', 0):<5d} "
              f"hit-rate {rate_text:>6s}  "
              f"entries {row.get('cache_entries', 0)}{age_text}")
    for row in inflight:
        flag = "  STALLED" if row.get("stalled") else ""
        print(f"  running: {row.get('request_id')}  {row.get('command')} "
              f"{row.get('scenario')}  {row.get('seconds', 0.0):.1f}s{flag}")


def _cmd_top(args) -> int:
    server = args.server or f"127.0.0.1:{DEFAULT_PORT}"
    prev_requests = None
    iteration = 0
    try:
        while True:
            iteration += 1
            try:
                status = server_status(server)
                prom = _parse_prom(server_metrics(server))
            except ServerError as err:
                print(str(err))
                return 2
            if sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            _render_top(server, status, prom, prev_requests)
            prev_requests = status.get("requests", 0)
            if args.iterations and iteration >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _format_event_line(record: dict) -> str:
    ts = record.get("ts")
    when = (time.strftime("%H:%M:%S", time.localtime(ts))
            if isinstance(ts, (int, float)) else "--:--:--")
    extras = " ".join(
        f"{key}={record[key]}" for key in record
        if key not in ("ts", "level", "event")
    )
    return (f"{when} {record.get('level', '?'):7s} "
            f"{record.get('event', '?'):18s} {extras}").rstrip()


def _print_event(line: str) -> None:
    line = line.strip()
    if not line:
        return
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        print(line)
        return
    # The flight recorder's requests.jsonl holds request summaries, not
    # events — render those with the same line format `repro tail
    # --server` uses, so tailing either source reads the same.
    if "event" not in record and "request_id" in record:
        print(_format_request_line(record))
        return
    print(_format_event_line(record))


def _format_request_line(row: dict) -> str:
    ts = row.get("ts")
    when = (time.strftime("%H:%M:%S", time.localtime(ts))
            if isinstance(ts, (int, float)) else "--:--:--")
    base = (f"{when}  {row.get('request_id', '?'):16s} "
            f"{row.get('command', '?'):6s} "
            f"{row.get('scenario', '?'):16s} "
            f"{row.get('seconds', 0.0):8.3f}s  "
            f"exit {row.get('exit_code', '?')}")
    if row.get("error"):
        base += f"  ERROR {row['error']}"
    else:
        base += (f"  checks {row.get('checks', 0)} "
                 f"hits {row.get('cache_hits', 0)} "
                 f"solver {row.get('solver_runs', 0)}")
    if row.get("slow"):
        base += "  SLOW"
        if row.get("trace"):
            base += f" trace={row['trace']}"
    return base


def _tail_log(args) -> int:
    path = args.log
    try:
        # Size rotation moves the log to <path>.1; include the backup
        # in the initial window so `tail -n` spans a rotation boundary
        # instead of showing only the lines written since it.
        lines = []
        try:
            with open(path + ".1", encoding="utf-8") as fh:
                lines.extend(fh.readlines())
        except OSError:
            pass
        with open(path, encoding="utf-8") as fh:
            lines.extend(fh.readlines())
            offset = fh.tell()
        for line in lines[-args.lines:]:
            _print_event(line)
    except OSError as err:
        print(f"cannot read {path!r}: {err}")
        return 2
    if not args.follow:
        return 0
    try:
        while True:
            time.sleep(args.interval)
            try:
                if os.path.getsize(path) < offset:
                    offset = 0  # rotated underneath us — start over
                with open(path, encoding="utf-8") as fh:
                    fh.seek(offset)
                    for line in fh:
                        _print_event(line)
                    offset = fh.tell()
            except OSError:
                continue
    except KeyboardInterrupt:
        return 0


def _tail_server(args) -> int:
    server = args.server or f"127.0.0.1:{DEFAULT_PORT}"
    seen = set()
    try:
        while True:
            try:
                rows = recent_requests(server, n=args.lines)["requests"]
            except ServerError as err:
                print(str(err))
                return 2
            for row in reversed(rows):  # oldest first, like tail(1)
                request_id = row.get("request_id")
                if request_id in seen:
                    continue
                seen.add(request_id)
                print(_format_request_line(row), flush=True)
            if not args.follow:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_tail(args) -> int:
    if args.log and args.server:
        print("pass --log FILE or --server URL, not both")
        return 2
    if args.log:
        return _tail_log(args)
    return _tail_server(args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VMN reproduction — verify reachability in networks "
                    "with mutable datapaths",
        epilog="exit codes: 0 all verdicts as expected and none violated; "
               "1 violated invariants or unexpected verdicts; "
               "2 usage/transport errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available scenarios")

    audit = sub.add_parser("audit", help="verify a scenario's invariant set")
    audit.add_argument("scenario", help="scenario name (see `list`)")
    audit.add_argument("--size", type=int, default=None,
                       help="scenario size (groups/subnets/tenants)")
    audit.add_argument("--misconfig", action="store_true",
                       help="inject the scenario's misconfiguration")
    audit.add_argument("--seed", type=int, default=0,
                       help="seed for randomized injections")
    audit.add_argument("--no-slicing", action="store_true",
                       help="verify on the whole network (baseline)")
    audit.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="verify invariants on N worker processes "
                            "(0 = one per CPU; default: sequential)")
    audit.add_argument("--no-cache", action="store_true",
                       help="disable the structural result cache")
    audit.add_argument("--show-traces", action="store_true",
                       help="print counterexample schedules")
    audit.add_argument("--json", action="store_true",
                       help="emit structured verdicts/timings as JSON")
    audit.add_argument("--stable-json", action="store_true",
                       help="like --json but without wall-clock and "
                            "warm-state fields: byte-reproducible for a "
                            "fixed --seed, in-process or via --server")
    _add_server_flag(audit)
    _add_obs_flags(audit)

    prove = sub.add_parser(
        "prove",
        help="audit a scenario with the unbounded proof portfolio "
             "(k-induction + IC3 + BMC)",
    )
    prove.add_argument("scenario", help="scenario name (see `list`)")
    prove.add_argument("--size", type=int, default=None,
                       help="scenario size (groups/subnets/tenants)")
    prove.add_argument("--misconfig", action="store_true",
                       help="inject the scenario's misconfiguration")
    prove.add_argument("--seed", type=int, default=0,
                       help="seed for randomized injections")
    prove.add_argument("--no-slicing", action="store_true",
                       help="verify on the whole network (baseline)")
    prove.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="prove invariants on N worker processes "
                            "(0 = one per CPU; default: sequential)")
    prove.add_argument("--no-cache", action="store_true",
                       help="disable the structural result cache")
    prove.add_argument("--budget", type=int, default=None, metavar="CONFLICTS",
                       help="shared conflict budget per check across the "
                            "portfolio's engines (default: run to completion)")
    prove.add_argument("--max-checks", type=int, default=None, metavar="N",
                       help="cap the portfolio's solver queries per check "
                            "(induction queries are often conflict-free, so "
                            "this is the reliable wall-clock bound)")
    prove.add_argument("--show-traces", action="store_true",
                       help="print counterexample schedules")
    prove.add_argument("--json", action="store_true",
                       help="emit structured verdicts/guarantees as JSON")
    prove.add_argument("--stable-json", action="store_true",
                       help="like --json but without wall-clock and "
                            "warm-state fields: byte-reproducible for a "
                            "fixed --seed, in-process or via --server")
    _add_server_flag(prove)
    _add_obs_flags(prove)

    repair = sub.add_parser(
        "repair",
        help="synthesize a certified patch for an injected fault "
             "(counterexample-guided repair)",
    )
    repair.add_argument("scenario", help="scenario name (see `list`)")
    repair.add_argument("--fault", default=None, metavar="NAME",
                        help="fault label from scenarios/faults.py "
                             "(default: the scenario's first)")
    repair.add_argument("--size", type=int, default=None,
                        help="scenario size (groups/subnets/tenants)")
    repair.add_argument("--seed", type=int, default=0,
                        help="seed for the fault injection (pins the "
                             "victim host/rule; output is reproducible "
                             "per seed)")
    repair.add_argument("--budget", type=int, default=None,
                        metavar="CONFLICTS",
                        help="per-candidate screening conflict budget "
                             "(default: run each check to completion)")
    repair.add_argument("--max-edits", type=int, default=3, metavar="N",
                        help="edit budget per candidate patch "
                             "(rule entries + chain edits; default: 3)")
    repair.add_argument("--max-candidates", type=int, default=32,
                        metavar="N",
                        help="candidate patches to screen before giving "
                             "up (default: 32)")
    repair.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="screen invalidated checks on N workers "
                             "(0 = one per CPU; default: sequential)")
    repair.add_argument("--no-cache", action="store_true",
                        help="disable the warm structural result cache")
    repair.add_argument("--json", action="store_true",
                        help="emit the repair result as JSON "
                             "(schema in README)")
    repair.add_argument("--stable-json", action="store_true",
                        help="like --json but without wall-clock fields: "
                             "byte-reproducible for a fixed --seed")
    _add_server_flag(repair)
    _add_obs_flags(repair)

    watch = sub.add_parser(
        "watch",
        help="replay a churn stream through incremental re-verification",
    )
    watch.add_argument("scenario", help="scenario name (see `list`)")
    watch.add_argument("--size", type=int, default=None,
                       help="scenario size (groups/subnets/tenants)")
    watch.add_argument("--deltas", type=int, default=10, metavar="N",
                       help="number of churn deltas to replay (default: 10)")
    watch.add_argument("--seed", type=int, default=0,
                       help="seed for the churn stream")
    watch.add_argument("--prove", action="store_true",
                       help="keep tracked checks continuously *proven* "
                            "(portfolio mode): holds verdicts carry "
                            "certificates that later deltas — and, with a "
                            "server-side store, later processes — "
                            "revalidate instead of re-proving")
    watch.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="re-verify invalidated checks on N workers "
                            "(0 = one per CPU; default: sequential)")
    watch.add_argument("--no-cache", action="store_true",
                       help="disable the warm structural result cache")
    watch.add_argument("--json", action="store_true",
                       help="emit per-delta costs and verdicts as JSON")
    watch.add_argument("--stable-json", action="store_true",
                       help="like --json but without wall-clock fields: "
                            "byte-reproducible for a fixed --seed")
    _add_server_flag(watch)
    _add_obs_flags(watch)

    blame = sub.add_parser(
        "blame",
        help="explain verdicts: the minimal set of deny rules, "
             "whitelist policies, and steering paths each holds-verdict "
             "rests on (assumption-level unsat core), or the boxes a "
             "violation's canonical witness traversed",
    )
    blame.add_argument("scenario", help="scenario name (see `list`)")
    blame.add_argument("--size", type=int, default=None,
                       help="scenario size (groups/subnets/tenants)")
    blame.add_argument("--misconfig", action="store_true",
                       help="inject the scenario's misconfiguration and "
                            "also report the blame drift vs the clean "
                            "baseline")
    blame.add_argument("--fault", default=None, metavar="NAME",
                       help="inject a labeled fault from "
                            "scenarios/faults.py and also report the "
                            "blame drift vs the clean baseline "
                            "(fault localization)")
    blame.add_argument("--seed", type=int, default=0,
                       help="seed for randomized injections")
    blame.add_argument("--no-slicing", action="store_true",
                       help="probe on the whole network (baseline)")
    blame.add_argument("--only", action="append", default=None,
                       metavar="NODE",
                       help="probe only checks whose invariant mentions "
                            "NODE (repeatable)")
    blame.add_argument("--json", action="store_true",
                       help="emit blame sets (and the drift delta) as JSON")
    blame.add_argument("--stable-json", action="store_true",
                       help="like --json but without wall-clock fields: "
                            "blame output is byte-reproducible for a "
                            "fixed --seed, in-process or via --server")
    _add_server_flag(blame)
    _add_obs_flags(blame)

    history = sub.add_parser(
        "history",
        help="per-invariant verdict timelines recorded by drift "
             "detection (watch sessions over a persistent store)",
    )
    history.add_argument("scenario", help="scenario name (see `list`)")
    history.add_argument("--size", type=int, default=None,
                         help="scenario size (groups/subnets/tenants)")
    history.add_argument("--misconfig", action="store_true",
                         help="read the misconfigured variant's shard")
    history.add_argument("--seed", type=int, default=0,
                         help="seed the watched scenario was built with")
    history.add_argument("--label", default=None, metavar="TEXT",
                         help="only timelines whose check label contains "
                              "TEXT (case-insensitive)")
    history.add_argument("--store-dir", default=None, metavar="DIR",
                         help="the daemon's --store-dir; the scenario's "
                              "shard store is located inside it")
    history.add_argument("--store", default=None, metavar="FILE",
                         help="read one store file directly (as written "
                              "by an IncrementalSession checkpoint)")
    history.add_argument("--json", action="store_true",
                         help="emit timelines as JSON")
    history.add_argument("--stable-json", action="store_true",
                         help="like --json but with warm-state fields "
                              "(lineage/engine) stripped")
    _add_server_flag(history)

    stats = sub.add_parser(
        "stats",
        help="cost breakdown of a recorded trace (top spans by "
             "exclusive time)",
    )
    stats.add_argument("trace",
                       help="trace file written by --trace, or a retained "
                            "slow-request trace from the daemon "
                            "(<store>/traces/<request-id>.trace.json)")
    stats.add_argument("--top", type=int, default=20, metavar="K",
                       help="rows to show (default: 20)")
    stats.add_argument("--by", default="name", metavar="KEY",
                       help="aggregation key: name, cat, or tag:<key> "
                            "(default: name)")

    serve = sub.add_parser(
        "serve",
        help="resident verification daemon: warm caches, solvers, and a "
             "persistent certificate store shared across client runs",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    start = serve_sub.add_parser("start", help="run the daemon (foreground)")
    start.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    start.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"bind port; 0 = ephemeral, printed on stdout "
                            f"(default: {DEFAULT_PORT})")
    start.add_argument("--store-dir", default=None, metavar="DIR",
                       help="persist verdicts + proof certificates here "
                            "(one store file per network shard); omit to "
                            "keep warm state in memory only")
    start.add_argument("--cache-entries", type=int, default=4096, metavar="N",
                       help="per-shard result-cache LRU bound "
                            "(default: 4096)")
    start.add_argument("--max-shards", type=int, default=8, metavar="N",
                       help="resident network shards before LRU eviction "
                            "(default: 8)")
    start.add_argument("--max-inflight", type=int, default=2, metavar="N",
                       help="concurrent verification requests "
                            "(default: 2)")
    start.add_argument("--queue-depth", type=int, default=16, metavar="N",
                       help="waiting requests before the daemon answers "
                            "busy/503 (default: 16)")
    start.add_argument("--quiet", action="store_true",
                       help="raise the stderr event threshold to warning "
                            "(the JSONL event log still records access "
                            "events)")
    start.add_argument("--log-file", default=None, metavar="FILE",
                       help="structured JSONL event log (default: "
                            "<store-dir>/events.jsonl when --store-dir is "
                            "set, else stderr only)")
    start.add_argument("--log-max-bytes", type=int, default=4 << 20,
                       metavar="BYTES",
                       help="size-rotate the JSONL logs (events.jsonl and "
                            "the flight recorder's requests.jsonl) past "
                            "this many bytes, keeping one .1 backup "
                            "(default: 4 MiB)")
    start.add_argument("--slow-trace", type=float, default=5.0,
                       metavar="SECONDS",
                       help="retain the full span trace of requests slower "
                            "than this, served by /v1/requests/<id>/trace "
                            "(default: 5.0)")
    start.add_argument("--soft-deadline", type=float, default=60.0,
                       metavar="SECONDS",
                       help="watchdog flags in-flight requests older than "
                            "this: a request-stall event + the "
                            "repro_serve_slow_requests_total metric "
                            "(0 disables; default: 60)")
    start.add_argument("--recorder-capacity", type=int, default=256,
                       metavar="N",
                       help="flight-recorder ring size: recent request "
                            "summaries kept in memory for /v1/requests "
                            "(default: 256)")
    start.add_argument("--retained-traces", type=int, default=16, metavar="N",
                       help="slow-request traces kept on disk before the "
                            "oldest is deleted (default: 16)")
    start.add_argument("--no-request-traces", action="store_true",
                       help="disable per-request span tracing (slow "
                            "requests then retain no trace)")
    stop = serve_sub.add_parser("stop", help="checkpoint stores and stop")
    stop.add_argument("--server", default=None, metavar="URL",
                      help=f"daemon to stop (default: "
                           f"127.0.0.1:{DEFAULT_PORT})")
    status = serve_sub.add_parser("status",
                                  help="daemon + per-shard statistics")
    status.add_argument("--server", default=None, metavar="URL",
                        help=f"daemon to query (default: "
                             f"127.0.0.1:{DEFAULT_PORT})")

    top = sub.add_parser(
        "top",
        help="live daemon dashboard: requests, latency percentiles, "
             "shards, in-flight work (polls /status and /metrics)",
    )
    top.add_argument("--server", default=None, metavar="URL",
                     help=f"daemon to watch (default: "
                          f"127.0.0.1:{DEFAULT_PORT})")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="refresh period (default: 2.0)")
    top.add_argument("-n", "--iterations", type=int, default=0, metavar="N",
                     help="stop after N refreshes (default: run until "
                          "interrupted)")

    tail = sub.add_parser(
        "tail",
        help="follow the daemon's request history (/v1/requests) or a "
             "structured JSONL event log",
    )
    tail.add_argument("--server", default=None, metavar="URL",
                      help=f"daemon whose recent requests to print "
                           f"(default: 127.0.0.1:{DEFAULT_PORT})")
    tail.add_argument("--log", default=None, metavar="FILE",
                      help="read a JSONL event log file instead of asking "
                           "a daemon")
    tail.add_argument("-n", "--lines", type=int, default=20, metavar="N",
                      help="entries to print (default: 20)")
    tail.add_argument("-f", "--follow", action="store_true",
                      help="keep polling for new entries until interrupted")
    tail.add_argument("--interval", type=float, default=1.0,
                      metavar="SECONDS",
                      help="poll period with --follow (default: 1.0)")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "tail":
        return _cmd_tail(args)
    if getattr(args, "jobs", 0) < 0:
        parser.error("--jobs must be >= 0")
    try:
        with _observability(args):
            if args.command == "blame":
                return _cmd_verify(args, "blame", _render_blame_text)
            if args.command == "history":
                return _cmd_history(args)
            if args.command == "repair":
                return _cmd_verify(args, "repair", _render_repair_text)
            if args.command == "watch":
                return _cmd_verify(args, "watch", _render_watch_text)
            return _cmd_audit(args, prove=args.command == "prove")
    except _UsageError as err:
        print(str(err))
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
