"""Observability overhead gate: tracing must be (nearly) free when off.

Two budgets, gated as CI booleans (keys ending in ``_valid`` so
``compare_bench.py`` fails any true→false transition against the
committed baseline):

* **disabled ≤ 2%** — every instrumentation site pays one module-global
  read plus a no-op context manager when observability is off.  A
  direct A/B of sub-second audits cannot resolve 2% through scheduler
  noise, so the gate is computed, not raced: microbenchmark the
  disabled site cost, count the sites an instrumented run actually
  hits (spans + instants recorded by an enabled run), and bound the
  overhead as ``site_hits × per_site_cost / workload_seconds``.
* **enabled ≤ 10%** — recording real spans must stay cheap enough to
  leave on in CI.  Measured as a best-of-N A/B over the enterprise
  audit workload (best-of filters scheduler noise; both sides get the
  same treatment).

The structured event log gets the same treatment over the *service*
workload (one cold :class:`VerificationService` audit request — the
path that actually emits events):

* **logging disabled ≤ 2%** — computed like the tracing gate:
  microbenchmark one :class:`NullLogger` event call, count the events
  an enabled run emits, bound the product against the workload.
* **logging enabled ≤ 10%** — best-of-N A/B of the service request
  with a file-backed :class:`EventLogger` plus request-scoped tracing
  versus with both off: the full resident-daemon instrumentation must
  stay affordable.

Provenance recording (:mod:`repro.provenance.record` — the record
stamped onto every verdict) gets the same two-sided treatment over the
audit workload:

* **provenance disabled ≤ 2%** — computed: one ``enabled()`` flag read
  per result attach site, times the number of results a run produces;
* **provenance enabled ≤ 10%** — best-of-N A/B of the audit workload
  with recording on versus off (each record is a small dict build plus
  at most two short sha256 digests per result).

Usage::

    python benchmarks/bench_obs_overhead.py --output BENCH_obs_overhead.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro import obs
from repro.core.engine import execute_jobs
from repro.obs.log import EventLogger
from repro.provenance import record as provenance
from repro.scenarios import enterprise

DISABLED_BUDGET = 0.02
ENABLED_BUDGET = 0.10
LOG_DISABLED_BUDGET = 0.02
LOG_ENABLED_BUDGET = 0.10
PROV_DISABLED_BUDGET = 0.02
PROV_ENABLED_BUDGET = 0.10


def run_workload(size: int) -> None:
    """One enterprise audit, built from scratch (no cross-run caches)."""
    bundle = enterprise(n_subnets=size)
    vmn = bundle.vmn()
    jobs = [
        vmn.job_for(check.invariant, index=i)
        for i, check in enumerate(bundle.checks)
    ]
    execute_jobs(jobs, cache=vmn.result_cache, solver_pool=vmn.solver_pool)


def best_of(n: int, fn) -> float:
    best = float("inf")
    for _ in range(n):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def best_of_pair(n: int, off, on) -> tuple:
    """Best-of-``n`` of an A/B pair with the rounds interleaved (off on
    off on ...).  On a shared host, contended stretches last seconds —
    longer than a whole sequential best-of block of this sub-second
    workload — so interleaving makes them tax both sides, not one."""
    best_off = best_on = float("inf")
    for _ in range(n):
        best_off = min(best_off, best_of(1, off))
        best_on = min(best_on, best_of(1, on))
    return best_off, best_on


def site_cost_seconds(iterations: int = 200_000) -> float:
    """Per-call cost of one *disabled* instrumentation site: the
    global read, the no-op span handle, and the with-block."""
    assert not obs.enabled()
    started = time.perf_counter()
    for _ in range(iterations):
        with obs.get_tracer().span("site", cat="bench", depth=3) as s:
            s.tag(result="sat")
    return (time.perf_counter() - started) / iterations


def count_site_hits(size: int) -> int:
    """How many instrumentation sites one workload run actually
    executes — every span and instant an enabled run records, plus the
    registry touches (bounded by the same span count)."""
    with obs.observe() as (tracer, registry):
        run_workload(size)
        # Each counter/histogram series write is one site; the span
        # count dominates, but count both to keep the bound honest.
        n_metric_writes = len(registry.snapshot())
    return len(tracer.records()) + n_metric_writes


def service_workload(size: int, logger=None, trace_requests=False) -> None:
    """One cold service-mediated audit request — the codepath that
    emits structured events (admission, shard create, checkpoint,
    request summary) and runs the request-scoped tracer."""
    from repro.serve.service import VerificationService

    service = VerificationService(
        trace_requests=trace_requests,
        soft_deadline_seconds=0,
        logger=logger,
    )
    try:
        service.handle(
            {"command": "audit", "scenario": "enterprise", "size": size}
        )
    finally:
        service.close()


def log_site_cost_seconds(iterations: int = 200_000) -> float:
    """Per-call cost of one *disabled* log site: the thread-local
    lookup plus the :class:`NullLogger` no-op."""
    assert not obs.get_logger().enabled
    started = time.perf_counter()
    for _ in range(iterations):
        obs.get_logger().info("bench-event", shard="abc", seconds=0.1)
    return (time.perf_counter() - started) / iterations


def count_log_events(size: int) -> int:
    """How many events one enabled service workload emits (counted at
    ``debug``, the most verbose tier, to keep the bound honest)."""
    logger, buffer = EventLogger.to_buffer(level="debug")
    service_workload(size, logger=logger)
    return sum(1 for line in buffer.getvalue().splitlines() if line)


def prov_site_cost_seconds(iterations: int = 200_000) -> float:
    """Per-call cost of one *disabled* provenance attach site: the
    module-global ``enabled()`` flag read that gates the record build."""
    assert not provenance.enabled()
    started = time.perf_counter()
    for _ in range(iterations):
        provenance.enabled()
    return (time.perf_counter() - started) / iterations


def run(size: int, rounds: int) -> dict:
    obs.disable()
    run_workload(size)  # untimed: fills the process-global intern tables

    def enabled_run():
        with obs.observe():
            run_workload(size)

    disabled_seconds, enabled_seconds = best_of_pair(
        rounds, lambda: run_workload(size), enabled_run
    )

    per_site = site_cost_seconds()
    site_hits = count_site_hits(size)
    disabled_overhead = per_site * site_hits / disabled_seconds
    enabled_overhead = enabled_seconds / disabled_seconds - 1

    # Logging bounds, over the service workload (the event-emitting path).
    with tempfile.TemporaryDirectory() as tmp:
        def log_on_run():
            logger = EventLogger(path=os.path.join(tmp, "events.jsonl"),
                                 level="info")
            try:
                service_workload(size, logger=logger, trace_requests=True)
            finally:
                logger.close()

        log_off_seconds, log_on_seconds = best_of_pair(
            rounds, lambda: service_workload(size), log_on_run
        )
    per_log_event = log_site_cost_seconds()
    log_events = count_log_events(size)
    log_disabled_overhead = per_log_event * log_events / log_off_seconds
    log_enabled_overhead = log_on_seconds / log_off_seconds - 1

    # Provenance bounds, over the audit workload (one attach per result).
    def prov_run(flag: bool):
        provenance.set_enabled(flag)
        run_workload(size)

    prov_prev = provenance.set_enabled(False)
    try:
        per_prov_site = prov_site_cost_seconds()
        prov_off_seconds, prov_on_seconds = best_of_pair(
            rounds, lambda: prov_run(False), lambda: prov_run(True)
        )
    finally:
        provenance.set_enabled(prov_prev)
    prov_records = len(enterprise(n_subnets=size).checks)
    prov_disabled_overhead = per_prov_site * prov_records / prov_off_seconds
    prov_enabled_overhead = prov_on_seconds / prov_off_seconds - 1

    return {
        "benchmark": "obs_overhead",
        "workload": f"enterprise(n_subnets={size}) audit",
        "rounds": rounds,
        "workload_seconds": round(disabled_seconds, 4),
        "enabled_workload_seconds": round(enabled_seconds, 4),
        "site_hits": site_hits,
        "per_site_nanos": round(per_site * 1e9, 1),
        "disabled_overhead_fraction": round(disabled_overhead, 5),
        "enabled_overhead_fraction": round(max(enabled_overhead, 0.0), 4),
        "service_workload_seconds": round(log_off_seconds, 4),
        "log_enabled_workload_seconds": round(log_on_seconds, 4),
        "log_events": log_events,
        "per_log_event_nanos": round(per_log_event * 1e9, 1),
        "log_disabled_overhead_fraction": round(log_disabled_overhead, 5),
        "log_enabled_overhead_fraction": round(
            max(log_enabled_overhead, 0.0), 4
        ),
        "prov_workload_seconds": round(prov_off_seconds, 4),
        "prov_enabled_workload_seconds": round(prov_on_seconds, 4),
        "prov_records": prov_records,
        "per_prov_site_nanos": round(per_prov_site * 1e9, 1),
        "prov_disabled_overhead_fraction": round(prov_disabled_overhead, 5),
        "prov_enabled_overhead_fraction": round(
            max(prov_enabled_overhead, 0.0), 4
        ),
        "budgets": {
            "disabled": DISABLED_BUDGET,
            "enabled": ENABLED_BUDGET,
            "log_disabled": LOG_DISABLED_BUDGET,
            "log_enabled": LOG_ENABLED_BUDGET,
            "prov_disabled": PROV_DISABLED_BUDGET,
            "prov_enabled": PROV_ENABLED_BUDGET,
        },
        "disabled_overhead_valid": disabled_overhead <= DISABLED_BUDGET,
        "enabled_overhead_valid": enabled_overhead <= ENABLED_BUDGET,
        "log_disabled_overhead_valid": (
            log_disabled_overhead <= LOG_DISABLED_BUDGET
        ),
        "log_enabled_overhead_valid": (
            log_enabled_overhead <= LOG_ENABLED_BUDGET
        ),
        "prov_disabled_overhead_valid": (
            prov_disabled_overhead <= PROV_DISABLED_BUDGET
        ),
        "prov_enabled_overhead_valid": (
            prov_enabled_overhead <= PROV_ENABLED_BUDGET
        ),
        "all_valid": (
            disabled_overhead <= DISABLED_BUDGET
            and enabled_overhead <= ENABLED_BUDGET
            and log_disabled_overhead <= LOG_DISABLED_BUDGET
            and log_enabled_overhead <= LOG_ENABLED_BUDGET
            and prov_disabled_overhead <= PROV_DISABLED_BUDGET
            and prov_enabled_overhead <= PROV_ENABLED_BUDGET
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=3,
                        help="enterprise subnets (default: 3)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved A/B repetitions, best-of (default: 5)")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    report = run(args.size, args.rounds)

    payload = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    print(
        f"tracing: disabled "
        f"{report['disabled_overhead_fraction'] * 100:.3f}% "
        f"(budget {DISABLED_BUDGET * 100:.0f}%), enabled "
        f"{report['enabled_overhead_fraction'] * 100:.1f}% "
        f"(budget {ENABLED_BUDGET * 100:.0f}%); logging: disabled "
        f"{report['log_disabled_overhead_fraction'] * 100:.3f}% "
        f"(budget {LOG_DISABLED_BUDGET * 100:.0f}%), enabled "
        f"{report['log_enabled_overhead_fraction'] * 100:.1f}% "
        f"(budget {LOG_ENABLED_BUDGET * 100:.0f}%); provenance: disabled "
        f"{report['prov_disabled_overhead_fraction'] * 100:.3f}% "
        f"(budget {PROV_DISABLED_BUDGET * 100:.0f}%), enabled "
        f"{report['prov_enabled_overhead_fraction'] * 100:.1f}% "
        f"(budget {PROV_ENABLED_BUDGET * 100:.0f}%): "
        f"{'ok' if report['all_valid'] else 'OVER BUDGET'}",
        file=sys.stderr,
    )
    return 0 if report["all_valid"] else 1


if __name__ == "__main__":
    sys.exit(main())
