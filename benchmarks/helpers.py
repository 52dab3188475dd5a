"""Shared benchmark plumbing.

Every benchmark reproduces one figure of the paper's §5.  Absolute
numbers differ from the paper (their solver is Z3's C++ core on a Xeon;
ours is a pure-Python CDCL, and parameter ranges are scaled down
accordingly — see EXPERIMENTS.md), but each figure's *shape* is the
claim under test: what is flat, what grows, and who wins.

Benchmarks run each verification once (``pedantic(rounds=1)``): a
verification is seconds-long and deterministic enough that averaging
adds nothing but wall-clock time.

Timing goes through :mod:`repro.obs` tracer spans rather than ad-hoc
``time.perf_counter()`` pairs: a driver wraps its run in
:func:`bench_observe`, measures sections with :func:`timed_span`, and
embeds the resulting cost breakdown in its ``BENCH_*.json`` via
:func:`attach_trace` (schema ``repro.trace/1`` — the same spans the
``repro`` CLI records with ``--trace``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro import obs
from repro.core import VMN
from repro.netmodel.bmc import (
    HOLDS,
    VIOLATED,
    IncrementalBMC,
    default_depth,
    encoding_key,
    lease,
)
from repro.smt import SAT


def run_once(benchmark, fn):
    """Benchmark ``fn`` with a single round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@contextmanager
def bench_observe(benchmark_name: str, **meta):
    """Scoped observability for one benchmark driver run.

    Yields ``(tracer, registry)``; every :func:`timed_span` below (and
    every instrumentation site in the stack) records into them.  When a
    driver is invoked with tracing already enabled (e.g. from a traced
    pytest session), the active pair is reused instead of replaced.
    """
    if obs.enabled():
        yield obs.get_tracer(), obs.get_registry()
        return
    with obs.observe(meta={"benchmark": benchmark_name, **meta}) as pair:
        yield pair


class SpanTimer:
    """Result box of :func:`timed_span`: ``.seconds`` after the block."""

    __slots__ = ("seconds",)

    def __init__(self):
        self.seconds = 0.0


@contextmanager
def timed_span(name: str, cat: str = "bench", **tags):
    """Time a block as a tracer span; yields a :class:`SpanTimer`.

    The reported seconds are the span's own monotonic duration when
    tracing is live, so the number printed in the benchmark report is
    byte-identical to the one recorded in the trace.  With tracing
    disabled the fallback is a plain ``perf_counter`` pair.
    """
    tracer = obs.get_tracer()
    handle = tracer.span(name, cat=cat, **tags)
    box = SpanTimer()
    started = time.perf_counter()
    with handle:
        yield box
    dur = getattr(handle, "dur", None)
    box.seconds = dur if dur is not None else time.perf_counter() - started


def span_summary(tracer, top: int = 15) -> dict:
    """Compact exclusive-time breakdown of a tracer's spans, shaped for
    embedding in a ``BENCH_*.json`` report.

    Keys deliberately avoid the ``*_seconds`` suffix so the committed
    baselines never gate on per-span timings (``compare_bench.py``
    treats only ``seconds``-suffixed leaves as timing metrics).
    """
    rows = obs.aggregate(tracer.records(), by="name")[:top]
    return {
        "schema": obs.SCHEMA,
        "spans": [
            {
                "span": row.key,
                "count": row.count,
                "total_s": round(row.total, 4),
                "excl_s": round(row.exclusive, 4),
            }
            for row in rows
        ],
    }


def attach_trace(report: dict, tracer, registry=None, path=None) -> dict:
    """Embed the span-schema summary in ``report`` and, when ``path``
    is given (a driver's ``--trace`` argument), write the full run
    record next to it."""
    report["trace"] = span_summary(tracer)
    if path:
        obs.write_run_record(path, tracer, registry,
                             meta=dict(getattr(tracer, "meta", {}) or {}))
    return report


def timed_verify_all(
    bundle,
    invariants=None,
    jobs=None,
    use_cache=False,
    use_symmetry=True,
    **vmn_kwargs,
):
    """Build a fresh VMN and time one ``verify_all`` batch.

    Returns ``(report, wall_seconds)``.  ``jobs``/``use_cache`` select
    the engine configuration under test; the defaults reproduce the
    seed's sequential, uncached path so old and new numbers stay
    comparable.
    """
    vmn = bundle.vmn(use_cache=use_cache, use_symmetry=use_symmetry, **vmn_kwargs)
    invariants = bundle.invariants if invariants is None else invariants
    with timed_span("verify-all-batch", jobs=jobs,
                    n_invariants=len(invariants)) as timer:
        report = vmn.verify_all(invariants, jobs=jobs)
    return report, timer.seconds


def warm_deepening(pool, net, invariant, params, canonical_trace=False):
    """Walk depths ``1..params["depth"]`` on the pool's warm driver for
    this encoding's shape, stopping at the first violation.

    Returns ``(status, depth, trace, seconds)``: the violating depth
    and its (optionally canonical) trace, or the full depth and
    ``None``; seconds include building the driver when the pool had
    none.
    """
    kwargs = {
        key: params[key]
        for key in ("n_packets", "failure_budget", "n_ports", "n_tags")
    }
    depth = params["depth"]
    started = time.perf_counter()
    held = lease(
        pool, encoding_key(net, kwargs), net, invariant, depth,
        lambda: IncrementalBMC(net, depth=depth, **kwargs),
    )
    driver, invariant = held.driver, held.invariant
    status, trace = HOLDS, None
    for k in range(1, depth + 1):
        if driver.check_at(invariant, k) == SAT:
            status, depth = VIOLATED, k
            trace = held.out(
                driver.canonical_trace(invariant, k, presolved=True)
                if canonical_trace else driver.decode()
            )
            break
    return status, depth, trace, time.perf_counter() - started


def slice_depth(vmn: VMN, invariant) -> int:
    """The unrolling depth the sliced problem would use.

    Whole-network baseline runs reuse this depth: only the middleboxes
    on the mentioned hosts' chains can ever forward their packets, so
    the slice-derived bound is sufficient for the whole network too and
    keeps the comparison about model size, exactly like the paper's.
    """
    sl = vmn.slice_for(invariant)
    n_packets = getattr(invariant, "n_packets_hint", 2)
    budget = getattr(invariant, "failure_budget", 0)
    return default_depth(sl.network, n_packets, budget)


def verdict_marker(result, expected: str) -> str:
    return "ok" if result.status == expected else f"UNEXPECTED({result.status})"
