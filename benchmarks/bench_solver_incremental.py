"""Warm incremental BMC vs the cold-restart path.

The claim under test: deepening one warm solver per network encoding —
assert the transition relation step by step, assume the property at
each depth, retain learned clauses — certifiably decides the same
verdicts as restarting a fresh solver (full re-encode, cold clause
database) at every depth, at a multi-x reduction in solver-seconds on
BMC-heavy checks.

Both paths walk the same deepening schedule ``1..D`` (stopping at the
first violation), so the comparison isolates exactly what the
incremental solver stack saves: re-encoding steps ``0..k-1`` at every
depth and re-learning the same conflict clauses from scratch.  Verdicts
(and the violating depth, when any) are asserted identical per check;
the emitted JSON carries the certification bit alongside the timings.

Usage::

    python benchmarks/bench_solver_incremental.py --size 2 \
        --output BENCH_solver_incremental.json
"""

from __future__ import annotations

import argparse
import json
import sys

from helpers import warm_deepening

from repro.core.engine import resolve_bmc_params
from repro.netmodel.bmc import VIOLATED, SolverPool, check
from repro.scenarios import datacenter, enterprise


def _enterprise(size: int):
    quarantined = [
        h.name
        for h in enterprise(n_subnets=size).topology.hosts
        if h.name.startswith("quar")
    ]
    return enterprise(n_subnets=size, deny_deleted_for=tuple(quarantined[:1]))


def _datacenter(size: int):
    return datacenter(n_groups=size, delete_rules=1, seed=0)


SCENARIOS = {"enterprise": _enterprise, "datacenter": _datacenter}


def _cold_deepening(net, invariant, params):
    """The cold-restart path: fresh encode + fresh solver per depth."""
    kwargs = {
        key: params[key]
        for key in ("n_packets", "failure_budget", "n_ports", "n_tags")
    }
    seconds = 0.0
    for k in range(1, params["depth"] + 1):
        result = check(net, invariant, depth=k, **kwargs)
        seconds += result.solve_seconds
        if result.status == VIOLATED:
            return result.status, k, seconds
    return result.status, params["depth"], seconds


def _warm_deepening(net, invariant, params, pool):
    """The incremental path: one warm solver, never re-encode a prefix."""
    status, found, _, seconds = warm_deepening(pool, net, invariant, params)
    return status, found, seconds


def run_scenario(name: str, size: int, max_checks: int, verbose: bool) -> dict:
    bundle = SCENARIOS[name](size)
    vmn = bundle.vmn()
    checks = list(bundle.checks)[:max_checks] if max_checks else list(bundle.checks)
    pool = SolverPool()
    rows = []
    cold_total = warm_total = 0.0
    identical = True
    for item in checks:
        net, _ = vmn.network_for(item.invariant)
        params = resolve_bmc_params(net, item.invariant, {})
        cold_status, cold_depth, cold_s = _cold_deepening(net, item.invariant, params)
        warm_status, warm_depth, warm_s = _warm_deepening(
            net, item.invariant, params, pool
        )
        same = (cold_status, cold_depth) == (warm_status, warm_depth)
        identical = identical and same
        cold_total += cold_s
        warm_total += warm_s
        rows.append({
            "label": item.label,
            "status": warm_status,
            "depth": warm_depth,
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "identical": same,
        })
        if verbose:
            print(f"  {item.label:30s} {warm_status:9s} depth={warm_depth:2d} "
                  f"cold={cold_s:6.2f}s warm={warm_s:6.2f}s "
                  f"{'ok' if same else 'MISMATCH'}")
    return {
        "size": size,
        "n_checks": len(rows),
        "checks": rows,
        "cold_seconds": round(cold_total, 3),
        "warm_seconds": round(warm_total, 3),
        "speedup": round(cold_total / warm_total, 2) if warm_total else None,
        "verdicts_identical": identical,
        "pool": {"warm_solvers": len(pool), "hits": pool.hits,
                 "misses": pool.misses},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=2,
                        help="scenario size (subnets/groups; default 2)")
    parser.add_argument("--max-checks", type=int, default=4, metavar="N",
                        help="cap checks per scenario (0 = all; default 4)")
    parser.add_argument("--scenarios", default="enterprise,datacenter",
                        help="comma-separated subset of: "
                             + ", ".join(sorted(SCENARIOS)))
    parser.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenarios: {unknown}")

    report = {"benchmark": "solver_incremental", "scenarios": {}}
    cold = warm = 0.0
    identical = True
    for name in names:
        print(f"{name} (size {args.size}):")
        result = run_scenario(name, args.size, args.max_checks, verbose=True)
        report["scenarios"][name] = result
        cold += result["cold_seconds"]
        warm += result["warm_seconds"]
        identical = identical and result["verdicts_identical"]
    report.update(
        total_cold_seconds=round(cold, 3),
        total_warm_seconds=round(warm, 3),
        speedup=round(cold / warm, 2) if warm else None,
        verdicts_identical=identical,
    )
    print(f"total: cold {cold:.2f}s vs warm {warm:.2f}s "
          f"-> {report['speedup']}x; verdicts identical: {identical}")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
