"""Arena SAT core vs the pre-rewrite (vendored) solver, certified.

The PR-6 rewrite replaced the object-graph CDCL loop with an
int-encoded clause arena (blocker literals, binary watch lists,
persistent analysis marks, inprocessing).  This benchmark drives the
*entire* verification stack — encoding, slicing, warm incremental BMC,
canonical traces — twice per scenario: once against the vendored
pre-rewrite solver (``benchmarks/_sat_reference.py``, byte-for-byte the
seed ``smt/sat.py``) and once against the current arena core, swapped
in by patching the single construction site in ``repro.smt.solver``.
The "current" solver is whatever ``repro.smt.sat`` exports: the C core
(``smt/satcore.c``) when a system compiler is available, the
pure-Python arena solver otherwise (``REPRO_SAT_NATIVE=0`` forces the
latter, e.g. to measure the Python twin in isolation).

Certification, per check:

* verdict and violating depth identical;
* canonical counterexample traces byte-identical (``canonical_trace``
  pins every trace field by assumption-driven lexicographic
  minimisation, so it depends only on the encoded problem — any
  divergence means the two solvers disagree about satisfiability of
  some pinning query);
* failed-assumption cores from both solvers are genuine cores on a
  bank of solver-level instances (subset of the assumptions, still
  unsat when re-asserted — checked with the *reference* solver).

The speedup gate (``--min-speedup``, default 3x) applies to the
enterprise + datacenter BMC workloads, per the tentpole target.

Usage::

    python benchmarks/bench_sat_core.py --output BENCH_sat_core.json
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import _sat_reference
from helpers import warm_deepening

import repro.smt.solver as solver_mod
from repro.core.engine import resolve_bmc_params
from repro.netmodel.bmc import SolverPool
from repro.scenarios import datacenter, enterprise
from repro.scenarios.faults import isp_chain_bypass, multitenant_sg_hole
from repro.smt.sat import SatSolver as ArenaSolver

GATED = ("enterprise", "datacenter")  # scenarios the speedup gate covers


def _enterprise(size: int):
    quarantined = [
        h.name
        for h in enterprise(n_subnets=size).topology.hosts
        if h.name.startswith("quar")
    ]
    return enterprise(n_subnets=size, deny_deleted_for=tuple(quarantined[:1]))


SCENARIOS = {
    "enterprise": lambda size: _enterprise(size),
    "datacenter": lambda size: datacenter(n_groups=size, delete_rules=1, seed=0),
    "multitenant": lambda size: multitenant_sg_hole(size=size).bundle,
    "isp": lambda size: isp_chain_bypass(size=max(size, 2)).bundle,
}


@contextmanager
def using_solver(cls):
    """Run the whole repro stack on a specific SatSolver implementation.

    ``repro.smt.solver.Solver`` is the only construction site, so
    swapping the name it resolves at call time swaps the core under
    everything built on top of it.
    """
    original = solver_mod.SatSolver
    solver_mod.SatSolver = cls
    try:
        yield
    finally:
        solver_mod.SatSolver = original


def _run_checks(bundle, max_checks: int):
    """Warm-deepening BMC over the bundle's checks with canonical traces.

    Returns per-check rows of (label, status, depth, trace text) plus
    total solver-seconds — everything the certification compares.
    """
    vmn = bundle.vmn()
    checks = list(bundle.checks)[:max_checks] if max_checks else list(bundle.checks)
    pool = SolverPool()
    rows = []
    seconds = 0.0
    for item in checks:
        net, _ = vmn.network_for(item.invariant)
        params = resolve_bmc_params(net, item.invariant, {})
        status, depth, trace, took = warm_deepening(
            pool, net, item.invariant, params, canonical_trace=True
        )
        seconds += took
        rows.append({
            "label": item.label,
            "status": status,
            "depth": depth,
            "trace": str(trace) if trace is not None else "",
        })
    return rows, seconds


# ----------------------------------------------------------------------
# Solver-level unsat-core certification
# ----------------------------------------------------------------------
def _core_instances():
    """Deterministic assumption-UNSAT instances exercising the core path.

    Each entry is ``(nvars, clauses, assumptions)`` with the formula
    satisfiable on its own but unsat under the assumptions, so a
    non-empty failed-assumption core must come back.
    """
    instances = []
    # Implication chain 1 -> 2 -> ... -> n, assume 1 and -n.
    for n in (4, 9):
        clauses = [[-v, v + 1] for v in range(1, n)]
        instances.append((n, clauses, [1, -n]))
    # Selector-guarded pigeonhole: assumptions switch the hole axioms on.
    holes, pigeons = 3, 4
    nv = 0
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            nv += 1
            var[p, h] = nv
    sels = []
    clauses = []
    for p in range(pigeons):
        nv += 1
        sels.append(nv)
        clauses.append([-nv] + [var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var[p1, h], -var[p2, h]])
    instances.append((nv, clauses, sels))
    # An irrelevant assumption rides along: it must not pollute cores.
    instances.append((3, [[-1, 2], [-2, -3]], [3, 1, 2]))
    return instances


def _solve_under(solver_cls, nvars, clauses, assumptions):
    s = solver_cls()
    for _ in range(nvars):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    status = s.solve(assumptions)
    return status, list(s.core)


def certify_cores(verbose: bool) -> dict:
    """Both solvers must return *valid* cores: a subset of the
    assumptions whose units alone (plus the formula) are unsat, judged
    by the reference implementation."""
    checked = 0
    valid = True
    for nvars, clauses, assumptions in _core_instances():
        for cls in (_sat_reference.SatSolver, ArenaSolver):
            status, core = _solve_under(cls, nvars, clauses, assumptions)
            ok = status == "unsat" and core and set(core) <= set(assumptions)
            if ok:
                recheck, _ = _solve_under(
                    _sat_reference.SatSolver,
                    nvars,
                    clauses + [[a] for a in core],
                    [],
                )
                ok = recheck == "unsat"
            valid = valid and bool(ok)
            checked += 1
            if verbose and not ok:
                print(f"  BAD CORE from {cls.__module__}: "
                      f"assumptions={assumptions} core={core}")
    if verbose:
        print(f"cores: {checked} checked, valid: {valid}")
    return {"instances_checked": checked, "all_valid": valid}


def run_scenario(name: str, size: int, max_checks: int, verbose: bool) -> dict:
    with using_solver(_sat_reference.SatSolver):
        ref_rows, ref_seconds = _run_checks(SCENARIOS[name](size), max_checks)
    with using_solver(ArenaSolver):
        new_rows, new_seconds = _run_checks(SCENARIOS[name](size), max_checks)

    verdicts_identical = True
    traces_identical = True
    rows = []
    for ref, new in zip(ref_rows, new_rows):
        same_verdict = (ref["status"], ref["depth"]) == (new["status"], new["depth"])
        same_trace = ref["trace"] == new["trace"]
        verdicts_identical = verdicts_identical and same_verdict
        traces_identical = traces_identical and same_trace
        rows.append({
            "label": new["label"],
            "status": new["status"],
            "depth": new["depth"],
            "verdict_identical": same_verdict,
            "trace_identical": same_trace,
        })
        if verbose:
            mark = "ok" if same_verdict and same_trace else "MISMATCH"
            print(f"  {new['label']:30s} {new['status']:9s} "
                  f"depth={new['depth']:2d} {mark}")
    speedup = round(ref_seconds / new_seconds, 2) if new_seconds else None
    if verbose:
        print(f"  reference {ref_seconds:.2f}s vs arena {new_seconds:.2f}s "
              f"-> {speedup}x")
    return {
        "size": size,
        "n_checks": len(rows),
        "checks": rows,
        "reference_seconds": round(ref_seconds, 3),
        "arena_seconds": round(new_seconds, 3),
        "speedup": speedup,
        "verdicts_identical": verdicts_identical,
        "traces_identical": traces_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=2,
                        help="scenario size (subnets/groups/tenants; default 2)")
    parser.add_argument("--max-checks", type=int, default=4, metavar="N",
                        help="cap checks per scenario (0 = all; default 4)")
    parser.add_argument("--scenarios", default=",".join(SCENARIOS),
                        help="comma-separated subset of: "
                             + ", ".join(SCENARIOS))
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required reference/arena solver-seconds ratio "
                             "over the enterprise+datacenter workloads "
                             "(0 disables; default 3.0)")
    parser.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenarios: {unknown}")

    report = {"benchmark": "sat_core", "scenarios": {}}
    identical = True
    gated_ref = gated_new = 0.0
    for name in names:
        print(f"{name} (size {args.size}):")
        result = run_scenario(name, args.size, args.max_checks, verbose=True)
        report["scenarios"][name] = result
        identical = (identical and result["verdicts_identical"]
                     and result["traces_identical"])
        if name in GATED:
            gated_ref += result["reference_seconds"]
            gated_new += result["arena_seconds"]

    cores = certify_cores(verbose=True)
    report["cores"] = cores
    identical = identical and cores["all_valid"]

    speedup = round(gated_ref / gated_new, 2) if gated_new else None
    report.update(
        gated_reference_seconds=round(gated_ref, 3),
        gated_arena_seconds=round(gated_new, 3),
        speedup=speedup,
        min_speedup=args.min_speedup,
        certified=identical,
    )
    fast_enough = (not args.min_speedup or
                   (speedup is not None and speedup >= args.min_speedup))
    print(f"gated (enterprise+datacenter): reference {gated_ref:.2f}s vs "
          f"arena {gated_new:.2f}s -> {speedup}x "
          f"(required {args.min_speedup}x); certified: {identical}")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0 if identical and fast_enough else 1


if __name__ == "__main__":
    sys.exit(main())
