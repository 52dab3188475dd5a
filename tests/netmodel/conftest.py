"""Slow references the templated drivers are tested against.

Two pieces of the pre-template code survive here, test-local:

* :func:`linear_probe_trace` — ``IncrementalBMC.canonical_trace`` as it
  was before the MSB-first minimisation: every field pinned to the
  least sort value by a linear probe over ``sort.values``.  It runs on
  any :class:`repro.smt.Solver`, so it canonicalises the unrolled
  reference's witnesses too.
* :class:`UnrolledReference` — a plain ``Solver`` fed
  ``NetworkSMTModel.axioms()``: every step built and Tseitin-encoded as
  terms, from scratch, per depth.

Exposed as fixtures (the tests directory is not a package).
"""

from types import SimpleNamespace

import pytest

import repro.smt.solver as solver_mod
from repro.netmodel.events import EventKind
from repro.netmodel.system import NetworkSMTModel, RuleGuards
from repro.netmodel.trace import decode_trace
from repro.proof.transition import TransitionSystem
from repro.smt import SAT, EnumConst, Eq, Solver
from repro.smt.sat import NATIVE_ENABLED, PySatSolver, SatSolver

CORES = [PySatSolver] + ([SatSolver] if NATIVE_ENABLED else [])


@pytest.fixture(params=CORES, ids=lambda c: c.__name__)
def core(request, monkeypatch):
    """Run the test once per SAT core (pure Python, and C when built)."""
    monkeypatch.setattr(solver_mod, "SatSolver", request.param)
    return request.param


def linear_probe_trace(solver, model, base, k):
    """The lexicographically-least schedule satisfying ``base`` on
    ``solver``, found the pre-template way; returns ``(trace, solver
    calls made)``."""
    calls = 0

    def check(assumptions):
        nonlocal calls
        calls += 1
        return solver.check(assumptions=assumptions)

    assert check(base) == SAT, f"no violation at depth {k} to canonicalize"
    state = {"model": solver.model()}
    pins = []

    def pin(var):
        sort = var.sort
        current = state["model"][var]
        chosen = current
        for value in sort.values:
            if value == current:
                break  # the witness already attains the minimum
            cand = Eq(var, EnumConst(sort, value))
            if check(base + pins + [cand]) == SAT:
                state["model"] = solver.model()
                chosen = value
                break
        pins.append(Eq(var, EnumConst(sort, chosen)))
        return chosen

    sent = []
    for t in range(k):
        ev = model.events[t]
        kind = pin(ev.kind)
        if kind == EventKind.NOOP:
            break
        pin(ev.frm)
        if kind == EventKind.SEND:
            pin(ev.to)
            sent.append(pin(ev.pkt))
    for index in sorted(set(sent)):
        p = model.schema.packets[index]
        for var in (p.src, p.dst, p.sport, p.dport, p.origin, p.tag):
            pin(var)
    assert check(base + pins) == SAT, "canonical pins became unsatisfiable"
    return decode_trace(solver.model(), model), calls


class UnrolledReference:
    """One from-scratch term unrolling of ``net`` at exactly ``depth``."""

    def __init__(self, net, depth, free_init=False, guarded=False, **params):
        self.guards = RuleGuards() if guarded else None
        self.model = NetworkSMTModel(
            net, depth=depth, rule_guards=self.guards, **params
        )
        self.solver = Solver()
        self.solver.add(*self.model.axioms())
        if free_init:
            # The arbitrary start is a *consistent* one, exactly as the
            # proof engines' transition system restricts it.
            stand_in = SimpleNamespace(model=self.model, net=net)
            self.solver.add(*TransitionSystem.consistency_axioms(stand_in))
        else:
            self.solver.add(*self.model.init_axioms())

    def assumptions(self, invariant, guards_on=False):
        out = [invariant.violation_term(self.model.ctx)]
        if guards_on:
            out.extend(self.guards.assumptions())
        return out

    def verdict(self, invariant, guards_on=False):
        return self.solver.check(self.assumptions(invariant, guards_on))

    def trace(self, invariant):
        trace, _ = linear_probe_trace(
            self.solver, self.model, self.assumptions(invariant),
            self.model.depth,
        )
        return trace


@pytest.fixture
def reference():
    return SimpleNamespace(
        linear_probe_trace=linear_probe_trace, Unrolled=UnrolledReference
    )
