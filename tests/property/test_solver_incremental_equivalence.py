"""The incremental solver's contract: solving with guarded clauses
(assumed guard = in force, retired guard = retracted) and
``check(assumptions)`` is observably identical to building a fresh
solver and solving the visible formula from scratch.

Verdict identity is exact (satisfiability is objective).  "Identical
models" is checked semantically: both solvers' models must satisfy
every visible assertion and assumption — the incremental solver's
learned clauses, retained activities, inprocessing and guard literals
must never leak into an assignment that the from-scratch formula would
reject.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    SAT,
    UNSAT,
    And,
    BoolVar,
    EnumConst,
    EnumSort,
    EnumVar,
    Eq,
    Not,
    Or,
    Solver,
    evaluate,
)
from repro.smt.sat import PySatSolver, SatSolver

# ----------------------------------------------------------------------
# SAT level: random CNF under guards and assumptions
# ----------------------------------------------------------------------

NVARS = 6


def _clauses(draw, n_clauses, rng_label):
    out = []
    for i in range(n_clauses):
        width = draw(st.integers(min_value=1, max_value=3),
                     label=f"{rng_label}[{i}] width")
        lits = []
        for j in range(width):
            var = draw(st.integers(min_value=1, max_value=NVARS),
                       label=f"{rng_label}[{i}][{j}] var")
            neg = draw(st.booleans(), label=f"{rng_label}[{i}][{j}] sign")
            lits.append(-var if neg else var)
        out.append(lits)
    return out


def _fresh_verdict(clause_sets, assumptions):
    s = SatSolver()
    for _ in range(NVARS):
        s.new_var()
    for clauses in clause_sets:
        for c in clauses:
            s.add_clause(c)
    return s, s.solve(assumptions)


def _model_satisfies(solver, clause_sets, assumptions):
    for clauses in clause_sets:
        for c in clauses:
            assert any(
                solver.value(abs(lit)) is (lit > 0) for lit in c
            ), f"model falsifies clause {c}"
    for lit in assumptions:
        assert solver.value(abs(lit)) is (lit > 0), f"model breaks assumption {lit}"


def _guarded(solver, clauses):
    """Add ``clauses`` under a fresh guard variable; returns it."""
    guard = solver.new_var()
    for c in clauses:
        solver.add_clause(c + [-guard])
    return guard


class TestSatGuardEquivalence:
    @pytest.mark.parametrize("core", [SatSolver, PySatSolver],
                             ids=lambda c: c.__name__)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_guarded_solving_matches_from_scratch(self, core, data):
        base = _clauses(data.draw, data.draw(
            st.integers(min_value=0, max_value=6), label="n base"), "base")
        guarded = _clauses(data.draw, data.draw(
            st.integers(min_value=1, max_value=6), label="n guarded"), "guarded")
        n_assumps = data.draw(st.integers(min_value=0, max_value=3),
                              label="n assumptions")
        assumptions = []
        for i in range(n_assumps):
            var = data.draw(st.integers(min_value=1, max_value=NVARS),
                            label=f"assume[{i}] var")
            neg = data.draw(st.booleans(), label=f"assume[{i}] sign")
            assumptions.append(-var if neg else var)

        inc = core()
        for _ in range(NVARS):
            inc.new_var()
        for c in base:
            inc.add_clause(c)
        guard = _guarded(inc, guarded)

        # Guard assumed: equivalent to base + guarded from scratch.
        got = inc.solve(assumptions + [guard])
        ref_solver, want = _fresh_verdict([base, guarded], assumptions)
        assert got == want
        if got == SAT:
            _model_satisfies(inc, [base, guarded], assumptions)
            _model_satisfies(ref_solver, [base, guarded], assumptions)
        else:
            assert set(inc.core) <= set(assumptions + [guard])

        # Inprocessing while the guard is live may subsume and
        # strengthen with guarded clauses; what it derives keeps the
        # guard's negation, so both views stay right.
        inc.simplify()
        assert inc.solve(assumptions + [guard]) == want

        # Guard retired: equivalent to base alone, learned clauses and
        # all — including under the same assumptions again.
        inc.add_clause([-guard])
        inc.simplify()
        got = inc.solve(assumptions)
        ref_solver, want = _fresh_verdict([base], assumptions)
        assert got == want
        if got == SAT:
            _model_satisfies(inc, [base], assumptions)

        # Guarding the same clauses again round-trips.
        guard = _guarded(inc, guarded)
        _, want = _fresh_verdict([base, guarded], assumptions)
        assert inc.solve(assumptions + [guard]) == want


# ----------------------------------------------------------------------
# Term level: random enum/bool formulas through the Solver facade
# ----------------------------------------------------------------------

_SORT = EnumSort("inceq_sort", (0, 1, 2))
_EVARS = [EnumVar(f"inceq_e{i}", _SORT) for i in range(3)]
_BVARS = [BoolVar(f"inceq_b{i}") for i in range(3)]


def _atom(draw, label):
    choice = draw(st.integers(min_value=0, max_value=2), label=f"{label} kind")
    if choice == 0:
        a = draw(st.sampled_from(_EVARS), label=f"{label} lhs")
        b = draw(st.sampled_from(_EVARS), label=f"{label} rhs")
        return Eq(a, b)
    if choice == 1:
        v = draw(st.sampled_from(_EVARS), label=f"{label} var")
        value = draw(st.integers(min_value=0, max_value=2), label=f"{label} val")
        return Eq(v, EnumConst(_SORT, value))
    return draw(st.sampled_from(_BVARS), label=f"{label} bool")


def _formulas(draw, n, label):
    out = []
    for i in range(n):
        lits = []
        for j in range(draw(st.integers(min_value=1, max_value=3),
                            label=f"{label}[{i}] width")):
            a = _atom(draw, f"{label}[{i}][{j}]")
            lits.append(Not(a) if draw(st.booleans(),
                                       label=f"{label}[{i}][{j}] sign") else a)
        out.append(Or(*lits))
    return out


def _check_model(model, terms):
    env = {v: model[v] for v in _EVARS + _BVARS}
    for t in terms:
        assert evaluate(t, env), f"model violates {t!r}"


class TestTermGuardEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_guarded_check_matches_from_scratch(self, data):
        base = _formulas(data.draw, data.draw(
            st.integers(min_value=0, max_value=4), label="n base"), "base")
        guarded = _formulas(data.draw, data.draw(
            st.integers(min_value=1, max_value=4), label="n guarded"), "guarded")
        assumptions = _formulas(data.draw, data.draw(
            st.integers(min_value=0, max_value=2), label="n assume"), "assume")

        inc = Solver()
        inc.add(*base)
        guard = inc.new_literal()
        for t in guarded:
            inc.add_clause([inc.literal(t), -guard])

        fresh = Solver()
        fresh.add(*base, *guarded)
        got, want = inc.check(assumptions + [guard]), fresh.check(assumptions)
        assert got == want
        if got == SAT:
            _check_model(inc.model(), base + guarded + assumptions)
            _check_model(fresh.model(), base + guarded + assumptions)
        else:
            assert {repr(t) for t in inc.unsat_core()} <= {
                repr(t) for t in assumptions + [guard]
            }

        inc.simplify()  # with the guard live
        assert inc.check(assumptions + [guard]) == want

        inc.add_clause([-guard])
        inc.simplify()
        fresh2 = Solver()
        fresh2.add(*base)
        got, want = inc.check(assumptions), fresh2.check(assumptions)
        assert got == want
        if got == SAT:
            _check_model(inc.model(), base + assumptions)


# ----------------------------------------------------------------------
# Learned-clause retention: the speedup the warm path is built on
# ----------------------------------------------------------------------


def _pigeonhole(solver, pigeons, holes, guard=None):
    """Each pigeon in some hole, no two pigeons share a hole (UNSAT when
    pigeons > holes).  ``guard`` prefixes every clause."""
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = solver.new_var()
    prefix = [guard] if guard is not None else []
    for p in range(pigeons):
        solver.add_clause(prefix + [var[p, h] for h in range(holes)])
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                solver.add_clause(prefix + [-var[p, h], -var[q, h]])


class TestClauseRetention:
    def test_second_identical_check_is_never_harder(self):
        s = SatSolver()
        act = s.new_var()
        _pigeonhole(s, 5, 4, guard=-act)
        assert s.solve([act]) == UNSAT
        first = s.conflicts
        assert s.solve([act]) == UNSAT
        second = s.conflicts - first
        assert second <= first, (first, second)

    def test_retention_survives_unrelated_guard_churn(self):
        s = SatSolver()
        act = s.new_var()
        _pigeonhole(s, 5, 4, guard=-act)
        assert s.solve([act]) == UNSAT
        first = s.conflicts
        extra = [s.new_var() for _ in range(3)]
        guard = _guarded(s, [[extra[0], extra[1]], [-extra[1], extra[2]]])
        assert s.solve([act, guard]) == UNSAT
        s.add_clause([-guard])
        s.simplify()
        assert s.solve([act]) == UNSAT
        total_after = s.conflicts - first
        assert total_after <= 2 * first

    def test_stats_counters_are_cumulative(self):
        a, b = BoolVar("cum_a"), BoolVar("cum_b")
        s = Solver()
        s.add(Or(a, b), Or(Not(a), b), Or(a, Not(b)))
        snapshots = []
        for _ in range(3):
            assert s.check([And(a, b)]) == SAT
            snapshots.append(s.stats())
        for earlier, later in zip(snapshots, snapshots[1:]):
            for key in ("conflicts", "decisions", "propagations",
                        "restarts", "learned"):
                assert later[key] >= earlier[key], key


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
