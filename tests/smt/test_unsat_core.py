"""Tests for unsat-core extraction (failed assumptions)."""

import random

import pytest

import repro.smt.solver as solver_mod
from repro.smt import (
    SAT,
    UNSAT,
    And,
    BoolVar,
    EnumConst,
    EnumSort,
    EnumVar,
    Eq,
    Implies,
    Not,
    Or,
    Solver,
)
from repro.smt.sat import NATIVE_ENABLED, PySatSolver, SatSolver

CORES = [PySatSolver] + ([SatSolver] if NATIVE_ENABLED else [])
both_cores = pytest.mark.parametrize("core", CORES, ids=lambda c: c.__name__)


class TestSatCore:
    def test_core_at_sat_level(self):
        from repro.smt.sat import SatSolver

        s = SatSolver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, -b])  # not both a and b
        assert s.solve_with([a, b, c]) == "unsat"
        core = set(s.core)
        assert core <= {a, b, c}
        assert {a, b} & core, "core must implicate a conflicting assumption"
        # c is irrelevant; a correct analyzeFinal usually drops it.
        assert c not in core

    def test_core_empty_when_formula_unsat(self):
        from repro.smt.sat import SatSolver

        s = SatSolver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        assert s.solve_with([a]) == "unsat"
        assert s.core == []

    def test_core_respects_polarity(self):
        from repro.smt.sat import SatSolver

        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve_with([-a, -b]) == "unsat"
        assert set(s.core) <= {-a, -b}
        assert s.core, "expected a nonempty core"


class TestSolverCore:
    def test_term_core(self):
        a, b, c = BoolVar("a"), BoolVar("b"), BoolVar("c")
        s = Solver()
        s.add(Implies(a, Not(b)))
        assert s.check(assumptions=[a, b, c]) == UNSAT
        core = s.unsat_core()
        assert a in core or b in core
        assert c not in core

    def test_enum_assumption_core(self):
        color = EnumSort("core_color", ("red", "green"))
        x = EnumVar("x", color)
        red = Eq(x, EnumConst(color, "red"))
        green = Eq(x, EnumConst(color, "green"))
        s = Solver()
        s.add(Or(red, green))  # keep x constrained
        assert s.check(assumptions=[red, green]) == UNSAT
        core = s.unsat_core()
        assert core, "expected a core over the two incompatible assumptions"

    def test_core_unavailable_after_sat(self):
        a = BoolVar("a")
        s = Solver()
        s.add(Or(a, Not(a)))
        assert s.check(assumptions=[a]) == SAT
        with pytest.raises(RuntimeError):
            s.unsat_core()

    def test_core_shrinks_with_usefulness(self):
        """Only assumptions on the conflict path are reported."""
        xs = [BoolVar(f"u{i}") for i in range(6)]
        bad = BoolVar("bad")
        s = Solver()
        s.add(Implies(xs[0], bad))
        s.add(Implies(xs[1], Not(bad)))
        assert s.check(assumptions=xs) == UNSAT
        core = set(s.unsat_core())
        assert core <= {xs[0], xs[1]}


def _retire(s, guard):
    s.add_clause([-guard])
    s.simplify()


class TestCoreUnderGuards:
    """Cores of ``check(assumptions)`` beside guarded clauses: always a
    subset of the assumption set (the guard is one of them), minimal on
    hand-built instances, and identical after a guard round-trip."""

    def _conflicting_pair(self):
        a, b, c, d = (BoolVar(f"sc_core_{n}") for n in "abcd")
        s = Solver()
        s.add(Implies(a, Not(b)))
        return s, (a, b, c, d)

    def test_core_is_subset_of_assumptions(self):
        s, (a, b, c, d) = self._conflicting_pair()
        guard = s.new_literal()
        s.add_clause([s.literal(Implies(c, Not(d))), -guard])
        assert s.check(assumptions=[a, b, c, guard]) == UNSAT
        assert set(s.unsat_core()) <= {a, b, c, guard}

    def test_core_minimal_on_hand_built_chain(self):
        """x0 -> x1 -> ... -> x4 -> ¬x0: assuming x0 alone is already
        inconsistent, and the minimal core is exactly {x0} no matter how
        many irrelevant assumptions ride along."""
        xs = [BoolVar(f"chain_{i}") for i in range(5)]
        noise = [BoolVar(f"noise_{i}") for i in range(3)]
        s = Solver()
        for lhs, rhs in zip(xs, xs[1:]):
            s.add(Implies(lhs, rhs))
        s.add(Implies(xs[-1], Not(xs[0])))
        assert s.check(assumptions=[xs[0]] + noise) == UNSAT
        assert s.unsat_core() == [xs[0]]

    def test_core_minimal_two_sided(self):
        """a and b are only jointly inconsistent: both must appear."""
        s, (a, b, c, d) = self._conflicting_pair()
        assert s.check(assumptions=[c, a, d, b]) == UNSAT
        core = set(s.unsat_core())
        assert core == {a, b}

    def test_conflict_among_guarded_clauses_names_only_the_guard(self):
        """A conflict caused purely by guarded clauses blames the
        guard — the one assumption that switched them on."""
        a = BoolVar("sc_core_only")
        s = Solver()
        guard = s.new_literal()
        s.add_clause([s.literal(a), -guard])
        s.add_clause([-s.literal(a), -guard])
        assert s.check(assumptions=[BoolVar("sc_core_free"), guard]) == UNSAT
        assert s.unsat_core() == [guard]
        _retire(s, guard)
        assert s.check() == SAT

    def test_core_round_trips_after_retiring(self):
        """Same assumptions, same verdict, same core before a guard,
        beside it, and after it is retired."""
        s, (a, b, c, d) = self._conflicting_pair()
        assert s.check(assumptions=[a, b, c]) == UNSAT
        core_before = set(s.unsat_core())
        guard = s.new_literal()
        s.add_clause([s.literal(Or(c, d)), -guard])  # irrelevant to a/b
        assert s.check(assumptions=[a, b, c, guard]) == UNSAT
        assert set(s.unsat_core()) == core_before
        _retire(s, guard)
        assert s.check(assumptions=[a, b, c]) == UNSAT
        assert set(s.unsat_core()) == core_before
        assert core_before <= {a, b}

    def test_enum_core_beside_a_guard(self):
        palette = EnumSort("core_scope_palette", ("red", "green", "blue"))
        x = EnumVar("core_scope_x", palette)
        red = Eq(x, EnumConst(palette, "red"))
        green = Eq(x, EnumConst(palette, "green"))
        blue = Eq(x, EnumConst(palette, "blue"))
        s = Solver()
        guard = s.new_literal()
        s.add_clause([-s.literal(blue), -guard])
        assert s.check(assumptions=[red, green, guard]) == UNSAT
        core = s.unsat_core()
        assert core and set(core) <= {red, green, guard}
        _retire(s, guard)
        assert s.check(assumptions=[red, green]) == UNSAT
        assert set(s.unsat_core()) <= {red, green}


# ----------------------------------------------------------------------
# The integer surface: literals for terms, clauses for one query
# ----------------------------------------------------------------------
def _constrained_solver():
    """A small formula over booleans and one enum, plus the pool of
    assumption terms the tests draw from."""
    xs = [BoolVar(f"lit_x{i}") for i in range(8)]
    color = EnumSort("lit_color", ("red", "green", "blue"))
    hue = EnumVar("lit_hue", color)
    solver = Solver()
    solver.add(Implies(xs[0], Not(xs[1])))
    solver.add(Implies(And(xs[2], xs[3]), xs[4]))
    solver.add(Or(xs[5], xs[6], Eq(hue, EnumConst(color, "red"))))
    solver.add(Implies(xs[7], Eq(hue, EnumConst(color, "blue"))))
    solver.add(Implies(xs[4], Not(Eq(hue, EnumConst(color, "blue")))))
    pool = xs + [Not(x) for x in xs]
    pool += [Eq(hue, EnumConst(color, v)) for v in color.values]
    pool += [Or(xs[0], xs[7]), And(xs[2], xs[3]), Not(Or(xs[5], xs[6]))]
    return solver, pool


@both_cores
class TestIntegerAssumptions:
    def test_literals_answer_like_their_terms(self, core, monkeypatch):
        """300 random assumption sets, one solver given the terms and
        its twin given their literals (or a mix): same answer, every
        assumption true in the model, and a core made of the very
        items that were passed in."""
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        by_term, pool = _constrained_solver()
        by_lit, _ = _constrained_solver()
        rng = random.Random(300)
        seen = set()
        for _ in range(300):
            terms = rng.sample(pool, rng.randint(1, 5))
            items = [
                t if rng.random() < 0.3 else by_lit.literal(t) for t in terms
            ]
            expected = by_term.check(terms)
            assert by_lit.check(items) == expected, terms
            seen.add(expected)
            if expected == SAT:
                model = by_lit.model()
                assert all(model[t] is True for t in terms)
            else:
                core_items = by_lit.unsat_core()
                assert all(any(c is i for i in items) for c in core_items)
                assert by_lit.check(core_items) == UNSAT
                assert by_term.check(
                    [terms[items.index(c)] for c in core_items]
                ) == UNSAT
        assert seen == {SAT, UNSAT}

    def test_a_literal_is_its_term_in_both_polarities(self, core, monkeypatch):
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        solver, pool = _constrained_solver()
        for term in pool:
            lit = solver.literal(term)
            assert solver.literal(term) == lit  # encoded once
            assert solver.literal(Not(term)) == -lit
            assert solver.check([lit, Not(term)]) == UNSAT
            assert solver.check([-lit, term]) == UNSAT

    def test_add_clause_is_the_disjunction_of_its_literals(self, core, monkeypatch):
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        by_term, pool = _constrained_solver()
        by_lit, _ = _constrained_solver()
        rng = random.Random(11)
        for _ in range(6):
            disjuncts = rng.sample(pool[:16], 3)
            by_term.add(Or(*disjuncts))
            terms_before = by_lit.encoder_counters()["terms"]
            lits = [by_lit.literal(t) for t in disjuncts]
            by_lit.add_clause(lits)
        assert by_lit.encoder_counters()["terms"] == terms_before  # no term met
        for _ in range(100):
            assume = rng.sample(pool, 3)
            assert by_lit.check(assume) == by_term.check(assume), assume


@both_cores
class TestSingleQueryClause:
    def test_it_holds_for_that_query_only(self, core, monkeypatch):
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        solver, pool = _constrained_solver()
        x0, x1 = pool[0], pool[1]
        l0, l1 = solver.literal(x0), solver.literal(x1)
        assert solver.check([Not(x0), Not(x1)]) == SAT
        # (x0 or x1) for this query only: the assumptions contradict it.
        assert solver.check([-l0, Not(x1)], clause=[l0, l1]) == UNSAT
        assert solver.unsat_core() == [-l0, Not(x1)]  # not the activation
        assert solver.check([-l0], clause=[l0, l1]) == SAT
        assert solver.model()[x1] is True
        assert solver.check([Not(x0), Not(x1)]) == SAT  # and gone again

    def test_a_retired_clause_leaves_an_equisatisfiable_solver(self, core, monkeypatch):
        """After 200 queries that each carried a clause of their own,
        the solver answers like one that never saw any of them, its
        database is larger only by clauses that are already satisfied,
        and a simplification takes those away."""
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        used, pool = _constrained_solver()
        fresh, _ = _constrained_solver()
        lits = [used.literal(t) for t in pool]
        for t in pool:
            fresh.literal(t)  # same definitions on both sides
        base = fresh.stats()["clauses"]
        assert used.stats()["clauses"] == base
        rng = random.Random(5)
        for _ in range(200):
            assume = rng.sample(pool, 2)
            clause = rng.sample(lits, 3)
            with_clause = used.check(assume, clause=clause)
            if with_clause == SAT:
                model = used.model()
                assert any(model[pool[lits.index(q)]] for q in clause)
            else:
                assert fresh.check(
                    assume + [Or(*(pool[lits.index(q)] for q in clause))]
                ) == UNSAT
        assert base < used.stats()["clauses"] <= base + 200
        for _ in range(200):
            assume = rng.sample(pool, 3)
            assert used.check(assume) == fresh.check(assume), assume
        used.simplify()
        assert used.stats()["clauses"] <= base
        assert used.check() == fresh.check() == SAT

    def test_the_clause_is_retired_even_when_the_query_raises(self, core, monkeypatch):
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        solver, pool = _constrained_solver()
        l0, l1 = solver.literal(pool[0]), solver.literal(pool[1])
        base = solver.stats()["clauses"]
        with pytest.raises(ValueError):
            solver.check([l0, 10 ** 6], clause=[-l0, l1])
        assert solver.stats()["clauses"] == base + 1
        solver.simplify()
        assert solver.stats()["clauses"] <= base
        assert solver.check([l0]) == SAT
