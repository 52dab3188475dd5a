"""Retractable clauses: guard-literal semantics, learned-clause
retention and collection, and stable incremental Tseitin allocation.

One idiom retracts a clause: guard it with a fresh variable ``g``
(``C ∨ ¬g``), assume ``g`` while it should hold, retire it with the
unit ``¬g`` and let ``simplify()`` collect what the unit satisfied."""

import pytest

from repro.smt import (
    SAT,
    UNSAT,
    And,
    BoolVar,
    Distinct,
    EnumConst,
    EnumSort,
    EnumVar,
    Eq,
    Implies,
    Ne,
    Not,
    Or,
    Solver,
)
from repro.smt.sat import PySatSolver, SatSolver


def retire(solver, guard):
    """Works on a SAT core and on the Solver facade alike."""
    solver.add_clause([-guard])
    solver.simplify()


@pytest.fixture(params=[SatSolver, PySatSolver], ids=lambda c: c.__name__)
def core(request):
    return request.param


class TestSatGuards:
    def test_retired_guard_retracts_its_clauses(self, core):
        s = core()
        a, b, g = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, -g])
        s.add_clause([-b, -g])
        assert s.solve([g]) == UNSAT
        assert s.core == [g]
        assert s.solve() == SAT  # an unassumed guard switches nothing on
        retire(s, g)
        assert s.solve() == SAT
        assert s.stats()["clauses"] == 1

    def test_guards_retire_independently(self, core):
        s = core()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        outer, inner = s.new_var(), s.new_var()
        s.add_clause([a, b, c])
        s.add_clause([-a, -outer])
        s.add_clause([-b, -inner])
        s.add_clause([-c, -inner])
        assert s.solve([outer, inner]) == UNSAT
        retire(s, inner)
        assert s.solve([outer]) == SAT  # only -a remains
        assert s.value(a) is False
        retire(s, outer)
        assert s.solve() == SAT
        assert s.stats()["clauses"] == 1

    def test_guard_local_contradiction_does_not_poison_solver(self, core):
        s = core()
        a, g = s.new_var(), s.new_var()
        s.add_clause([a])
        s.add_clause([-a, -g])  # contradicts the base at level 0
        assert s.solve([g]) == UNSAT
        assert s.core == [g]
        retire(s, g)
        assert s.solve() == SAT
        assert s.value(a) is True

    def test_retired_guard_collects_dependent_learnts(self, core):
        s = core()
        n = 8
        for _ in range(2 * n):
            s.new_var()
        g = s.new_var()
        # An unsatisfiable XOR-ish chain that forces real learning.
        for i in range(1, n):
            s.add_clause([-i, i + 1, -g])
            s.add_clause([i, -(i + 1), -g])
        s.add_clause([1, -g])
        s.add_clause([-n, -g])
        assert s.solve([g]) == UNSAT
        retire(s, g)
        # Every guarded clause is gone from the database, and so is
        # every learnt: each resolved through a guarded clause and
        # carried the guard's negation...
        assert s.stats()["clauses"] == 0
        assert s.stats()["learnts"] == 0
        # ...so nothing deduced under the guard blocks the base problem.
        assert s.solve() == SAT
        assert s.solve([1, -n]) == SAT

    def test_base_learnts_survive_a_retired_guard(self, core):
        s = core()
        act = s.new_var()
        var = {}
        for p in range(5):
            for h in range(4):
                var[p, h] = s.new_var()
        for p in range(5):
            s.add_clause([-act] + [var[p, h] for h in range(4)])
        for h in range(4):
            for p in range(5):
                for q in range(p + 1, 5):
                    s.add_clause([-act, -var[p, h], -var[q, h]])
        assert s.solve([act]) == UNSAT
        first = s.conflicts
        learned_before = s.stats()["learnts"]
        g = s.new_var()
        s.add_clause([s.new_var(), -g])
        retire(s, g)
        # All kept but the last one: the unit ¬act, learnt under the
        # assumption, which the collection promotes to a level-0 fact.
        assert s.stats()["learnts"] == learned_before - 1
        assert s.solve([act]) == UNSAT
        assert s.conflicts - first <= first


class TestSolverGuards:
    def test_retired_guard_restores_the_base_problem(self):
        a, b = BoolVar("sc_a"), BoolVar("sc_b")
        s = Solver()
        s.add(Or(a, b))
        g = s.new_literal()
        s.add_clause([-s.literal(a), -g])
        s.add_clause([-s.literal(b), -g])
        assert s.check([g]) == UNSAT
        assert s.unsat_core() == [g]
        retire(s, g)
        assert s.check() == SAT

    def test_tseitin_allocation_is_stable_across_guards(self):
        """Re-asserting a term seen under a retired guard reuses its
        CNF: the only fresh variable is the new guard."""
        x, y, z = BoolVar("ts_x"), BoolVar("ts_y"), BoolVar("ts_z")
        term = Or(And(x, y), And(y, z), And(Not(x), z))
        s = Solver()
        g = s.new_literal()
        s.add_clause([s.literal(term), -g])
        nvars = s.sat.nvars
        nclauses = s.stats()["clauses"]
        retire(s, g)
        g = s.new_literal()
        s.add_clause([s.literal(term), -g])
        assert s.sat.nvars == nvars + 1  # the guard, nothing else
        # Definitions were not re-emitted; only the root re-asserted.
        assert s.stats()["clauses"] <= nclauses + 1
        assert s.check([g]) == SAT

    def test_enum_domain_constraints_survive_a_retired_guard(self):
        """A sort of 3 values uses 2 bits; the phantom 4th code must
        stay excluded even when the variable first appeared in a clause
        whose guard has since been retired."""
        color = EnumSort("sc_color", ("red", "green", "blue"))
        vs = [EnumVar(f"sc_c{i}", color) for i in range(4)]
        s = Solver()
        g = s.new_literal()
        s.add_clause([s.literal(Eq(vs[0], vs[1])), -g])  # first mention
        assert s.check([g]) == SAT
        retire(s, g)
        s.add(Distinct(*vs))  # 4 distinct values cannot fit 3
        assert s.check() == UNSAT

    def test_check_assumptions_beside_a_guard(self):
        color = EnumSort("sc_col2", ("red", "green", "blue"))
        x = EnumVar("sc_x2", color)
        red = Eq(x, EnumConst(color, "red"))
        s = Solver()
        s.add(Ne(x, EnumConst(color, "blue")))
        g = s.new_literal()
        s.add_clause([-s.literal(red), -g])
        assert s.check([g, red]) == UNSAT
        assert s.check([g]) == SAT
        assert s.model()[x] == "green"
        retire(s, g)
        assert s.check([red]) == SAT
        assert s.model()[x] == "red"

    def test_model_after_retiring_reflects_base_only(self):
        a, b = BoolVar("sc_m_a"), BoolVar("sc_m_b")
        s = Solver()
        s.add(Implies(a, b))
        g = s.new_literal()
        s.add_clause([s.literal(a), -g])
        assert s.check([g]) == SAT
        assert s.model()[b] is True
        retire(s, g)
        s.add(Not(b))
        assert s.check() == SAT
        assert s.model()[a] is False
