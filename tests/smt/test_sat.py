"""Unit and property tests for the CDCL SAT core."""

import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.sat import (
    NATIVE_ENABLED,
    SAT,
    UNKNOWN,
    UNSAT,
    PySatSolver,
    SatSolver,
    luby,
)

CORES = [PySatSolver] + ([SatSolver] if NATIVE_ENABLED else [])
both_cores = pytest.mark.parametrize("core", CORES, ids=lambda c: c.__name__)


def make_solver(nvars):
    s = SatSolver()
    for _ in range(nvars):
        s.new_var()
    return s


def brute_force(nvars, clauses):
    """Reference decision procedure for small formulas."""
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for clause in clauses:
            if not any(
                bits[abs(lit) - 1] if lit > 0 else not bits[abs(lit) - 1]
                for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


class TestBasics:
    def test_empty_formula_is_sat(self):
        s = make_solver(2)
        assert s.solve() == SAT

    def test_unit_clause(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.solve() == SAT
        assert s.value(1) is True

    def test_contradictory_units(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.add_clause([-1]) is False
        assert s.solve() == UNSAT

    def test_implication_chain(self):
        s = make_solver(5)
        for v in range(1, 5):
            s.add_clause([-v, v + 1])  # v -> v+1
        s.add_clause([1])
        assert s.solve() == SAT
        assert all(s.value(v) is True for v in range(1, 6))

    def test_simple_unsat(self):
        s = make_solver(2)
        s.add_clause([1, 2])
        s.add_clause([1, -2])
        s.add_clause([-1, 2])
        s.add_clause([-1, -2])
        assert s.solve() == UNSAT

    def test_tautology_ignored(self):
        s = make_solver(2)
        assert s.add_clause([1, -1]) is True
        assert s.solve() == SAT

    def test_duplicate_literals_collapse(self):
        s = make_solver(1)
        s.add_clause([1, 1, 1])
        assert s.solve() == SAT
        assert s.value(1) is True

    def test_unknown_variable_rejected(self):
        s = make_solver(1)
        with pytest.raises(ValueError):
            s.add_clause([2])


class TestPigeonhole:
    def _pigeonhole(self, holes):
        """holes+1 pigeons into `holes` holes: classic UNSAT family."""
        pigeons = holes + 1
        s = SatSolver()
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[p, h] = s.new_var()
        for p in range(pigeons):
            s.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-var[p1, h], -var[p2, h]])
        return s

    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        assert self._pigeonhole(holes).solve() == UNSAT

    def test_pigeonhole_sat_when_equal(self):
        """n pigeons in n holes is satisfiable (a permutation)."""
        holes = 4
        s = SatSolver()
        var = {}
        for p in range(holes):
            for h in range(holes):
                var[p, h] = s.new_var()
        for p in range(holes):
            s.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    s.add_clause([-var[p1, h], -var[p2, h]])
        assert s.solve() == SAT


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = make_solver(2)
        s.add_clause([-1, 2])
        assert s.solve_with([1]) == SAT
        assert s.value(2) is True

    def test_assumption_conflict(self):
        s = make_solver(2)
        s.add_clause([-1, 2])
        assert s.solve_with([1, -2]) == UNSAT
        # Solver state is reusable: same query without assumptions is SAT.
        assert s.solve_with([]) == SAT

    def test_incremental_clause_addition(self):
        s = make_solver(3)
        s.add_clause([1, 2])
        assert s.solve() == SAT
        s.add_clause([-1])
        s.add_clause([-2, 3])
        assert s.solve() == SAT
        assert s.value(2) is True
        assert s.value(3) is True
        s.add_clause([-3])
        assert s.solve() == UNSAT

    def test_alternating_assumptions(self):
        """The same solver answers differently under different assumptions."""
        s = make_solver(3)
        s.add_clause([-1, -2])  # not both
        assert s.solve_with([1]) == SAT
        assert s.solve_with([2]) == SAT
        assert s.solve_with([1, 2]) == UNSAT
        assert s.solve_with([1]) == SAT


class TestBudget:
    def test_conflict_budget_returns_unknown(self):
        self_unsat = TestPigeonhole()._pigeonhole(7)
        assert self_unsat.solve(max_conflicts=1) in (UNKNOWN, UNSAT)

    def test_budget_zero_is_unknown_for_hard_instance(self):
        s = TestPigeonhole()._pigeonhole(8)
        result = s.solve(max_conflicts=2)
        assert result in (UNKNOWN, UNSAT)


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


@st.composite
def cnf_instances(draw):
    nvars = draw(st.integers(min_value=1, max_value=8))
    nclauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(nclauses):
        width = draw(st.integers(min_value=1, max_value=4))
        clause = [
            draw(st.integers(min_value=1, max_value=nvars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        clauses.append(clause)
    return nvars, clauses


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(cnf_instances())
    def test_matches_brute_force(self, instance):
        nvars, clauses = instance
        s = make_solver(nvars)
        trivially_unsat = False
        for clause in clauses:
            if not s.add_clause(clause):
                trivially_unsat = True
                break
        expected = brute_force(nvars, clauses)
        if trivially_unsat:
            assert expected is False
            return
        result = s.solve()
        assert result == (SAT if expected else UNSAT)
        if result == SAT:
            # The returned model must actually satisfy every clause.
            for clause in clauses:
                assert any(
                    s.value(abs(lit)) is (lit > 0) for lit in clause
                ), f"model does not satisfy {clause}"

    @settings(max_examples=60, deadline=None)
    @given(cnf_instances(), st.lists(st.integers(min_value=1, max_value=4), max_size=3))
    def test_assumptions_match_added_units(self, instance, assumed_vars):
        """solve(assumptions) agrees with permanently adding unit clauses."""
        nvars, clauses = instance
        assumptions = [v for v in assumed_vars if v <= nvars]

        s1 = make_solver(nvars)
        ok = all(s1.add_clause(c) for c in clauses)
        result_assumed = s1.solve_with(assumptions) if ok else UNSAT

        expected = brute_force(nvars, clauses + [[a] for a in assumptions])
        assert result_assumed == (SAT if expected else UNSAT)


@both_cores
class TestModelAndAssumptionContract:
    """What the layers above rely on, identically on both cores: the
    last model is one ``bytes`` object indexed by variable, and
    assumptions are any int sequence, range-checked by the core."""

    @staticmethod
    def _random_instance(core, rng, nvars=12, nclauses=30):
        sat = core()
        sat.new_vars(nvars)
        clauses = [
            [rng.choice((1, -1)) * v for v in rng.sample(range(1, nvars + 1), 3)]
            for _ in range(nclauses)
        ]
        for clause in clauses:
            sat.add_clause(clause)
        return sat, clauses

    def test_the_model_is_bytes_and_reads_like_the_old_list(self, core):
        rng = random.Random(20)
        answered = 0
        for _ in range(40):
            sat, clauses = self._random_instance(core, rng)
            if sat.solve() != SAT:
                continue
            answered += 1
            model = sat.model
            assert type(model) is bytes and len(model) == sat.nvars + 1
            assert model[0] == 0 and set(model) <= {0, 1}
            as_list = [None, *map(bool, model[1:])]  # the old representation
            for var in range(1, sat.nvars + 1):
                assert sat.value(var) is as_list[var] is sat.value(-var)
            for clause in clauses:
                assert any(as_list[abs(q)] is (q > 0) for q in clause)
            # A variable allocated after the answer is not covered by it,
            # and allocating it does not disturb the snapshot.
            later = sat.new_var()
            assert sat.value(later) is None
            assert sat.model is model and len(model) == later
        assert answered >= 10

    def test_assumptions_are_any_int_sequence(self, core):
        sat = core()
        a, b, c = sat.new_var(), sat.new_var(), sat.new_var()
        sat.add_clause([-a, -b])
        for assume in ([a, b, c], (a, b, c), array("i", [a, b, c])):
            assert sat.solve(assume) == UNSAT
            assert set(sat.core) == {a, b}
        assert sat.solve(array("i", [a, -b])) == SAT
        assert sat.value(a) is True and sat.value(b) is False

    @pytest.mark.parametrize("bad", [0, 4, -4, 2 ** 31 - 1, -(2 ** 31), 2 ** 40])
    def test_an_assumption_naming_no_variable_raises_value_error(self, core, bad):
        sat = core()
        a, b, _ = sat.new_var(), sat.new_var(), sat.new_var()
        sat.add_clause([a, b])
        with pytest.raises(ValueError):
            sat.solve([a, bad])
        with pytest.raises(ValueError):
            sat.solve(array("i", [bad]) if abs(bad) < 2 ** 31 else [bad])
        # Refused before anything was touched: the solver still answers.
        assert sat.solve([-a]) == SAT and sat.value(b) is True
