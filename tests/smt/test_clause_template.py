"""Clause templates and bulk variable allocation, on both SAT cores.

``CnfConverter.record`` encodes one instance of a recurring constraint
and keeps the records that mention a parameter; ``instantiate``
re-emits them through a variable table.  The contract: a solver fed the
template's instances is indistinguishable from one fed every instance
as terms.  ``SatSolver.new_vars(n)`` — what gives each instance its
block of local variables — must equal ``n`` calls of ``new_var()``.
"""

import itertools
import random

import pytest

import repro.smt.solver as solver_mod
from repro.smt import (
    SAT,
    And,
    BoolVar,
    EnumConst,
    EnumSort,
    EnumVar,
    Eq,
    Iff,
    Implies,
    Not,
    Or,
    Solver,
)
from repro.smt.sat import NATIVE_ENABLED, PySatSolver, SatSolver

CORES = [PySatSolver] + ([SatSolver] if NATIVE_ENABLED else [])
both_cores = pytest.mark.parametrize("core", CORES, ids=lambda c: c.__name__)


@both_cores
class TestNewVars:
    def test_a_block_equals_that_many_single_allocations(self, core):
        bulk, single = core(), core()
        assert bulk.new_vars(0) == 1 and bulk.nvars == 0
        for n in (1, 5, 130):  # 130 crosses the C core's first regrowth
            first = bulk.new_vars(n)
            ones = [single.new_var() for _ in range(n)]
            assert list(range(first, first + n)) == ones
            assert bulk.nvars == single.nvars
        assert bulk.stats() == single.stats()

    def test_block_variables_solve_and_read_back_like_any_other(self, core):
        bulk, single = core(), core()
        first = bulk.new_vars(6)
        for _ in range(6):
            single.new_var()
        clauses = [[first, first + 1], [-first], [first + 2, -(first + 5)],
                   [first + 5], [-(first + 3), -(first + 4)], [first + 4]]
        for sat in (bulk, single):
            for clause in clauses:
                sat.add_clause(clause)
            assert sat.solve() == SAT
        assert [bulk.value(v) for v in range(1, 7)] == \
            [single.value(v) for v in range(1, 7)]
        assert bulk.stats() == single.stats()
        assert bulk.solve([-(first + 1)]) == single.solve([-(first + 1)]) == "unsat"

    def test_a_model_says_nothing_about_variables_allocated_after_it(self, core):
        """The canonical-trace minimiser reads its last witness while
        naming fields no axiom mentions; those read as unconstrained."""
        sat = core()
        a = sat.new_var()
        sat.add_clause([a])
        assert sat.solve() == SAT
        later = sat.new_vars(2)
        assert sat.value(a) is True
        assert sat.value(later) is None and sat.value(later + 1) is None


# ----------------------------------------------------------------------
def _chain(n_steps):
    """A small transition system: boolean state ``a``, enum event ``x``
    per step, a rigid enum ``r`` and a rigid guard ``g``."""
    sort = EnumSort("tplS", ("a", "b", "c"))
    states = [BoolVar(f"tpl:a{t}") for t in range(n_steps + 1)]
    events = [EnumVar(f"tpl:x{t}", sort) for t in range(n_steps)]
    r, g = EnumVar("tpl:r", sort), BoolVar("tpl:g")

    def asserted(a, x):
        return [
            Implies(a, Or(Eq(x, r), g)),
            Or(Not(Eq(x, EnumConst(sort, "a"))), Eq(r, EnumConst(sort, "b"))),
        ]

    def next_state(a, x):
        return Or(a, And(Eq(x, EnumConst(sort, "c")), Not(g)))

    atoms = states + [g] + [
        Eq(v, EnumConst(sort, c)) for v in events + [r] for c in sort.values
    ]
    return states, events, asserted, next_state, atoms


def _templated(n_steps):
    states, events, asserted, next_state, atoms = _chain(n_steps)
    solver = Solver()
    template = solver.record_template(
        asserted(states[0], events[0]),
        [(states[1], next_state(states[0], events[0]))],
        [states[0], events[0]],
    )
    solver.assert_template(template)
    for t in range(1, n_steps):
        solver.assert_template(template, [states[t], events[t]], [states[t + 1]])
    return solver, template, atoms


def _unrolled(n_steps):
    states, events, asserted, next_state, atoms = _chain(n_steps)
    solver = Solver()
    for t in range(n_steps):
        solver.add(*asserted(states[t], events[t]))
        solver.add(Iff(states[t + 1], next_state(states[t], events[t])))
    return solver, atoms


@both_cores
class TestTemplateEqualsTerms:
    def test_same_answers_under_random_assumptions(self, core, monkeypatch):
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        templated, template, atoms = _templated(4)
        unrolled, _ = _unrolled(4)
        rng = random.Random(7)
        for _ in range(300):
            assume = [a if rng.random() < 0.5 else Not(a)
                      for a in rng.sample(atoms, 4)]
            assert templated.check(assume) == unrolled.check(assume), assume

    def test_instances_cost_no_terms_and_constant_ints(self, core, monkeypatch):
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        templated, template, _ = _templated(6)
        states, events, *_ = _chain(8)
        per_step = []
        for t in (6, 7):
            before = templated.encoder_counters()
            vars_before = templated.stats()["vars"]
            templated.assert_template(template, [states[t], events[t]], [states[t + 1]])
            after = templated.encoder_counters()
            per_step.append({k: after[k] - before[k] for k in after})
            # Fresh per instance: the local block, the event's two bits,
            # the next state variable — and one for the new event's
            # domain constraint (three values in two bits), the only
            # thing that still goes through the term path.
            assert templated.stats()["vars"] - vars_before == template.local + 4
        assert per_step[0] == per_step[1]
        assert per_step[0]["steps_instanced"] == 1
        assert 0 <= per_step[0]["lits"] - len(template.slots) <= 8
        assert 0 <= per_step[0]["clauses"] - template.clauses <= 3
        assert per_step[0]["terms"] <= 6  # that one small comparator

    def test_rigid_subterms_are_shared_not_copied(self, core, monkeypatch):
        monkeypatch.setattr(solver_mod, "SatSolver", core)
        _, template, _ = _templated(2)
        # r's two bits, g, true, Eq(r, b) and its bit atoms are rigid;
        # the state, the event's bits and the next state are holes.
        assert template.holes == 1 + 2 + 1
        assert template.rigid >= 4
        assert template.local > 0


class TestRecordRefusals:
    def test_record_must_be_the_first_encoding(self):
        solver = Solver()
        a, b, c = BoolVar("tr:a"), BoolVar("tr:b"), BoolVar("tr:c")
        solver.add(Or(a, b))
        with pytest.raises(ValueError, match="first encoding"):
            solver.record_template([Or(a, b)], [(c, And(a, b))], [a])

    def test_outputs_are_defined_by_compound_terms_only(self):
        a, b = BoolVar("tr:a"), BoolVar("tr:b")
        with pytest.raises(ValueError, match="cannot define"):
            Solver().record_template([], [(b, Not(a))], [a])

    def test_holes_must_be_distinct(self):
        a, b, c = BoolVar("tr:a"), BoolVar("tr:b"), BoolVar("tr:c")
        with pytest.raises(ValueError, match="distinct"):
            Solver().record_template([Or(a, b)], [(c, And(a, b))], [a, a])
        with pytest.raises(ValueError, match="cannot define"):  # an input as output
            Solver().record_template([Or(a, b)], [(a, And(b, c))], [a, b])

    def test_an_instance_must_fill_every_hole(self):
        a, b, c = BoolVar("tr:a"), BoolVar("tr:b"), BoolVar("tr:c")
        solver = Solver()
        template = solver.record_template([Or(a, b)], [(c, And(a, b))], [a])
        with pytest.raises(ValueError, match="holes"):
            solver.assert_template(template, [a, b], [c])


def test_every_assignment_of_a_two_step_chain_agrees():
    """Exhaustive over states and guard (events left to the solver)."""
    templated, _, _ = _templated(2)
    unrolled, _ = _unrolled(2)
    states, _, _, _, _ = _chain(2)
    g = BoolVar("tpl:g")
    for values in itertools.product((False, True), repeat=4):
        assume = [v if on else Not(v) for v, on in zip(states + [g], values)]
        assert templated.check(assume) == unrolled.check(assume), values
