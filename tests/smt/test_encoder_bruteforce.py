"""The one-pass encoder against brute-force term evaluation.

The reference is :func:`repro.smt.evaluate` — plain structural
evaluation, sharing no code with the CNF converter.  For generated
terms over boolean and enum variables (domain sizes 2, 3 and 5, so
non-power-of-two domains, enum ``ite`` and variable-to-variable
equalities are all hit) and *every* total assignment of the term's
variables, the solver must answer ``sat`` under the assignment exactly
when the term evaluates to true.  One generated corpus runs through
both converter entry points (``assert_term``: positive polarity only;
``literal``: both polarities) on both SAT cores, and the disagreements
are collected as rows, so a failure names core, entry point and
assignment.
"""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.smt.solver as solver_mod
from repro.smt import (
    SAT,
    And,
    BoolVar,
    EnumConst,
    EnumSort,
    EnumVar,
    Eq,
    Ite,
    Not,
    Or,
    Solver,
    Xor,
    evaluate,
    free_vars,
)
from repro.smt.sat import NATIVE_ENABLED, PySatSolver, SatSolver

SIZES = (2, 3, 5)
CORES = [PySatSolver] + ([SatSolver] if NATIVE_ENABLED else [])
MAX_ASSIGNMENTS = 300


# Sorts and terms are interned per test (see conftest), so every leaf
# is built at draw time, by name.
def _sort(n):
    return EnumSort(f"bf{n}", tuple(range(n)))


def _enum_leaf(n):
    return st.one_of(
        st.sampled_from([f"bf{n}_x", f"bf{n}_y"]).map(lambda s: EnumVar(s, _sort(n))),
        st.integers(0, n - 1).map(lambda v: EnumConst(_sort(n), v)),
    )


def _enum_term(n, cond):
    leaf = _enum_leaf(n)
    ite = st.builds(Ite, cond, leaf, leaf)
    return st.one_of(leaf, ite, st.builds(Ite, cond, ite, leaf))


def _extend(b):
    return st.one_of(
        st.builds(Not, b),
        st.builds(And, b, b),
        st.builds(Or, b, b, b),
        st.builds(Xor, b, b),
        st.builds(Ite, b, b, b),
        *(st.builds(Eq, _enum_term(n, b), _enum_term(n, b)) for n in SIZES),
    )


_BOOL_LEAF = st.one_of(
    st.sampled_from(["bf_p", "bf_q"]).map(BoolVar),
    *(st.builds(Eq, _enum_leaf(n), _enum_leaf(n)) for n in SIZES),
)
TERMS = st.recursive(_BOOL_LEAF, _extend, max_leaves=6)


def _assignments(term):
    """Every total assignment of the term's variables, as
    ``(env, assumption terms)`` pairs."""
    variables = sorted(free_vars(term), key=lambda v: v.payload)
    domains = [
        (False, True) if v.is_bool else v.sort.values for v in variables
    ]
    for values in itertools.product(*domains):
        env = dict(zip(variables, values))
        pins = [
            (v if value else Not(v)) if v.is_bool
            else Eq(v, EnumConst(v.sort, value))
            for v, value in env.items()
        ]
        yield env, pins


def _disagreements(term, core):
    """Rows ``(core, entry point, env, expected, answered)`` where the
    solver and brute-force evaluation differ."""
    rows = []
    original = solver_mod.SatSolver
    solver_mod.SatSolver = core
    try:
        asserted = Solver()
        asserted.add(term)
        assumed = Solver()
        for env, pins in _assignments(term):
            expected = bool(evaluate(term, env))
            named = {v.payload: value for v, value in env.items()}
            answers = {
                "assert_term": (asserted.check(pins) == SAT, expected),
                "literal+": (assumed.check(pins + [term]) == SAT, expected),
                "literal-": (
                    assumed.check(pins + [Not(term)]) == SAT, not expected
                ),
            }
            for entry, (answered, want) in answers.items():
                if answered != want:
                    rows.append((core.__name__, entry, named, want, answered))
            if expected:  # the model decodes back to the assignment
                model = asserted.model()
                decoded = {v.payload: model[v] for v in env}
                if decoded != named:
                    rows.append((core.__name__, "model", named, named, decoded))
    finally:
        solver_mod.SatSolver = original
    return rows


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(TERMS)
def test_solver_agrees_with_brute_force_on_every_assignment(term):
    count = 1
    for v in free_vars(term):
        count *= 2 if v.is_bool else v.sort.size
    assume(count <= MAX_ASSIGNMENTS)
    rows = [row for core in CORES for row in _disagreements(term, core)]
    assert rows == []


@pytest.mark.parametrize("core", CORES, ids=lambda c: c.__name__)
def test_polarity_upgrade_after_assert(core, monkeypatch):
    """A subterm first encoded positively (asserted) and later assumed
    negated gets its missing direction, variable-to-variable equality
    bits included."""
    monkeypatch.setattr(solver_mod, "SatSolver", core)
    sort = EnumSort("up5", tuple(range(5)))
    x, y = EnumVar("up_x", sort), EnumVar("up_y", sort)
    p = BoolVar("up_p")
    same = Eq(x, y)
    s = Solver()
    s.add(Or(p, same))
    for a, b in itertools.product(sort.values, repeat=2):
        pins = [Eq(x, EnumConst(sort, a)), Eq(y, EnumConst(sort, b))]
        assert (s.check(pins + [same]) == SAT) == (a == b)
        assert (s.check(pins + [Not(same)]) == SAT) == (a != b)
        assert (s.check(pins + [Not(p)]) == SAT) == (a == b)
