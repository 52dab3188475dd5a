"""The literal-level proof engines against their term-level reference.

IC3, certificate minimisation and k-induction talk to the SAT core in
integers: cubes go through ``TransitionSystem.cube_lits``, states come
back through ``TransitionSystem.state_cube`` from the model's bytes, a
cube's negation is a clause that lives for one query.  The same
vocabulary still exists in terms (``lit_term`` / ``cube_term`` /
``clause_term``, ``Model.eval``), used only by the cold certificate
re-check — two implementations, one corpus.  This file runs both over
every registry scenario at size 2 and the Hypothesis networks of
``tests/netmodel/test_step_template.py``, on both SAT cores (the
pure-Python core on the smallest registry slices only):

* ``state_cube`` equals the cube read term by term through
  ``Model.eval``, on at least 50 models per system;
* ``cube_lits(cube, t)`` equals ``[Solver.literal(lit_term(l, t))]``;
* every IC3 certificate passes the untouched cold re-check, and the
  verdict equals BMC at the structural depth and the explicit-state
  fixpoint;
* ``minimize_certificate`` keeps exactly the clauses the old term-level
  minimiser (kept here, test-local) keeps;
* a finished search leaves the pooled solver clean, pinned by exact
  counts: zero encoder ``terms`` per query once the vocabulary is
  compiled, and a bounded number of clauses.

Two seeded mutations are shown caught: a flipped polarity for negative
atom literals in the vocabulary, and a single-query clause that is
never retired.
"""

import importlib.util
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings

import repro.smt.solver as solver_mod
from repro.baselines.explicit import explicit_verdict
from repro.core.engine import resolve_bmc_params
from repro.netmodel.bmc import SolverPool, check, encoding_key
from repro.proof import transition as transition_mod
from repro.proof.certificate import minimize_certificate, recheck_certificate
from repro.proof.ic3 import IC3Engine
from repro.proof.kinduction import HOLDS
from repro.proof.portfolio import prove_portfolio
from repro.proof.transition import TransitionSystem, clause_term
from repro.scenarios.registry import SCENARIOS, build_scenario
from repro.smt import SAT, UNSAT, And, Not
from repro.smt.sat import NATIVE_ENABLED, PySatSolver, SatSolver

CORES = [PySatSolver] + ([SatSolver] if NATIVE_ENABLED else [])

#: Where the pure-Python core runs too (slices of ~20-30 atoms whose
#: IC3 search converges within a few hundred queries).
_PY_CORE_SCENARIOS = ("datacenter-traversal", "isp", "multitenant")
#: Scenarios whose first holding check IC3 settles well inside the cap
#: on every layout; elsewhere a search may run out of queries, and the
#: assertions then cover the models and cubes it met on the way.
_MUST_CONCLUDE = _PY_CORE_SCENARIOS
_QUERY_CAP = 6000


@pytest.fixture(params=CORES, ids=lambda c: c.__name__)
def core(request, monkeypatch):
    monkeypatch.setattr(solver_mod, "SatSolver", request.param)
    return request.param


def _step_template_nets():
    """``tiny_problems`` of tests/netmodel/test_step_template.py (the
    tests directory is not a package, so it is loaded by path)."""
    path = pathlib.Path(__file__).parents[1] / "netmodel" / "test_step_template.py"
    spec = importlib.util.spec_from_file_location("_step_template_nets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tiny_problems


tiny_problems = _step_template_nets()


# ----------------------------------------------------------------------
# The term-level references
# ----------------------------------------------------------------------
def term_state_cube(ts, model):
    """``state_cube`` as it was: one ``Model.eval`` per state entry."""
    lits = [(key, bool(model[ts.atom_var(key)])) for key in ts.atoms]
    lits += [(key, bool(model[term])) for key, term in ts._derived.items()]
    lits += [(key, model[ts.field_var(key)]) for key in ts.fields]
    return tuple(lits)


def term_minimize(ts, invariant, cert, max_conflicts_per_query=4000):
    """The greedy drop-a-clause pass as it was: every candidate set
    re-built as ``clause_term``s and one fresh ``Not(And(...))``.
    Returns the kept clauses."""
    ts.extend_to(1)
    violation = ts.violation_prefix(invariant, 1)
    kept = list(cert.clauses)
    order = sorted(range(len(kept)), key=lambda i: (-len(kept[i]), i))
    dropped = set()

    def survives_without(skip):
        active = [c for i, c in enumerate(kept) if i != skip and i not in dropped]
        now = [clause_term(ts, c, 0) for c in active]
        nxt = [clause_term(ts, c, 1) for c in active]
        if nxt and ts.check(now + [Not(And(*nxt))],
                            max_conflicts=max_conflicts_per_query) != UNSAT:
            return False
        return ts.check(now + [violation],
                        max_conflicts=max_conflicts_per_query) == UNSAT

    for i in order:
        if survives_without(i):
            dropped.add(i)
    return tuple(c for i, c in enumerate(kept) if i not in dropped)


# ----------------------------------------------------------------------
# The comparisons
# ----------------------------------------------------------------------
def assert_vocabulary_matches(ts, cube):
    """The compiled vocabulary says what the terms say, at both steps
    the engines use, literal by literal and for the whole cube."""
    literal = ts.solver.literal
    for t in (0, 1):
        expected = [literal(ts.lit_term(lit, t)) for lit in cube]
        assert ts.cube_lits(cube, t) == expected, f"cube_lits differs at t={t}"
        assert [ts.lit_at(lit, t) for lit in cube] == expected


def sample_models(ts, rng, wanted=50, attempts=600):
    """Satisfying assignments of the one-step system under random
    assumptions over next-state atoms and field pins; each is checked
    on the spot.  Returns the cubes read."""
    ts.extend_to(1)
    cubes = []
    for _ in range(attempts):
        if len(cubes) >= wanted:
            break
        assume = [
            ts.lit_at((key, rng.random() < 0.5), 1)
            for key in rng.sample(ts.atoms, min(3, len(ts.atoms)))
        ]
        field = rng.choice(ts.fields)
        assume.append(
            ts.lit_at((field, rng.choice(ts.field_var(field).sort.values)), 0)
        )
        if ts.check(assume) != SAT:
            continue
        model = ts.solver.model()
        cube = ts.state_cube(model)
        assert cube == term_state_cube(ts, model), "state_cube differs"
        cubes.append(cube)
    return cubes


def run_ic3(ts, invariant, cap):
    """IC3 to a verdict or ``cap`` queries, comparing every model it
    reads with the term-level reading.  Returns (outcome, models)."""
    models = 0
    fast = ts.state_cube

    def checked_state_cube(model):
        nonlocal models
        models += 1
        cube = fast(model)
        assert cube == term_state_cube(ts, model), "state_cube differs"
        return cube

    ts.state_cube = checked_state_cube
    try:
        engine = IC3Engine(ts, invariant)
        outcome = None
        while outcome is None and ts.checks < cap:
            outcome = engine.step(max_queries=64)
        engine.retire()
    finally:
        del ts.state_cube
    return outcome, models


def assert_sound(net, invariant, params, outcome, fixpoint=True):
    """An IC3 ``holds`` stands on the cold term-level re-check, on BMC
    at the structural depth and — where the packet schema is the
    scenario's own, so both talk about the same system — on the
    explicit-state fixpoint."""
    if outcome is None or outcome.status != HOLDS:
        return
    report = recheck_certificate(net, invariant, outcome.certificate, params)
    assert report.ok, report.reason
    assert check(net, invariant, **params).status == "holds"
    if fixpoint:
        assert explicit_verdict(net, invariant, params["n_ports"]) is not True


def _scenario_problems(name):
    """(expected, net, invariant, params) for one violated and one
    holding check of the scenario at size 2 (no failure budgets: the
    proof engines have none)."""
    bundle = build_scenario(name, size=2)
    vmn = bundle.vmn()
    seen = set()
    for check in bundle.checks:
        if check.expected in seen:
            continue
        net, _ = vmn.network_for(check.invariant)
        params = resolve_bmc_params(net, check.invariant, {})
        params.pop("depth")
        params.pop("max_conflicts")
        if params["failure_budget"]:
            continue
        seen.add(check.expected)
        yield check.expected, net, check.invariant, params


# ----------------------------------------------------------------------
# Registry scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestRegistryScenarios:
    def test_states_and_cubes_read_like_their_terms(self, name, core):
        if core is PySatSolver and name not in _PY_CORE_SCENARIOS:
            pytest.skip("pure-Python core: smallest slices only")
        rng = random.Random(name)
        for _, net, invariant, params in _scenario_problems(name):
            ts = TransitionSystem(net, depth=2, **params)
            cubes = sample_models(ts, rng)
            assert len(cubes) >= 50, "too few models to compare"
            for cube in cubes[:10]:
                assert_vocabulary_matches(ts, cube)

    def test_ic3_certificates_stand_on_the_term_level_recheck(self, name, core):
        if core is PySatSolver and name not in _PY_CORE_SCENARIOS:
            pytest.skip("pure-Python core: smallest slices only")
        for expected, net, invariant, params in _scenario_problems(name):
            ts = TransitionSystem(net, depth=2, **params)
            outcome, _ = run_ic3(ts, invariant, _QUERY_CAP)
            assert_sound(net, invariant, params, outcome)
            if expected == "violated":
                assert outcome is None or outcome.status != HOLDS
            elif name in _MUST_CONCLUDE:
                assert outcome is not None and outcome.status == HOLDS

    def test_minimise_keeps_what_the_term_level_pass_keeps(self, name, core):
        if name not in _MUST_CONCLUDE:
            pytest.skip("needs a certificate within the query cap")
        for expected, net, invariant, params in _scenario_problems(name):
            if expected != "holds":
                continue
            ts = TransitionSystem(net, depth=2, **params)
            outcome, _ = run_ic3(ts, invariant, _QUERY_CAP)
            cert = outcome.certificate
            if not cert.clauses:
                continue  # proved at frame 1 with nothing to block
            reference = term_minimize(
                TransitionSystem(net, depth=1, **params), invariant, cert
            )
            cold = minimize_certificate(net, invariant, cert, params)
            warm = minimize_certificate(net, invariant, cert, params, ts=ts)
            assert not cold.budget_exhausted and not warm.budget_exhausted
            assert cold.certificate.clauses == reference
            assert warm.certificate.clauses == reference
            assert cold.solver_checks == warm.solver_checks
            report = recheck_certificate(net, invariant, warm.certificate, params)
            assert report.ok, report.reason


# ----------------------------------------------------------------------
# Hypothesis: tiny networks, middlebox mixes
# ----------------------------------------------------------------------
_TINY = settings(
    # The bounded reference walks ~10 steps per example, which costs the
    # pure-Python core seconds; its share of this file is the registry
    # slices above.
    max_examples=25 if NATIVE_ENABLED else 6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTinyNetworks:
    @_TINY
    @given(problem=tiny_problems())
    def test_ic3_on_literals_agrees_with_the_references(self, problem):
        net, invariant, params = problem
        params = dict(params, failure_budget=0)
        ts = TransitionSystem(net, depth=2, **params)
        outcome, _ = run_ic3(ts, invariant, 2000 if NATIVE_ENABLED else 300)
        # One packet may be too few for the fixpoint's violation: the
        # generated schema is not the invariant's own.
        assert_sound(net, invariant, params, outcome, fixpoint=False)
        for cube in sample_models(ts, random.Random(0), wanted=5, attempts=40):
            assert_vocabulary_matches(ts, cube)
        if outcome is not None and outcome.status == HOLDS \
                and outcome.certificate.clauses:
            cert = outcome.certificate
            reference = term_minimize(
                TransitionSystem(net, depth=1, **params), invariant, cert
            )
            shrunk = minimize_certificate(net, invariant, cert, params, ts=ts)
            assert shrunk.certificate.clauses == reference


# ----------------------------------------------------------------------
# Vocabulary edges
# ----------------------------------------------------------------------
def _multitenant_problem(label_index=0):
    bundle = build_scenario("multitenant", size=2)
    vmn = bundle.vmn()
    holding = [c for c in bundle.checks if c.expected == "holds"]
    check = holding[label_index]
    net, _ = vmn.network_for(check.invariant)
    params = resolve_bmc_params(net, check.invariant, {})
    params.pop("depth")
    params.pop("max_conflicts")
    return net, check.invariant, params


class TestVocabularyEdges:
    def test_unknown_keys_and_values_raise_like_lit_term(self, core):
        net, _, params = _multitenant_problem()
        ts = TransitionSystem(net, depth=2, **params)
        field = ts.fields[0]
        for bad, error in (
            ((("rcv", "no-such-node", 0, False), True), KeyError),
            ((("field", 99, "src"), "x"), KeyError),
            ((("rel", 5, 9), True), KeyError),
            ((field, "no-such-address"), ValueError),
        ):
            with pytest.raises(error):
                ts.lit_term(bad, 0)
            with pytest.raises(error):
                ts.lit_at(bad, 0)
            with pytest.raises(error):
                ts.cube_lits((bad,), 1)

    def test_rigid_literals_are_one_integer_at_every_step(self, core):
        net, _, params = _multitenant_problem()
        ts = TransitionSystem(net, depth=2, **params)
        field = ts.fields[0]
        value = ts.field_var(field).sort.values[-1]
        for lit in ((field, value), (ts.derived[0], True), (ts.derived[0], False)):
            assert ts.lit_at(lit, 0) == ts.lit_at(lit, 1)
        atom = ts.atoms[0]
        assert ts.lit_at((atom, True), 0) != ts.lit_at((atom, True), 1)
        assert ts.lit_at((atom, False), 1) == -ts.lit_at((atom, True), 1)
        # Per step: the field pin, the derived predicate and the atom in
        # both polarities.
        assert ts.vocab_lits == 2 * (1 + 2 + 2)

    def test_a_model_older_than_a_free_variable_reads_it_as_unset(self, core):
        """``state_cube`` compiles its index vectors on first use; a
        field bit nothing constrained yet is allocated then, after the
        model, and reads 0 — as it does term by term."""
        net, invariant, params = _multitenant_problem()
        ts = TransitionSystem(net, depth=2, **params)
        assert ts.check([ts.violation_prefix(invariant, 1)]) in (SAT, UNSAT)
        assert ts.check([]) == SAT
        model = ts.solver.model()
        assert ts.state_cube(model) == term_state_cube(ts, model)


# ----------------------------------------------------------------------
# What a finished search leaves behind (exact counts)
# ----------------------------------------------------------------------
def _compile_whole_vocabulary(ts):
    """Every cube literal the engines can ever ask for, at the two
    steps they use — after this the encoder has nothing left to do."""
    for t in (0, 1):
        for key in ts.atoms + ts.derived:
            ts.lit_at((key, True), t)
        for key in ts.fields:
            for value in ts.field_var(key).sort.values:
                ts.lit_at((key, value), t)


@pytest.mark.parametrize("name", ["isp", "multitenant"])
class TestPooledSolverStaysClean:
    def test_queries_visit_no_term_and_minimise_adds_a_bounded_database(
            self, name, core):
        _, net, invariant, params = next(
            p for p in _scenario_problems(name) if p[0] == "holds"
        )
        ts = TransitionSystem(net, depth=2, **params)
        ts.extend_to(1)
        _compile_whole_vocabulary(ts)
        engine = IC3Engine(ts, invariant)  # encodes bad, noops, Init
        vocab = ts.vocab_lits
        terms = ts.solver.encoder_counters()["terms"]
        outcome = None
        while outcome is None:
            outcome = engine.step()
        engine.retire()
        assert outcome.status == HOLDS
        assert ts.solver.encoder_counters()["terms"] == terms
        cert = outcome.certificate
        before = ts.solver.encoder_counters()
        checks, temp = ts.checks, ts.temp_clauses
        report = minimize_certificate(net, invariant, cert, params, ts=ts)
        after = ts.solver.encoder_counters()
        assert after["terms"] == terms and ts.vocab_lits == vocab
        n = len(cert.clauses)
        lits = sum(map(len, cert.clauses))
        queries = ts.checks - checks
        issued = ts.temp_clauses - temp
        assert queries == report.solver_checks and 0 < issued <= queries
        # Emitted once: a guard clause per cube and a binary per literal;
        # per consecution query one clause and the unit retiring it; at
        # the end one unit per activation literal.  Units are facts, not
        # stored clauses.
        assert after["clauses"] - before["clauses"] == \
            (n + lits) + 2 * issued + 2 * n
        assert (n + lits) + issued <= lits + 2 * n + queries

    def test_the_next_invariant_inherits_a_small_solver(self, name, core):
        """Two proofs on one pooled transition system: two invariants
        of one slice where the scenario has them (multitenant), else
        the same invariant again (isp slices are one invariant each)."""
        bundle = build_scenario(name, size=2)
        vmn = bundle.vmn()
        by_key = {}
        for check in bundle.checks:
            if check.expected != "holds":
                continue
            net, _ = vmn.network_for(check.invariant)
            params = resolve_bmc_params(net, check.invariant, {})
            kwargs = {k: params[k] for k in
                      ("n_packets", "failure_budget", "n_ports", "n_tags")}
            key = encoding_key(net, kwargs) + "|transition"
            by_key.setdefault(key, []).append((net, check.invariant, kwargs))
        key, problems = max(by_key.items(), key=lambda item: len(item[1]))
        pool = SolverPool()
        for warm, (net, invariant, kwargs) in enumerate((problems * 2)[:2]):
            if warm:
                # Parent commit: 15 936 clauses after one invariant's IC3
                # + minimise on the multitenant slice (base encoding 737).
                assert pool._entries[key].solver.stats()["clauses"] <= 7000
            result = prove_portfolio(net, invariant, warm=pool, **kwargs)
            assert result.status == "holds"
            assert result.guarantee == "unbounded"
            assert result.recheck is not None and result.recheck.ok
            assert result.stats["transition_warm"] == bool(warm)


# ----------------------------------------------------------------------
# Seeded mutations must be caught
# ----------------------------------------------------------------------
class TestSeededMutations:
    def test_a_flipped_polarity_for_negative_atoms_is_caught(self, monkeypatch):
        net, invariant, params = _multitenant_problem()
        original = transition_mod._StepVocabulary.__missing__

        def flipped(self, lit):
            code = original(self, lit)
            key, value = lit
            if key[0] != "field" and key[0] not in ("rel", "req"):
                self[(key, False)] = self[(key, True)]  # should be negated
                return self[lit]
            return code

        monkeypatch.setattr(transition_mod._StepVocabulary, "__missing__", flipped)
        ts = TransitionSystem(net, depth=2, **params)
        with pytest.raises(AssertionError, match="cube_lits differs"):
            for cube in sample_models(ts, random.Random(1), wanted=5):
                assert_vocabulary_matches(ts, cube)

    def test_a_single_query_clause_that_is_never_retired_is_caught(self, monkeypatch):
        original = solver_mod.Solver.check

        def never_retire(self, assumptions=(), max_conflicts=None, clause=None):
            emit = self._cnf.add_clause
            self._cnf.add_clause = lambda lits: (
                None if len(lits) == 1 else emit(lits)
            )  # drops the unit that retires the activation literal
            try:
                return original(self, assumptions, max_conflicts, clause)
            finally:
                del self._cnf.add_clause

        monkeypatch.setattr(solver_mod.Solver, "check", never_retire)
        with pytest.raises(AssertionError):
            TestPooledSolverStaysClean().\
                test_queries_visit_no_term_and_minimise_adds_a_bounded_database(
                    "multitenant", SatSolver)
