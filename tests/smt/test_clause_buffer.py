"""Edges of the flat clause buffer between the CNF converter and the cores.

The converter appends ``[len, lit, ...]`` records to one ``array('i')``
and hands it to ``SatSolver.add_clauses`` before each public call
returns; these tests pin the contract on both cores.
"""

from array import array

import pytest

import repro.smt.solver as solver_mod
from repro.smt import And, BoolVar, EnumSort, EnumVar, Eq, Not, Or, Solver
from repro.smt.cnf import CnfConverter
from repro.smt.encode import EnumLowering
from repro.smt.sat import NATIVE_ENABLED, SAT, UNSAT, PySatSolver, SatSolver

CORES = [PySatSolver] + ([SatSolver] if NATIVE_ENABLED else [])
both_cores = pytest.mark.parametrize("core", CORES, ids=lambda c: c.__name__)


def _records(buf):
    out, i = [], 0
    while i < len(buf):
        out.append(list(buf[i + 1:i + 1 + buf[i]]))
        i += 1 + buf[i]
    return out


def _recording_converter(sat):
    """A converter on ``sat`` plus the list its flushed batches land in."""
    batches = []
    real = sat.add_clauses

    def add_clauses(buf):
        batches.append(_records(buf))
        return real(buf)

    sat.add_clauses = add_clauses  # the converter binds it at construction
    return CnfConverter(sat, EnumLowering()), batches


class _NoBatchCore:
    """A core without ``add_clauses``, like the vendored reference
    solver in ``benchmarks/_sat_reference.py``."""

    def __init__(self):
        self._core = SatSolver()

    def __getattr__(self, name):
        if name == "add_clauses":
            raise AttributeError(name)
        return getattr(self._core, name)


@both_cores
class TestGuardedRecords:
    def test_only_the_guarded_root_carries_the_guard(self, core):
        sat = core()
        cnf, batches = _recording_converter(sat)
        a, b, c = BoolVar("a"), BoolVar("b"), BoolVar("c")
        guard = sat.new_var()
        root = cnf.literal(And(a, c))
        definitions = batches[-1]
        cnf.add_clause([root, -guard])
        assert batches[-1] == [[root, -guard]]
        assert all(guard not in map(abs, rec) for rec in definitions)
        cnf.assert_term(Or(a, b))  # a live guard changes no other record
        assert batches[-1][-1] == [cnf.var_literal(Or(a, b))]
        assert len(cnf._buf) == 0  # empty whenever a public call returns

    def test_retiring_retracts_the_assertion_but_keeps_its_definitions(self, core):
        sat = core()
        cnf, batches = _recording_converter(sat)
        a, b = BoolVar("a"), BoolVar("b")
        guard = sat.new_var()
        lit = cnf.literal(And(a, b))
        cnf.add_clause([lit, -guard])
        assert sat.solve([guard, -cnf.var_literal(a)]) == UNSAT
        sat.add_clause([-guard])
        sat.simplify()
        assert sat.solve([-cnf.var_literal(a)]) == SAT
        before = len(batches)
        assert cnf.literal(And(a, b)) == lit  # reused: nothing re-emitted
        assert len(batches) == before
        assert sat.solve([lit, -cnf.var_literal(b)]) == UNSAT


@both_cores
class TestBatchSemantics:
    def test_conflicting_units_in_a_batch_make_the_solver_unsat(self, core):
        sat = core()
        a, b = sat.new_var(), sat.new_var()
        assert sat.add_clauses(array("i", [1, a, 1, -a, 2, a, b])) is False
        assert sat.add_clause([b]) is False
        assert sat.solve() == UNSAT

    def test_empty_clause_in_a_batch_makes_the_solver_unsat(self, core):
        sat = core()
        a = sat.new_var()
        assert sat.add_clauses(array("i", [1, a, 0])) is False
        assert sat.solve() == UNSAT

    def test_empty_batch_is_a_no_op(self, core):
        sat = core()
        assert sat.add_clauses(array("i")) is True
        assert sat.solve() == SAT

    @pytest.mark.parametrize("bad", [0, 4, -4])
    def test_unknown_literal_mid_batch_raises_after_earlier_records(self, core, bad):
        sat = core()
        a, b, c = sat.new_var(), sat.new_var(), sat.new_var()
        with pytest.raises(ValueError):
            sat.add_clauses(array("i", [2, a, b, 2, -a, bad, 2, b, c]))
        assert sat.stats()["clauses"] == 1  # the record before it was added
        assert sat.solve([-b]) == SAT and sat.value(a) is True

    @pytest.mark.parametrize("buf", [[3, 1, 2], [-1, 1], [2, 1, 2, 5]])
    def test_malformed_record_length_raises(self, core, buf):
        sat = core()
        sat.new_var(), sat.new_var()
        with pytest.raises(ValueError):
            sat.add_clauses(array("i", buf))

    def test_converter_buffer_is_empty_even_when_the_core_raises(self, core):
        sat = core()
        cnf = CnfConverter(sat, EnumLowering())
        cnf._buf.extend([1, 99])  # a record naming no variable
        with pytest.raises(ValueError):
            cnf.assert_term(BoolVar("a"))
        assert len(cnf._buf) == 0


@pytest.mark.skipif(not NATIVE_ENABLED, reason="no C compiler")
def test_native_core_rejects_a_non_int32_buffer():
    sat = SatSolver()
    sat.new_var()
    with pytest.raises(TypeError):
        sat.add_clauses(array("q", [1, 1]))


def test_batched_and_per_clause_paths_build_the_same_database(monkeypatch):
    """``stats()["clauses"]`` after ``Solver.add`` on a core with the
    batch entry point equals the per-record ``add_clause`` fallback's."""
    sort = EnumSort("cb5", tuple(range(5)))
    x, y = EnumVar("cb_x", sort), EnumVar("cb_y", sort)
    p, q = BoolVar("cb_p"), BoolVar("cb_q")
    terms = [Or(p, Eq(x, y)), Or(Not(p), And(q, Not(Eq(x, y)))), Or(q, p)]

    def build():
        s = Solver()
        guard = s.new_literal()
        s.add(*terms[1:])
        s.add_clause([s.literal(terms[0]), -guard])
        return s, guard

    batched, guard = build()
    monkeypatch.setattr(solver_mod, "SatSolver", _NoBatchCore)
    per_clause, _ = build()
    assert not hasattr(per_clause.sat, "add_clauses")
    assert batched.stats() == per_clause.stats()
    assert batched._cnf.counters == per_clause._cnf.counters
    assert batched.check([guard]) == per_clause.check([guard]) == SAT
