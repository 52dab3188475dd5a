"""The solver counters contract.

``SatSolver.stats()`` feeds ``Solver.stats()``, the per-check deltas in
:mod:`repro.netmodel.bmc` and ultimately the ``repro audit --json``
schema, so its shape and semantics are a public contract: the work
counters are *cumulative* — monotone non-decreasing across ``solve``
calls, guard retirement and inprocessing — while the database gauges
(``clauses``, ``learnts``) may shrink.  These tests pin that contract
so a solver-internals rewrite (like the PR-6 arena pass) cannot
silently change what the counters mean.
"""

from repro.netmodel.bmc import SOLVER_COUNTERS
from repro.smt import BoolVar, Not, Or, Solver
from repro.smt.sat import SAT, UNSAT, SatSolver

#: The exact stats() schema: cumulative work counters + database gauges.
EXPECTED_KEYS = {
    "vars", "clauses", "learnts",
    "conflicts", "decisions", "propagations", "restarts", "learned",
    "subsumed", "strengthened",
}


def pigeonhole(s, holes, selector=None):
    """holes+1 pigeons into `holes` holes, optionally selector-guarded."""
    guard = [-selector] if selector else []
    var = {}
    for p in range(holes + 1):
        for h in range(holes):
            var[p, h] = s.new_var()
    for p in range(holes + 1):
        s.add_clause(guard + [var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                s.add_clause(guard + [-var[p1, h], -var[p2, h]])


class TestSchema:
    def test_stats_keys_exact(self):
        assert set(SatSolver().stats()) == EXPECTED_KEYS

    def test_bmc_counters_are_a_stats_subset(self):
        """Every counter the BMC layer (and audit --json) reports must
        exist in stats() — this is the wire between the two schemas."""
        stats = SatSolver().stats()
        assert set(SOLVER_COUNTERS) <= set(stats)
        for key in SOLVER_COUNTERS:
            assert isinstance(stats[key], int)

    def test_facade_passthrough(self):
        s = Solver()
        a = BoolVar("cnt_a")
        s.add(Or(a, Not(a)))
        assert s.check() == "sat"
        assert set(SOLVER_COUNTERS) <= set(s.stats())


class TestMonotonicity:
    def _snapshot(self, s):
        stats = s.stats()
        return {k: stats[k] for k in SOLVER_COUNTERS}

    def _assert_monotone(self, before, after):
        for key in SOLVER_COUNTERS:
            assert after[key] >= before[key], key

    def test_counters_never_decrease_across_solves_and_guards(self):
        s = SatSolver()
        history = [self._snapshot(s)]

        def step(expect, fn):
            result = fn()
            if expect is not None:
                assert result == expect
            history.append(self._snapshot(s))
            self._assert_monotone(history[-2], history[-1])

        pigeonhole(s, 4)
        step(UNSAT, s.solve)  # real search: conflicts, decisions, learning
        # UNSAT is a property of the *database*, not of solver state:
        # counters keep growing, verdict stays.
        s2 = SatSolver()
        sel = s2.new_var()
        pigeonhole(s2, 4, selector=sel)
        history2 = [self._snapshot(s2)]
        assert s2.solve([sel]) == UNSAT
        history2.append(self._snapshot(s2))
        self._assert_monotone(history2[0], history2[1])
        s2.add_clause([-sel])
        s2.simplify()  # collection shrinks the database...
        history2.append(self._snapshot(s2))
        self._assert_monotone(history2[1], history2[2])  # ...not the counters
        assert s2.solve() == SAT
        history2.append(self._snapshot(s2))
        self._assert_monotone(history2[2], history2[3])

    def test_work_counters_actually_count(self):
        s = SatSolver()
        pigeonhole(s, 4)
        assert s.solve() == UNSAT
        stats = s.stats()
        assert stats["conflicts"] > 0
        assert stats["propagations"] > 0
        assert stats["decisions"] > 0
        assert stats["learned"] > 0
        # Deltas between two snapshots are what audit --json reports
        # per check; a second identical query must cost *some* work
        # (assumption placement propagates) but adds no new clauses.
        before = stats
        assert s.solve() == UNSAT
        after = s.stats()
        assert after["conflicts"] >= before["conflicts"]


class TestInprocessingCounters:
    def test_subsumption_counters_advance_and_preserve_verdicts(self):
        """Past the DB-size trigger, solve() runs inprocessing; the new
        ``subsumed``/``strengthened`` counters record its work and the
        formula's meaning is untouched."""
        s = SatSolver()
        pairs = 1100  # past the 2000-clause inprocessing trigger
        for _ in range(pairs):
            a, b, c = s.new_var(), s.new_var(), s.new_var()
            s.add_clause([a, b])
            s.add_clause([a, b, c])  # subsumed by [a, b]
        assert s.solve() == SAT
        stats = s.stats()
        assert stats["subsumed"] > 0
        assert stats["clauses"] <= 2 * pairs - stats["subsumed"]
        # Self-subsuming resolution: [x, y] against [x, -y] strengthens
        # to the unit [x] (checked via the model).
        s2 = SatSolver()
        x, y = s2.new_var(), s2.new_var()
        filler = [s2.new_var() for _ in range(40)]
        for i in range(2400):  # reach the trigger with irrelevant clauses
            s2.add_clause([filler[i % 40], filler[(i * 7 + 1) % 40],
                           -filler[(i * 3 + 2) % 40]])
        s2.add_clause([x, y])
        s2.add_clause([x, -y])
        assert s2.solve() == SAT
        assert s2.value(x) is True
        assert s2.stats()["strengthened"] >= 1
        # Verdict survives inprocessing: force x false -> UNSAT.
        assert s2.solve([-x]) == UNSAT
        assert s2.core == [-x]
