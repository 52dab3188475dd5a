"""A z3py-flavoured ``Solver`` / ``Model`` facade over the CDCL core.

This is the surface the rest of the repository programs against, shaped
after the small subset of the z3py API that VMN's encoding needs::

    s = Solver()
    s.add(Implies(a, b), Not(b))
    if s.check() == "sat":
        m = s.model()
        print(m[a])

``check`` accepts assumptions (used heavily by the BMC driver to
activate one invariant at a time on a shared network encoding) and an
optional conflict budget, returning ``"unknown"`` when exhausted —
mirroring how the paper leans on Z3's heuristics and timeouts.  An
assumption is a term or the integer :meth:`Solver.literal` already made
of one: the proof engines issue thousands of sub-millisecond queries
over one fixed state vocabulary, so they encode it once and then talk
to the SAT core in integers (:meth:`Solver.add_clause`, ``check``'s
``clause=`` for a clause that lives for one query) — no term is built,
interned or visited per query.

The solver is incremental end-to-end: every assertion is permanent,
learned clauses survive repeated ``check()`` calls, and the shared
:class:`CnfConverter` keeps Tseitin variable allocation stable so
re-asserting a term reuses its existing CNF.  A retractable assertion
is a guarded clause: :meth:`Solver.new_literal` makes the guard,
``add_clause([..., -guard])`` asserts under it, ``check`` assumes it,
and the unit ``add_clause([-guard])`` retires it together with every
learned clause that leaned on it (see :mod:`repro.smt.sat`).
``stats()`` counters are cumulative across calls.

Terms go to the converter as the model built them — one pass, no
lowered copy: ``add`` calls ``assert_term`` and ``check`` calls
``literal`` on each assumption *term*, and each call leaves the
converter's clause buffer empty (see :mod:`repro.smt.cnf`).  Enum-domain
side conditions discovered during a call are asserted right after it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..obs import SolverEventSink, get_registry, get_tracer, solver_counter_snapshot
from .cnf import CnfConverter
from .encode import EnumLowering
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .sorts import EnumSort
from .terms import Term

__all__ = ["Solver", "Model", "SAT", "UNSAT", "UNKNOWN"]


class Model:
    """A satisfying assignment, queried with term evaluation.

    ``model[x]`` returns a Python ``bool`` for boolean variables and the
    enum *value* (string/int) for enum variables.  Compound terms are
    evaluated structurally.

    A model is a snapshot: it holds the SAT core's answer as one
    immutable sequence (:attr:`values`, one 0/1 byte per SAT variable,
    index 0 unused) and keeps reading that answer after later
    ``check`` calls.  A variable the answer does not cover — never
    encoded, or allocated since — reads ``False`` / code 0.
    """

    def __init__(self, solver: "Solver"):
        self._solver = solver
        self.values: Sequence[int] = solver.sat.model
        self._cache: Dict[Term, object] = {}

    def __getitem__(self, term: Term):
        return self.eval(term)

    def eval(self, term: Term):
        """Evaluate ``term`` under this model."""
        cached = self._cache.get(term)
        if cached is not None or term in self._cache:
            return cached
        value = self._eval(term)
        self._cache[term] = value
        return value

    def _eval(self, term: Term):
        kind = term.kind
        if kind == "true":
            return True
        if kind == "false":
            return False
        if kind == "var":
            return self._solver._bool_value(term, self.values)
        if kind == "evar":
            return self._solver._enum_value(term, self.values)
        if kind == "econst":
            return term.payload
        if kind == "not":
            return not self.eval(term.args[0])
        if kind == "and":
            return all(self.eval(a) for a in term.args)
        if kind == "or":
            return any(self.eval(a) for a in term.args)
        if kind == "eq":
            return self.eval(term.args[0]) == self.eval(term.args[1])
        if kind == "ite":
            if self.eval(term.args[0]):
                return self.eval(term.args[1])
            return self.eval(term.args[2])
        raise TypeError(f"cannot evaluate term kind {kind!r}")


class Solver:
    """Incremental finite-domain SMT solver (the Z3 stand-in)."""

    def __init__(self):
        self.sat = SatSolver()
        self._lowering = EnumLowering()
        self._cnf = CnfConverter(self.sat, self._lowering)
        # Stand-in cores (the vendored benchmarks/_sat_reference.py)
        # predate simplify() and the event sink: retired clauses then
        # stay in their database, satisfied, and no sink is attached.
        self._sat_simplify = getattr(self.sat, "simplify", None)
        self._has_events = hasattr(self.sat, "events")
        self._result: Optional[str] = None
        self._assumed: tuple = ((), ())  # last check: (literals, items)

    # ------------------------------------------------------------------
    def add(self, *terms: Term) -> None:
        """Assert one or more boolean terms."""
        for term in terms:
            if not term.is_bool:
                raise TypeError("Solver.add() expects boolean terms")
            self._cnf.assert_term(term)
            self._assert_side_conditions()

    def _assert_side_conditions(self) -> None:
        # Domain constraints define the enum variables themselves (the
        # bit-vector memo never re-emits them).
        for cond in self._lowering.drain_side_conditions():
            self._cnf.assert_term(cond)

    def record_template(self, asserted, defined, params):
        """Encode one instance of a recurring constraint as a
        :class:`repro.smt.cnf.ClauseTemplate` (see
        :meth:`CnfConverter.record`; must precede every other use of
        this solver).  Nothing is asserted yet."""
        template = self._cnf.record(asserted, defined, params)
        self._assert_side_conditions()
        return template

    def assert_template(self, template, params=(), outputs=()) -> None:
        """Assert one instance of ``template``, permanently: the
        recorded one by default, else its copy over ``params`` /
        ``outputs`` (see :meth:`CnfConverter.instantiate`)."""
        self._cnf.instantiate(template, params, outputs)
        self._assert_side_conditions()

    # ------------------------------------------------------------------
    # The integer surface: encode once, then talk in literals
    # ------------------------------------------------------------------
    def literal(self, term: Term) -> int:
        """The SAT literal equivalent to ``term`` in both polarities
        (``-literal`` is its negation); its definitions are permanent
        and emitted once.  What :meth:`check` makes of an assumption
        term — callers that assume the same terms again and again keep
        the integer and pass that."""
        lit = self._cnf.literal(term)
        self._assert_side_conditions()
        return lit

    def new_literal(self) -> int:
        """A fresh unconstrained literal (an activation literal: guard
        clauses with its negation, assume it, retire it with the unit
        ``add_clause([-lit])``)."""
        return self.sat.new_var()

    def add_clause(self, lits: Sequence[int]) -> None:
        """Assert the disjunction of already-encoded literals; goes
        straight to the clause buffer."""
        self._cnf.add_clause(lits)

    def simplify(self) -> None:
        """Have the SAT core collect, now, every clause that units have
        satisfied for good (retired activation literals) instead of at
        its next scheduled simplification."""
        if self._sat_simplify is not None:
            self._sat_simplify()

    def check(
        self,
        assumptions: Iterable[Union[Term, int]] = (),
        max_conflicts: Optional[int] = None,
        clause: Optional[Sequence[int]] = None,
    ) -> str:
        """Decide satisfiability; returns ``"sat"``/``"unsat"``/``"unknown"``.

        Each assumption is a boolean term or an integer literal from
        :meth:`literal` / :meth:`new_literal` (freely mixed; integers
        skip the converter).  ``clause`` is a disjunction of integer
        literals that holds for this query only: it is guarded by a
        fresh activation literal, assumed, and retired with a unit
        before ``check`` returns, so the SAT core's next level-0
        simplification collects it together with every learned clause
        that depended on it.
        """
        items = list(assumptions)
        literal = self.literal
        lits = [a if type(a) is int else literal(a) for a in items]
        self._assumed = (lits, items)
        if clause is None:
            self._result = self._solve(lits, max_conflicts)
            return self._result
        activation = self.sat.new_var()
        self._cnf.add_clause([-activation, *clause])
        try:
            self._result = self._solve(lits + [activation], max_conflicts)
        finally:
            self._cnf.add_clause([-activation])
        return self._result

    def _solve(self, lits: List[int], max_conflicts: Optional[int]) -> str:
        tracer = get_tracer()
        if not tracer.enabled:
            if self._has_events and self.sat.events is not None:
                self.sat.events = None  # observe() scope ended; detach
            return self.sat.solve_with(lits, max_conflicts=max_conflicts)
        # Observability path: one span per solver query, its counter
        # deltas as tags and absorbed into the registry, with the
        # restart/inprocessing event sink attached for the duration.
        registry = get_registry()
        if self._has_events:
            sink = self.sat.events
            if sink is None or sink.tracer is not tracer:
                self.sat.events = SolverEventSink(tracer, registry)
        before = solver_counter_snapshot(self.sat.stats())
        with tracer.span("solve", cat="smt", assumptions=len(lits)) as span:
            result = self.sat.solve_with(lits, max_conflicts=max_conflicts)
            delta = {
                k: v - before[k]
                for k, v in solver_counter_snapshot(self.sat.stats()).items()
            }
            registry.record_solver(delta)
            registry.counter(
                "repro_solver_queries_total", "solver queries issued"
            ).inc(result=result)
            span.tag(result=result, **delta)
        return result

    def unsat_core(self) -> list:
        """The failed assumptions of the last ``unsat`` answer.

        A (not necessarily minimal) subset of the assumptions, each
        handed back as it was passed in (term or integer), that is
        already inconsistent with the assertions (and the query's
        ``clause``).  Empty when those are unsatisfiable on their own.
        """
        if self._result != UNSAT:
            raise RuntimeError(f"no core available (last result: {self._result})")
        item_of = dict(zip(*self._assumed))
        return [item_of[lit] for lit in self.sat.core if lit in item_of]

    def minimal_core(
        self,
        hard: Iterable[Term],
        candidates: Iterable[Term],
        max_conflicts: Optional[int] = None,
    ) -> List[Term]:
        """A minimal subset of ``candidates`` still unsat with ``hard``.

        ``check(hard + candidates)`` must answer ``unsat``.  The result
        is irreducible — dropping any single member makes the query
        satisfiable — but not necessarily globally minimum.  The
        procedure is deterministic for a fixed candidate order: start
        from the solver's (non-minimal) assumption core, then greedily
        try dropping each survivor in order, keeping the drop whenever
        the remainder is still unsat (and re-filtering through the new
        core, which often removes several at once).

        This is the core-to-config mapping surface the blame layer
        (:mod:`repro.provenance.blame`) drives with guard variables as
        candidates; it is generic over any assumption terms.
        """
        hard = list(hard)
        candidates = list(candidates)
        result = self.check(hard + candidates, max_conflicts=max_conflicts)
        if result != UNSAT:
            raise RuntimeError(
                f"minimal_core needs an unsat base query (got {result!r})"
            )
        core_ids = {id(t) for t in self.unsat_core()}
        kept = [t for t in candidates if id(t) in core_ids]
        i = 0
        while i < len(kept):
            trial = kept[:i] + kept[i + 1:]
            if self.check(hard + trial,
                          max_conflicts=max_conflicts) == UNSAT:
                core_ids = {id(t) for t in self.unsat_core()}
                kept = [t for t in trial if id(t) in core_ids]
            else:
                i += 1
        return kept

    def model(self) -> Model:
        """The model of the last ``sat`` answer."""
        if self._result != SAT:
            raise RuntimeError(f"no model available (last result: {self._result})")
        return Model(self)

    def stats(self) -> dict:
        """Cumulative search statistics (see :meth:`SatSolver.stats`).

        Counters (``conflicts``, ``restarts``, ``learned``, and the
        inprocessing pair ``subsumed``/``strengthened``, ...) never
        reset between incremental :meth:`check` calls; diff two
        snapshots to attribute work to one call.  The database gauges
        (``clauses``, ``learnts``) are *current* sizes and may shrink —
        on learned-DB reduction, and when the arena solver's
        inprocessing pass tightens the clause set or collects what a
        retired guard satisfied.
        """
        return self.sat.stats()

    def bits_of(self, enum_term: Term):
        """The boolean bit terms (LSB first) holding ``enum_term``'s
        code in this solver's encoding; value order is code order."""
        return self._lowering.bits_of(enum_term)

    def encoder_counters(self) -> dict:
        """Cumulative encoder work of this solver: ``terms`` (DAG nodes
        visited), ``clauses`` emitted, ``lits`` (int32s handed to the
        SAT core), ``flushes`` (batches) and ``steps_instanced``
        (template instances asserted).  Diff two snapshots."""
        return dict(self._cnf.counters)

    def report_encoding(self, span, since: Optional[dict] = None) -> None:
        """Tag ``span`` with the encoder work done since the snapshot
        ``since`` (default: ever) and absorb it into the registry."""
        since = since or {}
        delta = {k: v - since.get(k, 0) for k, v in self._cnf.counters.items()}
        span.tag(**delta)
        get_registry().record_encoder(delta)

    # ------------------------------------------------------------------
    # Model-extraction plumbing used by Model.
    # ------------------------------------------------------------------
    def _bool_value(self, var_term: Term, values: Sequence[int]) -> bool:
        lit = self._cnf._lit_of.get(var_term)
        if lit is None:
            return False  # unconstrained variable: any value works
        var = abs(lit)
        if var >= len(values):
            return False  # allocated after this answer
        return bool(values[var]) == (lit > 0)

    def _enum_value(self, var_term: Term, values: Sequence[int]):
        sort: EnumSort = var_term.sort  # type: ignore[assignment]
        code = 0
        for i, bit in enumerate(self._lowering.bits_of(var_term)):
            if self._bool_value(bit, values):
                code |= 1 << i
        if code >= sort.size:
            code = 0  # unconstrained bits may decode out of range
        return sort.value_of(code)
