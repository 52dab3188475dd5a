"""A z3py-flavoured ``Solver`` / ``Model`` facade over the CDCL core.

This is the surface the rest of the repository programs against, shaped
after the small subset of the z3py API that VMN's encoding needs::

    s = Solver()
    s.add(Implies(a, b), Not(b))
    if s.check() == "sat":
        m = s.model()
        print(m[a])

``check`` accepts assumption terms (used heavily by the BMC driver to
activate one invariant at a time on a shared network encoding) and an
optional conflict budget, returning ``"unknown"`` when exhausted —
mirroring how the paper leans on Z3's heuristics and timeouts.

The solver is incremental end-to-end: ``push()``/``pop()`` open and
close assertion scopes (activation-literal based, see
:mod:`repro.smt.sat`), learned clauses survive both ``pop()`` and
repeated ``check()`` calls, and the shared :class:`CnfConverter` keeps
Tseitin variable allocation stable so re-asserting a term seen in any
earlier scope reuses its existing CNF.  ``stats()`` counters are
cumulative across calls.

Terms go to the converter as the model built them — one pass, no
lowered copy: ``add`` calls ``assert_term`` and ``check`` calls
``literal`` on each assumption, and each call leaves the converter's
clause buffer empty (see :mod:`repro.smt.cnf`).  Enum-domain side
conditions discovered during a call are asserted right after it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..obs import SolverEventSink, get_registry, get_tracer, solver_counter_snapshot
from .cnf import CnfConverter
from .encode import EnumLowering, bit_name
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .sorts import EnumSort
from .terms import BoolVar, Term

__all__ = ["Solver", "Model", "SAT", "UNSAT", "UNKNOWN"]


class Model:
    """A satisfying assignment, queried with term evaluation.

    ``model[x]`` returns a Python ``bool`` for boolean variables and the
    enum *value* (string/int) for enum variables.  Compound terms are
    evaluated structurally.
    """

    def __init__(self, solver: "Solver"):
        self._solver = solver
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
            return self._solver._bool_value(term)
        if kind == "evar":
            return self._solver._enum_value(term)
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
        self.assertions: List[Term] = []
        self._result: Optional[str] = None
        self._assumption_terms: Dict[int, Term] = {}
        self._scope_marks: List[int] = []  # len(assertions) at each push

    # ------------------------------------------------------------------
    def add(self, *terms: Term) -> None:
        """Assert one or more boolean terms."""
        for term in terms:
            if not term.is_bool:
                raise TypeError("Solver.add() expects boolean terms")
            self.assertions.append(term)
            self._cnf.assert_term(term)
            self._assert_side_conditions()

    def _assert_side_conditions(self) -> None:
        # Domain constraints define the enum variables themselves; they
        # must survive the scope that happened to mention a variable
        # first (the bit-vector memo never re-emits them).
        for cond in self._lowering.drain_side_conditions():
            self._cnf.assert_term(cond, permanent=True)

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
    # Assertion scopes
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open an assertion scope (z3-style).

        Assertions added until the matching :meth:`pop` are retracted
        with it; learned clauses that do not depend on them are kept.
        """
        self.sat.push()
        self._scope_marks.append(len(self.assertions))

    def pop(self) -> None:
        """Close the innermost scope, retracting its assertions."""
        if not self._scope_marks:
            raise RuntimeError("pop without matching push")
        mark = self._scope_marks.pop()
        del self.assertions[mark:]
        self.sat.pop()
        self._result = None

    @property
    def num_scopes(self) -> int:
        return len(self._scope_marks)

    def check(
        self,
        assumptions: Iterable[Term] = (),
        max_conflicts: Optional[int] = None,
    ) -> str:
        """Decide satisfiability; returns ``"sat"``/``"unsat"``/``"unknown"``."""
        lits = []
        self._assumption_terms = {}
        for term in assumptions:
            lit = self._cnf.literal(term)
            self._assert_side_conditions()
            lits.append(lit)
            self._assumption_terms[lit] = term
        tracer = get_tracer()
        if not tracer.enabled:
            # getattr: stand-in solvers (the vendored pre-rewrite SAT
            # core in benchmarks/_sat_reference.py) predate the event
            # sink and carry no ``events`` slot.
            if getattr(self.sat, "events", None) is not None:
                self.sat.events = None  # observe() scope ended; detach
            self._result = self.sat.solve_with(lits, max_conflicts=max_conflicts)
            return self._result
        # Observability path: one span per solver query, its counter
        # deltas as tags and absorbed into the registry, with the
        # restart/inprocessing event sink attached for the duration.
        registry = get_registry()
        sink = getattr(self.sat, "events", None)
        if sink is None or sink.tracer is not tracer:
            try:
                self.sat.events = SolverEventSink(tracer, registry)
            except AttributeError:  # __slots__ solver without the field
                pass
        before = solver_counter_snapshot(self.sat.stats())
        with tracer.span("solve", cat="smt", assumptions=len(lits)) as span:
            self._result = self.sat.solve_with(lits, max_conflicts=max_conflicts)
            delta = {
                k: v - before[k]
                for k, v in solver_counter_snapshot(self.sat.stats()).items()
            }
            registry.record_solver(delta)
            registry.counter(
                "repro_solver_queries_total", "solver queries issued"
            ).inc(result=self._result)
            span.tag(result=self._result, **delta)
        return self._result

    def unsat_core(self) -> List[Term]:
        """The failed assumptions of the last ``unsat`` answer.

        A (not necessarily minimal) subset of the assumption terms that
        is already inconsistent with the assertions.  Empty when the
        assertions are unsatisfiable on their own.
        """
        if self._result != UNSAT:
            raise RuntimeError(f"no core available (last result: {self._result})")
        return [
            self._assumption_terms[lit]
            for lit in self.sat.core
            if lit in self._assumption_terms
        ]

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
        on ``pop()``, on learned-DB reduction, and when the arena
        solver's inprocessing pass tightens the permanent clause set.
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
    def _bool_value(self, var_term: Term) -> bool:
        lit = self._cnf._lit_of.get(var_term)
        if lit is None:
            return False  # unconstrained variable: any value works
        value = self.sat.value(abs(lit))
        if value is None:
            return False
        return value if lit > 0 else not value

    def _enum_value(self, var_term: Term):
        sort: EnumSort = var_term.sort  # type: ignore[assignment]
        code = 0
        for i in range(sort.nbits):
            bit_var = BoolVar(bit_name(var_term.payload, i))
            if self._bool_value(bit_var):
                code |= 1 << i
        if code >= sort.size:
            code = 0  # unconstrained bits may decode out of range
        return sort.value_of(code)
