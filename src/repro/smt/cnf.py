"""One-pass Tseitin/Plaisted-Greenbaum transformation from model terms to CNF.

The converter is incremental: a single :class:`CnfConverter` is shared
by all :meth:`Solver.add` calls so that subterms common to several
assertions are encoded once.  It consumes the model's terms *directly*:
constructors in :mod:`repro.smt.terms` normalise every boolean
connective to ``and`` / ``or`` / ``not`` over variables, constants and
enum equalities, and an ``eq`` node is a Tseitin leaf defined here as
the conjunction of per-bit equivalences of its operands' bit vectors
(:meth:`repro.smt.encode.EnumLowering.bits_of`).  No intermediate
boolean DAG is built; each node is visited once per polarity.

Encoding is *polarity-aware* (Plaisted-Greenbaum): a definition clause
set is emitted only for the directions in which a subterm is actually
used, roughly halving the clause count of the network formulas.  The
:meth:`literal` entry point (used for solver assumptions) requests both
polarities, so assumption literals remain fully equivalent to their
terms.

Clauses leave as ``[len, lit, ...]`` records in one flat ``array('i')``
handed to :meth:`SatSolver.add_clauses` in a single call.  **Buffer
invariant: the buffer is empty whenever a public converter call
(:meth:`assert_term`, :meth:`literal`, :meth:`add_clause`) returns**,
so ``solve``/``simplify``/``stats`` need no flush hook.

A clause set that recurs with only its variables changed — the
network model's transition relation, once per timestep — is encoded
once: :meth:`CnfConverter.record` runs the ordinary pass over one
instance and keeps the records that mention a per-instance variable as
a :class:`ClauseTemplate`; :meth:`CnfConverter.instantiate` re-emits
them through a variable table (no term is built or walked again).

Variable allocation is *stable for the solver's lifetime*: definition
clauses only ever constrain a subterm's fresh Tseitin variable relative
to its arguments' variables, so they hold whatever else is asserted or
retracted and are never guarded.  A caller that wants an assertion
back guards its top-level clause instead (:meth:`literal` +
:meth:`add_clause` with the guard's negation; see :mod:`repro.smt.sat`),
so retiring a guard never invalidates the memo tables: re-encoding a
term seen earlier reuses its CNF — same variables, no new clauses —
and a warm solver's learned clauses keep referring to the same
subterms across every guard and deepening step.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence, Tuple

from .encode import EnumLowering
from .sat import PySatSolver, SatSolver
from .terms import FALSE, TRUE, Term

__all__ = ["CnfConverter", "ClauseTemplate"]

POS = 1
NEG = 2
BOTH = POS | NEG
_FLIP = (0, NEG, POS, BOTH)  # polarity mask seen through a negation


@dataclass(frozen=True)
class ClauseTemplate:
    """Clause records with holes, made by :meth:`CnfConverter.record`.

    The recorded variables fall into three classes: *rigid* ones (every
    variable and subterm that mentions no parameter — shared by all
    instances, their definitions already in the solver), *holes* (the
    parameter bits and the defined outputs, supplied per instance) and
    *locals* (Tseitin variables of subterms that do mention a
    parameter — fresh per instance, one block).  ``slots`` holds one
    index per recorded int into a per-instance value table laid out as
    ``[clause lengths | +rigid +holes +locals | -rigid -holes -locals]``,
    so instantiating is a slice fill and one C-level ``map``.
    """

    slots: array      # value-table index per templated int
    base: List[int]   # value table with lengths and rigid variables filled
    roots: List[int]  # literals asserting the recorded instance
    clauses: int      # records per instance
    lengths: int      # table entries holding clause lengths
    rigid: int        # variables shared by every instance
    holes: int        # parameter bits + outputs per instance
    local: int        # fresh Tseitin variables per instance


class CnfConverter:
    """Encodes model terms into a :class:`SatSolver`, memoising nodes."""

    def __init__(self, sat: SatSolver, lowering: EnumLowering):
        self.sat = sat
        self._bits_of = lowering.bits_of
        self._lit_of: Dict[Term, int] = {}
        self._done: Dict[Term, int] = {}  # polarity mask already emitted
        self._iff_var: Dict[Tuple[Term, Term], int] = {}  # eq bit pairs
        self._true_var: int = 0  # allocated on demand
        self._buf = array("i")
        # Stand-in cores without the batch entry point (the vendored
        # benchmarks/_sat_reference.py) get one add_clause per record:
        # the pure-Python core's loop, applied to them.
        self._add_clauses = getattr(sat, "add_clauses", None) or partial(
            PySatSolver.add_clauses, sat
        )
        self._new_vars = getattr(sat, "new_vars", None) or partial(
            PySatSolver.new_vars, sat
        )
        #: Cumulative encoder work: DAG nodes visited, clause records
        #: emitted, int32s handed to the SAT core, batches flushed,
        #: template instances emitted.
        self.counters = {"terms": 0, "clauses": 0, "lits": 0, "flushes": 0,
                         "steps_instanced": 0}

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        buf = self._buf
        if buf:
            self.counters["lits"] += len(buf)
            self.counters["flushes"] += 1
            try:
                self._add_clauses(buf)
            finally:
                del buf[:]  # the invariant holds even if the core raises

    def _const_true(self) -> int:
        if self._true_var == 0:
            self._true_var = self.sat.new_var()
            self._buf.extend((1, self._true_var))
            self.counters["clauses"] += 1
        return self._true_var

    def _lit(self, node: Term) -> int:
        """The (possibly fresh) literal naming ``node``; no clauses."""
        lit = self._lit_of.get(node)
        if lit is not None:
            return lit
        kind = node.kind
        if kind == "not":
            lit = -self._lit(node.args[0])
        elif kind == "true":
            lit = self._const_true()
        elif kind == "false":
            lit = -self._const_true()
        elif kind in ("var", "and", "or", "eq"):
            lit = self.sat.new_var()
        else:
            raise TypeError(f"cannot CNF-encode term kind {kind!r}")
        self._lit_of[node] = lit
        return lit

    def _eq_bits(self, node: Term, need: int, stack: list) -> List[int]:
        """One literal per bit position of ``eq`` node: true iff the
        operands agree there.  Pushes the bit terms to encode."""
        out: List[int] = []
        ext = self._buf.extend
        a_bits = self._bits_of(node.args[0])
        b_bits = self._bits_of(node.args[1])
        for x, y in zip(a_bits, b_bits):
            if x is y:
                continue
            if x is TRUE or x is FALSE:
                x, y = y, x
            if y is TRUE:
                out.append(self._lit(x))
                stack.append((x, need))
            elif y is FALSE:
                out.append(-self._lit(x))
                stack.append((x, _FLIP[need]))
            else:  # fresh e <-> (x <-> y), in the polarity needed
                e = self._iff_var.get((x, y))
                if e is None:
                    e = self._iff_var[(x, y)] = self.sat.new_var()
                p, q = self._lit(x), self._lit(y)
                if need & POS:
                    ext((3, -e, -p, q, 3, -e, p, -q))
                if need & NEG:
                    ext((3, e, p, q, 3, e, -p, -q))
                self.counters["clauses"] += 2 if need != BOTH else 4
                out.append(e)
                stack.append((x, BOTH))
                stack.append((y, BOTH))
        return out

    def _encode(self, root: Term, polarity: int) -> None:
        """Buffer definition clauses for ``root`` in the given polarity."""
        done = self._done
        lit_of = self._lit_of
        get_lit = self._lit
        ext = self._buf.extend
        visited = clauses = 0
        stack: List[Tuple[Term, int]] = [(root, polarity)]
        while stack:
            node, pol = stack.pop()
            have = done.get(node, 0)
            need = pol & ~have
            if not need:
                continue
            done[node] = have | need
            visited += 1
            kind = node.kind
            if kind == "not":
                stack.append((node.args[0], _FLIP[need]))
                continue
            if kind == "and" or kind == "or":
                arg_lits = []
                for a in node.args:
                    lit = lit_of.get(a)
                    arg_lits.append(get_lit(a) if lit is None else lit)
                    stack.append((a, need))
            elif kind == "eq":
                arg_lits = self._eq_bits(node, need, stack)
            else:
                continue  # var / true / false: nothing to define
            v = lit_of.get(node) or get_lit(node)
            if kind == "or":  # De Morgan: encode as the negated "and"
                v = -v
                arg_lits = [-lit for lit in arg_lits]
                need = _FLIP[need]
            if need & POS:  # v -> each arg
                for lit in arg_lits:
                    ext((2, -v, lit))
                clauses += len(arg_lits)
            if need & NEG:  # all args -> v
                ext((len(arg_lits) + 1, v))
                ext([-lit for lit in arg_lits])
                clauses += 1
        self.counters["terms"] += visited
        self.counters["clauses"] += clauses

    # ------------------------------------------------------------------
    def literal(self, term: Term) -> int:
        """A literal fully equivalent to ``term`` (both polarities).

        Use for assumptions, where the literal constrains the term both
        ways."""
        self._encode(term, BOTH)
        lit = self._lit(term)
        self._flush()
        return lit

    def assert_term(self, term: Term) -> None:
        """Assert ``term`` (it must hold in every model)."""
        if term is TRUE:
            return
        self._encode(term, POS)
        self.add_clause([self._lit(term)])

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add one clause of already-encoded literals — no term is
        visited."""
        record = array("i", lits)  # a non-int32 raises before buffering
        self._buf.append(len(record))
        self._buf.extend(record)
        self.counters["clauses"] += 1
        self._flush()

    # ------------------------------------------------------------------
    # Clause templates
    # ------------------------------------------------------------------
    def _hole_lits(self, params: Sequence[Term], outputs: Sequence[Term]) -> List[int]:
        """The literals of one instance's holes, allocated on demand:
        each boolean parameter, each enum parameter's bits, each output."""
        lits: List[int] = []
        for p in params:
            if p.is_bool:
                lits.append(self._lit(p))
            else:
                lits.extend(map(self._lit, self._bits_of(p)))
        lits.extend(map(self._lit, outputs))
        return lits

    def record(self, asserted: Sequence[Term], defined: Sequence[Tuple[Term, Term]],
               params: Sequence[Term]) -> ClauseTemplate:
        """Encode one instance of a recurring constraint and keep it as
        a template over ``params`` (boolean or enum variables).

        ``asserted`` terms hold in every instance; each ``(var, term)``
        of ``defined`` makes the fresh boolean variable ``var``
        equivalent to the compound ``term`` (``var`` *is* the term's
        Tseitin variable, defined in both polarities).  Only
        definitions reach the solver here; the recorded instance itself
        is asserted by ``instantiate(template)`` and further ones by
        ``instantiate(template, params, outputs)``.  Must be the
        converter's first encoding: a subterm encoded earlier would be
        missing from the recording.  Variables are allocated in the
        order the ordinary pass meets them (none up front for the
        holes): the SAT core's first decisions follow that order, and
        the proof engines' search is sensitive to it.
        """
        if self._lit_of:
            raise ValueError("record() must be a converter's first encoding")
        lit_of = self._lit_of
        for term in asserted:
            self._encode(term, POS)
        for var, term in defined:
            if var in lit_of or term.kind not in ("and", "or"):
                raise ValueError(f"cannot define {var!r} as {term!r}")
            self._encode(term, BOTH)
            lit_of[var] = self._lit(term)
        holes = self._hole_lits(params, [var for var, _ in defined])
        roots = [self._lit(t) for t in asserted if t is not TRUE]
        recorded = array("i", self._buf)
        self._flush()

        # Classify: a compound subterm's variable is local when the
        # subterm mentions a parameter; everything else is rigid.
        varying: Dict[Term, bool] = dict.fromkeys(params, True)
        for p in params:
            if not p.is_bool:
                varying.update(dict.fromkeys(self._bits_of(p), True))

        def varies(term: Term) -> bool:
            known = varying.get(term)
            if known is None:
                known = varying[term] = any(map(varies, term.args))
            return known

        taken = set(holes)
        local = [
            lit for node, lit in lit_of.items()
            if node.kind in ("and", "or", "eq") and lit not in taken
            and varies(node)
        ]
        local.extend(
            e for (x, y), e in self._iff_var.items() if varies(x) or varies(y)
        )
        taken.update(local)
        if len(taken) != len(holes) + len(local):
            raise ValueError("template parameters and outputs must be distinct")
        rigid = [v for v in range(1, self.sat.nvars + 1) if v not in taken]
        # Column of each variable in the value table: rigid, holes, locals.
        index = {v: i for i, v in enumerate(rigid + holes + local)}

        records: List[Tuple[int, ...]] = []
        i, n = 0, len(recorded)
        while i < n:
            end = i + 1 + recorded[i]
            clause = tuple(recorded[i + 1:end])
            if any(abs(lit) in taken for lit in clause):  # else rigid: in already
                records.append(clause)
            i = end
        records.extend((lit,) for lit in roots)
        lengths = max(map(len, records), default=0) + 1
        size = len(index)
        slots = array("i")
        for clause in records:
            slots.append(len(clause))
            slots.extend(
                lengths + index[lit] if lit > 0 else lengths + size + index[-lit]
                for lit in clause
            )
        base = list(range(lengths)) + [0] * (2 * size)
        for v in rigid:
            base[lengths + index[v]] = v
            base[lengths + size + index[v]] = -v
        return ClauseTemplate(slots, base, roots, len(records), lengths,
                              len(rigid), len(holes), len(local))

    def instantiate(self, template: ClauseTemplate,
                    params: Sequence[Term] = (), outputs: Sequence[Term] = ()) -> None:
        """Assert one instance of ``template``: the recorded one when no
        ``params`` are given (its definitions are in the solver already,
        so only the root units are), otherwise a copy over ``params`` /
        ``outputs`` — same order and sorts as at :meth:`record`."""
        buf = self._buf
        if not params and not outputs:
            for lit in template.roots:
                buf.extend((1, lit))
            self.counters["clauses"] += len(template.roots)
        else:
            holes = self._hole_lits(params, outputs)
            if len(holes) != template.holes:
                raise ValueError("instance does not match the template's holes")
            values = template.base[:]
            size = (len(values) - template.lengths) // 2
            lo = template.lengths + template.rigid
            hi = lo + template.holes
            values[lo:hi] = holes
            values[lo + size:hi + size] = [-lit for lit in holes]
            first = self._new_vars(template.local)
            values[hi:hi + template.local] = range(first, first + template.local)
            values[hi + size:] = range(-first, -first - template.local, -1)
            buf.extend(map(values.__getitem__, template.slots))
            self.counters["clauses"] += template.clauses
        self.counters["steps_instanced"] += 1
        self._flush()

    def var_literal(self, term: Term) -> int:
        """The literal of an already-encoded term, if any."""
        lit = self._lit_of.get(term)
        if lit is None:
            raise KeyError(f"term not encoded: {term!r}")
        return lit
