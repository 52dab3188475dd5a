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
(:meth:`assert_term`, :meth:`literal`) returns**, so ``push``/``pop``/
``solve``/``stats`` need no flush hook.  A scoped assertion's selector
is written into its record when the record is buffered.

Variable allocation is *stable across solver scopes*: definition
clauses only ever constrain a subterm's fresh Tseitin variable relative
to its arguments' variables, so they are valid in every scope and are
added to the solver permanently (outside any ``push()`` scope).  Only
the top-level unit clause of :meth:`assert_term` is scoped.  Popping a
scope therefore never invalidates the memo tables: re-encoding a term
seen in any earlier scope reuses its CNF — same variables, no new
clauses — which is what keeps warm incremental solving cheap.

Permanence also matters to the solver's clause arena: permanent
definitions form the long-lived clause population that inprocessing
(subsumption / self-subsuming resolution) is allowed to tighten, and
stable variable numbering means a warm solver's learned clauses keep
referring to the same subterms across every scope and deepening step.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Dict, List, Tuple

from .encode import EnumLowering
from .sat import PySatSolver, SatSolver
from .terms import FALSE, TRUE, Term

__all__ = ["CnfConverter"]

POS = 1
NEG = 2
BOTH = POS | NEG
_FLIP = (0, NEG, POS, BOTH)  # polarity mask seen through a negation


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
        #: Cumulative encoder work: DAG nodes visited, clause records
        #: emitted, int32s handed to the SAT core, batches flushed.
        self.counters = {"terms": 0, "clauses": 0, "lits": 0, "flushes": 0}

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

    def assert_term(self, term: Term, permanent: bool = False) -> None:
        """Assert ``term`` (it must hold in every model).

        In a solver scope the assertion is retracted by the matching
        ``pop()``; ``permanent=True`` asserts it in the root scope
        (used for enum-domain side conditions, which define what an
        enum variable *is* and must outlive any scope that first
        mentioned it).
        """
        if term is TRUE:
            return
        self._encode(term, POS)
        unit = [self._lit(term)]
        scopes = self.sat._scopes  # shared by every core, stand-ins included
        if scopes and not permanent:
            unit.append(-scopes[-1])
        self._buf.append(len(unit))
        self._buf.extend(unit)
        self.counters["clauses"] += 1
        self._flush()

    def var_literal(self, term: Term) -> int:
        """The literal of an already-encoded term, if any."""
        lit = self._lit_of.get(term)
        if lit is None:
            raise KeyError(f"term not encoded: {term!r}")
        return lit
