"""The network encoding as a transition system with a free initial state.

The BMC driver pins every history predicate (``rcv_before``,
``sent_to_net_before``, ``failed_at``) to *false* at time 0 — schedules
start from the empty network.  Unbounded proof engines instead reason
from an **arbitrary** starting state: :class:`TransitionSystem` is the
same :class:`repro.netmodel.unrolling.Unrolling` with the time-0 state
variables (the *state atoms*) left free.  The step template then acts
as the transition relation over that state vector, and the invariant's
violation term becomes the "bad event" predicate.

The state of a schedule point is the pair (state atoms, rigid
variables): packet fields and oracle choices never change over time, so
they behave as frozen state the proof engines may pin in cubes.

Quantifying over genuinely arbitrary states is sound (it
over-approximates reachability) but needlessly loose; the
**state-consistency axioms** restore the cheap invariants every *reachable*
state satisfies — received-since-failure implies received, a delivered
packet was sent by someone, middlebox emissions require a prior receipt,
host emissions obey source-address and data-provenance rules, and (at
failure budget 0) nothing is ever down.  Each is an invariant of the
real system, so asserting it on the arbitrary state keeps every proof
sound while pruning the spurious counterexamples-to-induction that
would otherwise dominate.

The solver discipline is :class:`repro.netmodel.bmc.IncrementalBMC`'s:
one warm solver per transition system, base + consistency axioms
asserted once, steps instantiated from the template on demand
(:meth:`extend_to`), everything else — properties, cubes, frames,
simple-path constraints — assumed or guarded by activation literals,
so k-induction and IC3 can interleave queries on one shared instance
(and :class:`repro.netmodel.bmc.SolverPool` can keep it warm across
invariants and network versions).

The state vocabulary exists twice, on purpose.  The engines ask
thousands of queries about cubes over the same few hundred literals, so
the transition system compiles them to SAT literals once
(:meth:`TransitionSystem.cube_lits`) and reads states back from the
model's bytes (:meth:`TransitionSystem.state_cube`): no term is built
or visited per query.  :meth:`TransitionSystem.lit_term`,
:func:`cube_term` and :func:`clause_term` say the same in terms; only
the cold certificate re-check and the blame layer use them, which makes
the re-check an independent reference for what the integer path proves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..netmodel.packets import same_flow
from ..netmodel.system import OMEGA
from ..netmodel.unrolling import Unrolling
from ..smt import And, EnumConst, Eq, Implies, Not, Or, Term, Xor

__all__ = [
    "TransitionSystem",
    "Lit",
    "Cube",
    "cube_term",
    "clause_term",
]

#: One cube literal: ``(key, value)``.  ``key`` is a state-atom key
#: (``("rcv", node, p, since_fail)`` / ``("snt", node, p)`` /
#: ``("failed", node)``) with a boolean value, a rigid packet-field
#: key ``("field", p, name)`` with the pinned enum value, or a derived
#: rigid predicate (``("rel", q, p)`` = the packets are the same
#: bidirectional flow, ``("req", p)`` = the packet is a request) with
#: a boolean value.
Lit = Tuple[tuple, object]
#: A cube: a conjunction of literals describing a set of states.
Cube = Tuple[Lit, ...]

_FIELD_NAMES = ("src", "dst", "sport", "dport", "origin", "tag")
#: Keys whose positive literals separate a state from the empty start
#: (rigid pins never do: the initial state allows any field values).
HISTORY_KINDS = ("rcv", "snt", "failed")


def is_history_lit(lit: Lit) -> bool:
    """True for a positive history-atom literal (the literals that
    exclude the empty initial state from a cube)."""
    key, value = lit
    return key[0] in HISTORY_KINDS and value is True


class _StepVocabulary(dict):
    """Cube literal -> SAT literal over the state at one time step.

    Filled on first use: an atom's variable at this step (both
    polarities at once), a derived predicate's literal (compiled when
    the transition system was built) or a field pin's ``var = value``
    equality — rigid ones get the same integer at every step.  A key
    the network lacks raises ``KeyError`` and a value outside the
    field's domain ``ValueError``, as :meth:`TransitionSystem.lit_term`.
    """

    __slots__ = ("_ts", "_t")

    def __init__(self, ts: "TransitionSystem", t: int):
        super().__init__()
        self._ts = ts
        self._t = t

    def __missing__(self, lit: Lit) -> int:
        key, value = lit
        ts = self._ts
        if key[0] == "field":
            var = ts._field_vars[key]
            code = self[lit] = ts.solver.literal(
                Eq(var, EnumConst(var.sort, value))
            )
            return code
        if key[0] in ("rel", "req"):
            code = ts._derived_lits[key]
        else:
            code = ts.solver.literal(ts.atom_at(key, self._t))
        self[(key, True)] = code
        self[(key, False)] = -code
        return code if value else -code


class TransitionSystem(Unrolling):
    """One warm free-initial-state unrolling of a network encoding."""

    _SPANS = ("proof", "transition-encode", "transition-extend")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        ctx = self.model.ctx
        #: The state vector: total, and identical across rebuilds of the
        #: same network (proof cubes and certificates name atoms by key).
        self.atoms: List[tuple] = list(ctx.state_keys)
        self._field_vars: Dict[tuple, Term] = {
            ("field", p.index, name): getattr(p, name)
            for p in ctx.packets
            for name in _FIELD_NAMES
        }
        self.fields: List[tuple] = list(self._field_vars)
        # Derived rigid predicates: the facts middlebox state actually
        # turns on (flow identity, request-ness) rather than the raw
        # port/tag values realizing them.  Cubes that pin these instead
        # of raw fields block whole families of field assignments at
        # once — without them IC3 splinters one structural fact into a
        # clause per port combination.
        self._derived: Dict[tuple, Term] = {}
        for p in ctx.packets:
            self._derived[("req", p.index)] = p.is_request
            for q in ctx.packets:
                if q.index < p.index:
                    self._derived[("rel", q.index, p.index)] = same_flow(q, p)
        self.derived: List[tuple] = list(self._derived)
        # Compiled here, before any query: a model only gives a derived
        # predicate's variable its meaning once the definitions are in.
        self._derived_lits: Dict[tuple, int] = {
            key: self.solver.literal(term) for key, term in self._derived.items()
        }
        self._vocabulary: Dict[int, _StepVocabulary] = {}
        self._state_reader: Optional[tuple] = None
        #: Single-query clauses issued through :meth:`check`.
        self.temp_clauses = 0

    def _start_axioms(self) -> List[Term]:
        """Time 0 is an arbitrary *consistent* state, not the empty one."""
        return self.consistency_axioms()

    # ------------------------------------------------------------------
    # State vocabulary
    # ------------------------------------------------------------------
    @property
    def ctx(self):
        return self.model.ctx

    def atom_var(self, key: tuple) -> Term:
        """The free time-0 variable of one state atom."""
        return self.model.ctx.history_at(key, 0)

    def atom_at(self, key: tuple, t: int) -> Term:
        """The state atom's variable at time ``t`` (defined by the
        transition relation once step ``t - 1`` is asserted)."""
        return self.model.ctx.history_at(key, t)

    def field_var(self, key: tuple) -> Term:
        return self._field_vars[key]

    def has_atom(self, key: tuple) -> bool:
        if key[0] == "field":
            return key in self._field_vars
        if key[0] in ("rel", "req"):
            return key in self._derived
        return key in self.model.ctx.state_keys

    def lit_term(self, lit: Lit, t: int) -> Term:
        """One cube literal as a term over the state at time ``t``
        (rigid field pins and derived predicates are time-independent)."""
        key, value = lit
        if key[0] == "field":
            var = self._field_vars[key]
            return Eq(var, EnumConst(var.sort, value))
        if key[0] in ("rel", "req"):
            term = self._derived[key]
        else:
            term = self.atom_at(key, t)
        return term if value else Not(term)

    def init_units(self) -> List[Term]:
        """The concrete initial state: every history atom false."""
        return [Not(self.atom_var(key)) for key in self.atoms]

    # ------------------------------------------------------------------
    # The same vocabulary in SAT literals (what the engines use)
    # ------------------------------------------------------------------
    def _step_vocabulary(self, t: int) -> _StepVocabulary:
        table = self._vocabulary.get(t)
        if table is None:
            table = self._vocabulary[t] = _StepVocabulary(self, t)
        return table

    def lit_at(self, lit: Lit, t: int) -> int:
        """One cube literal as a SAT literal over the state at time
        ``t`` — ``solver.literal(lit_term(lit, t))``, encoded once."""
        return self._step_vocabulary(t)[lit]

    def cube_lits(self, cube: Cube, t: int) -> List[int]:
        """The cube's literals over the state at time ``t``, in order:
        assume them for the cube, negate them for its blocking clause."""
        return list(map(self._step_vocabulary(t).__getitem__, cube))

    @property
    def vocab_lits(self) -> int:
        """Cube literals compiled to SAT literals so far."""
        return sum(map(len, self._vocabulary.values()))

    def _build_state_reader(self) -> tuple:
        """``(variables, top, slots)``: the SAT variables whose model
        bytes, gathered in order, spell the state, the largest of them,
        and per cube entry ``(start, end, {byte pattern: Lit})``."""
        literal = self.solver.literal
        variables: List[int] = []
        slots: List[tuple] = []

        def slot(key: tuple, lits: List[int], values: Sequence) -> None:
            table = {
                bytes(
                    ((code >> i) & 1) == (bit > 0) for i, bit in enumerate(lits)
                ): (key, values[code])
                for code in range(1 << len(lits))
            }
            slots.append((len(variables), len(variables) + len(lits), table))
            variables.extend(map(abs, lits))

        for key in self.atoms:
            slot(key, [literal(self.atom_var(key))], (False, True))
        for key, code in self._derived_lits.items():
            slot(key, [code], (False, True))
        for key, var in self._field_vars.items():
            sort = var.sort
            slot(
                key,
                [literal(bit) for bit in self.solver.bits_of(var)],
                # Unconstrained bits may spell a code outside the domain.
                [sort.value_of(c if c < sort.size else 0)
                 for c in range(1 << sort.nbits)],
            )
        return variables, max(variables), slots

    def state_cube(self, model) -> Cube:
        """The full-state cube of a satisfying assignment: every atom's
        time-0 value, every derived predicate and every rigid field's
        value, gathered from the model's bytes in one pass.  Proof
        obligations must describe exact states (shrinking happens only
        on the *blocked* side, certified by its own query), so nothing
        is dropped here."""
        if self._state_reader is None:
            self._state_reader = self._build_state_reader()
        variables, top, slots = self._state_reader
        values = model.values
        if len(values) <= top:  # a free variable newer than the model
            values = values.ljust(top + 1, b"\0")
        raw = bytes(map(values.__getitem__, variables))
        return tuple(table[raw[start:end]] for start, end, table in slots)

    # ------------------------------------------------------------------
    # Solver discipline (mirrors IncrementalBMC)
    # ------------------------------------------------------------------
    def noop_assumptions(self, from_t: int) -> List[Term]:
        """Noop pins for every step at or beyond ``from_t`` — the same
        trick the warm BMC driver uses to make one unrolling decide
        any shallower problem."""
        return [
            self.model.events[t].is_noop
            for t in range(from_t, self.model.depth)
        ]

    def violation_prefix(self, invariant, k: int) -> Term:
        """"A violating event occurs within the first ``k`` steps",
        with history grounded in the free initial state."""
        return invariant.violation_term(self.model.ctx.at_depth(k))

    def check(
        self,
        assumptions: Sequence[Union[Term, int]],
        max_conflicts: Optional[int] = None,
        clause: Optional[Sequence[int]] = None,
    ) -> str:
        """One query on the warm solver: assumption terms or literals,
        plus an optional clause of literals that holds for this query
        only (see :meth:`repro.smt.Solver.check`)."""
        self.checks += 1
        if clause is not None:
            self.temp_clauses += 1
        return self.solver.check(
            assumptions=assumptions, max_conflicts=max_conflicts, clause=clause
        )

    # ------------------------------------------------------------------
    # Simple-path strengthening
    # ------------------------------------------------------------------
    def distinct_states(self, t1: int, t2: int) -> Term:
        """The states at times ``t1`` and ``t2`` differ in some atom.
        (Rigid fields are excluded: they can never tell states apart.)"""
        return Or(
            *(Xor(self.atom_at(key, t1), self.atom_at(key, t2)) for key in self.atoms)
        )

    # ------------------------------------------------------------------
    # State-consistency axioms
    # ------------------------------------------------------------------
    def consistency_axioms(self) -> List[Term]:
        """Invariants of every *reachable* state, asserted on the free
        initial state (each propagates through the transition relation, so
        time 0 is the only place they need asserting).

        Soundness: each axiom below holds in every state the real
        system can reach from its empty start, so conjoining them to
        the arbitrary-state abstraction never excludes a reachable
        state — proofs stay valid while spurious counterexamples-to-
        induction (packets materializing out of nowhere) disappear.
        """
        ctx = self.model.ctx
        net = self.net
        mboxes = set(net.mbox_names)
        nodes = [n for n in net.node_names if n != OMEGA]
        out: List[Term] = []
        rcv = {
            (n, p.index): ctx.rcv_before(n, p.index, 0)
            for n in nodes
            for p in ctx.packets
        }
        snt = {
            (n, p.index): ctx.sent_to_net_before(n, p.index, 0)
            for n in nodes
            for p in ctx.packets
        }
        for key in ctx.state_keys:
            # Received-since-failure is a subset of received.
            if key[0] == "rcv" and key[3]:
                out.append(Implies(ctx.history_at(key, 0),
                                   ctx.rcv_before(key[1], key[2], 0)))
            # Steady state (no failure budget): nothing is ever down.
            if key[0] == "failed" and self.model.failure_budget == 0:
                out.append(Not(ctx.history_at(key, 0)))
        for p in ctx.packets:
            senders = Or(*(snt[(n, p.index)] for n in nodes))
            for n in nodes:
                # A delivered packet was handed to Ω by someone.
                out.append(Implies(rcv[(n, p.index)], senders))
        for m in net.middleboxes:
            for p in ctx.packets:
                # A middlebox emission requires a prior receipt.
                out.append(
                    Implies(
                        snt[(m.name, p.index)],
                        Or(*(rcv[(m.name, q.index)] for q in ctx.packets)),
                    )
                )
        for h in net.hosts:
            for p in ctx.packets:
                constraints: List[Term] = []
                if not net.allow_spoofing:
                    constraints.append(Eq(p.src, ctx.addr(h)))
                # Data provenance, as in NetworkSMTModel._origin_provenance.
                constraints.append(
                    Or(
                        p.is_request,
                        Eq(p.origin, ctx.addr(h)),
                        *(
                            And(
                                rcv[(h, q.index)],
                                Eq(q.origin, p.origin),
                                Not(q.is_request),
                            )
                            for q in ctx.packets
                        ),
                    )
                )
                out.append(Implies(snt[(h, p.index)], And(*constraints)))
        return out


# ----------------------------------------------------------------------
# Cube/clause helpers shared by IC3 and the certificate checker
# ----------------------------------------------------------------------
def cube_term(ts: TransitionSystem, cube: Cube, t: int) -> Term:
    """The cube as a conjunction over the state at time ``t``."""
    return And(*(ts.lit_term(lit, t) for lit in cube))


def clause_term(ts: TransitionSystem, cube: Cube, t: int) -> Term:
    """The blocking clause ¬cube over the state at time ``t``."""
    return Not(cube_term(ts, cube, t))
