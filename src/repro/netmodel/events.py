"""The event vocabulary of the discrete-timestep network model.

The paper models network behaviour as a sequence of discrete timesteps,
each carrying a single event chosen by a *scheduling oracle* (§3): a
packet delivery, a middlebox processing step, a new packet entering the
network, a failure, or a recovery.  Searching over all assignments of
the per-timestep event variables below is exactly searching over all
oracle schedules.

We collapse the paper's ``snd``/``rcv`` pair into one ``SEND`` event
(sender, receiver, packet): the paper's axiom "every receive has an
earlier matching send" then holds by construction, and the total order
of timesteps preserves the oracle's freedom to interleave.

Event kinds:

* ``SEND`` — ``frm`` transmits packet ``pkt`` to ``to`` over a link,
* ``FAIL`` — node ``frm`` fails,
* ``RECOVER`` — node ``frm`` recovers,
* ``NOOP`` — nothing happens (lets shorter schedules embed in a
  fixed-depth unrolling).
"""

from __future__ import annotations

from typing import Dict, List

from ..smt import And, EnumConst, EnumSort, EnumVar, Eq, Term

__all__ = ["EventKind", "EventVars", "EVENT_KINDS"]


class EventKind:
    SEND = "send"
    FAIL = "fail"
    RECOVER = "recover"
    NOOP = "noop"


EVENT_KINDS = (EventKind.SEND, EventKind.FAIL, EventKind.RECOVER, EventKind.NOOP)


class EventVars:
    """The four event variables of one timestep."""

    def __init__(self, ns: str, t: int, kind_sort: EnumSort, node_sort: EnumSort,
                 pkt_sort: EnumSort):
        self.t = t
        self.kind = EnumVar(f"{ns}:t{t}.kind", kind_sort)
        self.frm = EnumVar(f"{ns}:t{t}.frm", node_sort)
        self.to = EnumVar(f"{ns}:t{t}.to", node_sort)
        self.pkt = EnumVar(f"{ns}:t{t}.pkt", pkt_sort)
        self._atoms: Dict[tuple, Term] = {}  # (variable, value) -> atom

    # ------------------------------------------------------------------
    # Predicate builders
    # ------------------------------------------------------------------
    def _is(self, var: Term, value) -> Term:
        """The atom ``var == value``, cached per timestep."""
        atom = self._atoms.get((var, value))
        if atom is None:
            atom = self._atoms[(var, value)] = Eq(var, EnumConst(var.sort, value))
        return atom

    def is_kind(self, kind: str) -> Term:
        return self._is(self.kind, kind)

    @property
    def is_send(self) -> Term:
        return self.is_kind(EventKind.SEND)

    @property
    def is_noop(self) -> Term:
        return self.is_kind(EventKind.NOOP)

    def frm_is(self, node: str) -> Term:
        return self._is(self.frm, node)

    def to_is(self, node: str) -> Term:
        return self._is(self.to, node)

    def pkt_is(self, index: int) -> Term:
        return self._is(self.pkt, index)

    def snd(self, frm: str, to: str, pkt_index: int) -> Term:
        """This timestep is exactly ``snd(frm, to, p)`` from the paper."""
        return And(
            self.is_send, self.frm_is(frm), self.to_is(to), self.pkt_is(pkt_index)
        )

    def fail_of(self, node: str) -> Term:
        return And(self.is_kind(EventKind.FAIL), self.frm_is(node))

    def recover_of(self, node: str) -> Term:
        return And(self.is_kind(EventKind.RECOVER), self.frm_is(node))


def make_kind_sort(ns: str) -> EnumSort:
    return EnumSort(f"{ns}:evkind", EVENT_KINDS)


def make_events(ns: str, depth: int, kind_sort: EnumSort, node_sort: EnumSort,
                pkt_sort: EnumSort) -> List[EventVars]:
    return [EventVars(ns, t, kind_sort, node_sort, pkt_sort) for t in range(depth)]
