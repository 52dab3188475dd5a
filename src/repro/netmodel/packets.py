"""Symbolic packets.

VMN reasons about a small number of *symbolic packets*: records of
enum-sorted header fields whose values the solver chooses while hunting
for an invariant violation.  Following the paper (§3.2), header fields
and abstract packet classes are functions of the packet — ``src(p)``,
``dst(p)``, ``origin(p)`` — which here become one enum variable per
(packet index, field).

Fields:

* ``src``, ``dst`` — addresses (the address sort contains every host and
  middlebox address in the verification problem, see
  :class:`PacketSchema`),
* ``sport``, ``dport`` — transport ports (small integer sort; NATs and
  load balancers rewrite these),
* ``origin`` — the address whose *data* the packet carries (used by the
  data-isolation invariants of paper §5.2; for a request it is the
  server being asked, for a response the server that produced the body),
* ``tag`` — an opaque payload identity.  "Complex" packet modifications
  (encryption, compression) are modelled, as in the paper (§3.4), by
  leaving the output tag unconstrained — a random value.

Flow identity follows the paper's ``flow(p)`` function: two packets are
in the same (bidirectional) flow when their 5-tuples match directly or
reversed; :func:`same_flow` builds that term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from ..smt import And, EnumConst, EnumSort, EnumVar, Eq, Or, Term

__all__ = [
    "PacketSchema",
    "SymPacket",
    "same_five_tuple",
    "same_flow",
    "reversed_flow",
    "REQUEST_TAG",
]

#: Default number of distinct transport-port values in the port sort.
DEFAULT_NUM_PORTS = 6
#: Default number of payload-tag values (including the request tag).
DEFAULT_NUM_TAGS = 4

#: Tag value marking a packet as a *request* (it asks for content, it
#: does not carry it).  All other tags mark data-bearing packets; the
#: provenance axioms (a node can only emit data it produced or received)
#: and the data-isolation invariants apply to those.
REQUEST_TAG = "req"


class PacketSchema:
    """Per-problem sorts for packet fields, plus the packet-index sort.

    Every verification problem gets its own namespace prefix ``ns`` so
    that interned sort declarations from different problems never clash.
    """

    def __init__(
        self,
        ns: str,
        addresses: Sequence[str],
        n_packets: int,
        n_ports: int = DEFAULT_NUM_PORTS,
        n_tags: int = DEFAULT_NUM_TAGS,
    ):
        if n_packets < 1:
            raise ValueError("need at least one symbolic packet")
        self.ns = ns
        self.addresses = tuple(addresses)
        if n_tags < 2:
            raise ValueError("need the request tag plus at least one data tag")
        self.addr_sort = EnumSort(f"{ns}:addr", self.addresses)
        self.port_sort = EnumSort(f"{ns}:port", tuple(range(n_ports)))
        tags = (REQUEST_TAG,) + tuple(f"data{i}" for i in range(n_tags - 1))
        self.tag_sort = EnumSort(f"{ns}:tag", tags)
        self.pkt_sort = EnumSort(f"{ns}:pkt", tuple(range(n_packets)))
        self.n_packets = n_packets
        self.packets: List[SymPacket] = [
            SymPacket(self, i) for i in range(n_packets)
        ]

    def addr(self, name: str) -> Term:
        """The address constant for ``name``."""
        return EnumConst(self.addr_sort, name)

    def port(self, number: int) -> Term:
        return EnumConst(self.port_sort, number)

    def tag(self, name: str) -> Term:
        return EnumConst(self.tag_sort, name)

    def pkt_index(self, i: int) -> Term:
        return EnumConst(self.pkt_sort, i)


@dataclass(frozen=True)
class SymPacket:
    """The field variables of symbolic packet number ``index`` (cached)."""

    schema: PacketSchema
    index: int

    def _field(self, name: str, sort: EnumSort) -> Term:
        return EnumVar(f"{self.schema.ns}:p{self.index}.{name}", sort)

    @cached_property
    def src(self) -> Term:
        return self._field("src", self.schema.addr_sort)

    @cached_property
    def dst(self) -> Term:
        return self._field("dst", self.schema.addr_sort)

    @cached_property
    def sport(self) -> Term:
        return self._field("sport", self.schema.port_sort)

    @cached_property
    def dport(self) -> Term:
        return self._field("dport", self.schema.port_sort)

    @cached_property
    def origin(self) -> Term:
        return self._field("origin", self.schema.addr_sort)

    @cached_property
    def tag(self) -> Term:
        return self._field("tag", self.schema.tag_sort)

    @property
    def five_tuple(self) -> Tuple[Term, Term, Term, Term]:
        return (self.src, self.dst, self.sport, self.dport)

    @property
    def is_request(self) -> Term:
        """The packet asks for content instead of carrying it."""
        return Eq(self.tag, self.schema.tag(REQUEST_TAG))

    def fields_equal(self, other: "SymPacket") -> Term:
        """All header fields (including origin and tag) coincide."""
        return And(
            Eq(self.src, other.src),
            Eq(self.dst, other.dst),
            Eq(self.sport, other.sport),
            Eq(self.dport, other.dport),
            Eq(self.origin, other.origin),
            Eq(self.tag, other.tag),
        )


def same_five_tuple(p: SymPacket, q: SymPacket) -> Term:
    """Directed flow identity: identical (src, dst, sport, dport)."""
    return And(
        Eq(p.src, q.src),
        Eq(p.dst, q.dst),
        Eq(p.sport, q.sport),
        Eq(p.dport, q.dport),
    )


def reversed_flow(p: SymPacket, q: SymPacket) -> Term:
    """``q`` travels the reverse direction of ``p``'s 5-tuple."""
    return And(
        Eq(p.src, q.dst),
        Eq(p.dst, q.src),
        Eq(p.sport, q.dport),
        Eq(p.dport, q.sport),
    )


def same_flow(p: SymPacket, q: SymPacket) -> Term:
    """Bidirectional flow identity — the paper's ``flow(p) = flow(q)``."""
    return Or(same_five_tuple(p, q), reversed_flow(p, q))
