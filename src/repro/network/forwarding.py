"""Per-switch forwarding tables.

A switch forwards by destination address through an ordered, first-match
table of :class:`ForwardingEntry` (destination set -> next-hop
neighbour).  :func:`shortest_path_tables` computes default tables by
shortest paths over the surviving topology of a failure scenario —
standing in for whatever routing protocol the operator runs — and
scenarios then *patch* tables to model policy routing (pinning traffic
through middlebox chains) or to inject the paper's §5.1 routing
misconfigurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from .failures import NO_FAILURE, FailureScenario
from .topology import Topology

__all__ = ["ForwardingEntry", "ForwardingState", "shortest_path_tables"]


@dataclass(frozen=True)
class ForwardingEntry:
    """First-match entry: packets to ``dsts`` (None = default route)
    leave towards ``next_hop``."""

    dsts: Optional[FrozenSet[str]]
    next_hop: str


class ForwardingState:
    """The forwarding tables of every switch under one failure scenario.

    Lookups go through a per-switch ``dst -> next hop`` index, built on
    first use and dropped whenever its table is patched or replaced, so
    it answers what a first-match scan of the table would."""

    def __init__(self, tables: Dict[str, List[ForwardingEntry]]):
        self.tables = tables
        #: switch -> (table indexed, its length then, dst -> hop, default hop)
        self._index: Dict[str, tuple] = {}

    def next_hop(self, switch: str, dst: str) -> Optional[str]:
        table = self.tables.get(switch)
        if table is None:
            return None
        index = self._index.get(switch)
        # ``tables`` is public: never answer from the index of a table
        # that was swapped or resized behind our back.
        if index is None or index[0] is not table or index[1] != len(table):
            hops: Dict[str, str] = {}
            default = None
            for entry in table:  # first match wins
                if entry.dsts is None:
                    default = entry.next_hop
                    break  # nothing after a default route is reachable
                for known in entry.dsts:
                    hops.setdefault(known, entry.next_hop)
            index = self._index[switch] = (table, len(table), hops, default)
        return index[2].get(dst, index[3])

    # ------------------------------------------------------------------
    # Patching — how scenarios pin paths and inject misconfigurations.
    # ------------------------------------------------------------------
    def prepend(self, switch: str, dsts: Optional[Iterable[str]], next_hop: str) -> None:
        """Insert a higher-priority entry at ``switch``."""
        entry = ForwardingEntry(
            None if dsts is None else frozenset(dsts), next_hop
        )
        self.tables.setdefault(switch, []).insert(0, entry)
        self._index.pop(switch, None)

    def remove_entries_to(self, switch: str, next_hop: str) -> int:
        """Delete all entries at ``switch`` pointing to ``next_hop``.
        Returns how many were removed (misconfiguration injection)."""
        table = self.tables.get(switch, [])
        kept = [e for e in table if e.next_hop != next_hop]
        removed = len(table) - len(kept)
        self.tables[switch] = kept
        self._index.pop(switch, None)
        return removed

    def copy(self) -> "ForwardingState":
        return ForwardingState({s: list(t) for s, t in self.tables.items()})


def shortest_path_tables(
    topology: Topology,
    scenario: FailureScenario = NO_FAILURE,
) -> ForwardingState:
    """Destination-based shortest-path tables over surviving elements.

    Each switch gets one entry per edge-node destination (host or
    middlebox), pointing along a shortest surviving path.  Paths never
    cut *through* hosts or middleboxes — only switches forward.  This
    stands in for the operator's routing protocol; policy steering
    through middlebox chains happens at transfer-function level
    (:mod:`repro.network.transfer`).

    Among equal-length paths the one a breadth-first search from the
    destination finds first wins, neighbours visited in the order of
    :attr:`Topology.links`.  Every table, trace and ``--stable-json``
    byte downstream depends on that tie-break, so
    ``tests/network/test_forwarding_reference.py`` pins it against an
    independent reference.
    """
    node_ok, link_ok = scenario.node_ok, scenario.link_ok
    tables: Dict[str, List[ForwardingEntry]] = {
        n.name: [] for n in topology.switches if node_ok(n.name)
    }
    # Only switches forward, so a search never leaves a node for anything
    # but a surviving switch: keep just those neighbours.
    toward: Dict[str, List[str]] = {
        n: [] for n in topology.node_names if node_ok(n)
    }
    for a, b in topology.links:
        if a in toward and b in toward and link_ok(a, b):
            if b in tables:
                toward[a].append(b)
            if a in tables:
                toward[b].append(a)

    for dst in toward:
        if dst in tables:
            continue
        reached = {dst}
        level = [dst]
        while level:
            found = []
            for hop in level:
                for switch in toward[hop]:
                    if switch not in reached:
                        reached.add(switch)
                        found.append(switch)
                        tables[switch].append(
                            ForwardingEntry(frozenset({dst}), hop))
            level = found

    return ForwardingState(tables)
